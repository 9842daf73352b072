package experiment

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dtc/internal/metrics"
	"dtc/internal/sweep"
)

// volatileCols lists, per experiment, the 0-indexed columns that hold
// wall-clock measurements. Those experiments pin their timed loops to one
// worker, so the table *structure* and every other column are still
// worker-invariant — only the timing values themselves differ run to run.
var volatileCols = map[string][]int{
	"e5": {3, 4}, // Mpkts_per_sec, ns_per_pkt
	"a2": {3, 4}, // Mlookups_per_sec, slowdown_vs_trie
}

// maskedRows renders a table's rows with volatile cells blanked, so two
// runs can be compared byte-for-byte on everything deterministic.
func maskedRows(tbl *metrics.Table, volatile []int) string {
	var b strings.Builder
	for _, row := range tbl.Rows() {
		cells := append([]string(nil), row...)
		for _, c := range volatile {
			if c < len(cells) {
				cells[c] = "-"
			}
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWorkerInvariance is the contract the sweep port promises: every
// ported experiment produces a byte-identical table at workers=1 and
// workers=8 (modulo masked wall-clock columns).
func TestWorkerInvariance(t *testing.T) {
	for _, id := range []string{"e1", "e4", "e5", "e10", "e12", "e14", "e15", "a2", "a3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			sweep.ResetCache()
			serial, err := Run(id, Options{Quick: true, Seed: 42, Workers: 1})
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			sweep.ResetCache()
			parallel, err := Run(id, Options{Quick: true, Seed: 42, Workers: 8})
			if err != nil {
				t.Fatalf("workers=8: %v", err)
			}
			a := maskedRows(serial, volatileCols[id])
			b := maskedRows(parallel, volatileCols[id])
			if a != b {
				t.Errorf("table differs between workers=1 and workers=8:\n--- workers=1\n%s--- workers=8\n%s", a, b)
			}
		})
	}
}

// TestRunManyTimeout checks that one hung experiment cannot stall the
// batch: its slot is reclaimed, its error names the abandonment, and the
// remaining experiments still complete.
func TestRunManyTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int32
	fake := func(id string, _ Options) (*metrics.Table, error) {
		calls.Add(1)
		if id == "hang" {
			<-release // hangs far past the timeout
			return nil, nil
		}
		tbl := metrics.NewTable(id, "col")
		tbl.AddRow(id)
		return tbl, nil
	}
	ids := []string{"ok1", "hang", "ok2"}
	opts := Options{Timeout: 50 * time.Millisecond}
	start := time.Now()
	tables, errs := runMany(ids, opts, 2, fake)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch took %v; hung experiment stalled it", elapsed)
	}
	if calls.Load() != 3 {
		t.Errorf("run calls = %d, want 3", calls.Load())
	}
	for id, j := range map[string]int{"ok1": 0, "ok2": 2} {
		if errs[j] != nil {
			t.Errorf("%s: unexpected error %v", id, errs[j])
		}
		if tables[j] == nil || tables[j].Rows()[0][0] != id {
			t.Errorf("%s: missing or wrong table", id)
		}
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "abandoned") {
		t.Errorf("hung experiment error = %v, want abandonment", errs[1])
	}
	if tables[1] != nil {
		t.Error("hung experiment returned a table")
	}
}

// TestRunManyNoTimeout keeps the zero-Timeout fast path honest.
func TestRunManyNoTimeout(t *testing.T) {
	fake := func(id string, _ Options) (*metrics.Table, error) {
		if id == "bad" {
			return nil, fmt.Errorf("boom")
		}
		tbl := metrics.NewTable(id, "col")
		tbl.AddRow(id)
		return tbl, nil
	}
	tables, errs := runMany([]string{"x", "bad"}, Options{}, 4, fake)
	if errs[0] != nil || tables[0] == nil {
		t.Errorf("x: tbl=%v err=%v", tables[0], errs[0])
	}
	if errs[1] == nil || tables[1] != nil {
		t.Errorf("bad: tbl=%v err=%v", tables[1], errs[1])
	}
}
