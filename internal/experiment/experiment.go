// Package experiment contains the runners that reproduce every figure and
// quantitative claim of the paper as a measured table (see DESIGN.md §4
// for the experiment index). Each runner is deterministic given its seed
// and has a Quick mode for benchmarks and CI.
package experiment

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dtc/internal/metrics"
)

// Options tunes a run.
type Options struct {
	// Quick shrinks workloads so every experiment finishes in well under a
	// second — used by `go test -bench` and CI. Full mode is the default
	// for cmd/ddosim.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Workers caps the concurrent sweep points inside one experiment;
	// 0 means GOMAXPROCS. Tables are byte-identical at any value
	// (wall-clock-measuring experiments pin their timed loops to one
	// goroutine regardless, so only their timing columns vary run to run).
	Workers int
	// Timeout bounds each experiment inside RunMany; 0 means none. A
	// timed-out experiment reports an error and releases its worker slot
	// so the rest of the batch proceeds.
	Timeout time.Duration
	// FaultSeed seeds the fault schedules of the fault-injection
	// experiments (e14), independently of Seed so the same fault storyline
	// can be replayed against different traffic. 0 is a valid seed.
	FaultSeed uint64
	// FaultRate, when positive, replaces e14's default fault-rate ladder
	// with {0, FaultRate} (expected faults per fault class per simulated
	// second). <= 0 keeps the default ladder.
	FaultRate float64
	// PacketOnly forces hybrid-substrate experiments (e15) onto the
	// all-packet reference path: the cone swallows the whole graph and
	// every modeled client becomes a real simulated host. Only feasible
	// at Quick sizes; the zero value (hybrid on) is the normal mode.
	PacketOnly bool
}

// Runner executes one experiment and renders its table.
type Runner func(Options) (*metrics.Table, error)

// registry maps experiment IDs (f1…f6, e1…e9) to runners.
var registry = map[string]struct {
	runner Runner
	desc   string
}{}

func register(id, desc string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = struct {
		runner Runner
		desc   string
	}{r, desc}
}

// Run executes the experiment with the given ID.
func Run(id string, opts Options) (*metrics.Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (try List())", id)
	}
	return e.runner(opts)
}

// List returns all experiment IDs in order.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string {
	if e, ok := registry[id]; ok {
		return e.desc
	}
	return ""
}

// RunMany executes the given experiments concurrently on up to `workers`
// goroutines and returns their tables in input order. Experiments are
// fully independent (each builds its own simulation world), so this is a
// plain fan-out; a single failure cancels nothing but is reported for its
// experiment. Wall-clock-measuring experiments (f4–f6, e5, a2) contend
// for CPU under parallelism — use workers=1 when their absolute numbers
// matter.
func RunMany(ids []string, opts Options, workers int) ([]*metrics.Table, []error) {
	return runMany(ids, opts, workers, Run)
}

// runMany is RunMany with an injectable run function so the timeout path
// can be tested without registering fake experiments (the registry's
// contents are themselves under test).
func runMany(ids []string, opts Options, workers int, run func(string, Options) (*metrics.Table, error)) ([]*metrics.Table, []error) {
	if workers < 1 {
		workers = 1
	}
	tables := make([]*metrics.Table, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if opts.Timeout <= 0 {
				tables[i], errs[i] = run(id, opts)
				return
			}
			type result struct {
				tbl *metrics.Table
				err error
			}
			done := make(chan result, 1)
			// Runners take no context (they are CPU-bound simulation
			// loops), so a hung one cannot be interrupted — it is
			// abandoned: its goroutine leaks until it finishes, but its
			// worker slot frees immediately and the batch completes.
			go func() {
				tbl, err := run(id, opts)
				done <- result{tbl, err}
			}()
			timer := time.NewTimer(opts.Timeout)
			defer timer.Stop()
			select {
			case r := <-done:
				tables[i], errs[i] = r.tbl, r.err
			case <-timer.C:
				errs[i] = fmt.Errorf("experiment %s: abandoned after %v", id, opts.Timeout)
			}
		}(i, id)
	}
	wg.Wait()
	return tables, errs
}

// pct renders a ratio as a percentage value.
func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// ratio is a 0-guarded division.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
