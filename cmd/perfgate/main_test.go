package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// line is a perfbench result line with a run time (lower is better) and a
// throughput (higher is better).
func line(correct bool, attempted, failed int, runS, perS float64) string {
	return fmt.Sprintf(`{"correct":%t,"attempted":%d,"failed":%d,"metrics":{"run_s":{"value":%g,"unit":"s"},"throughput_per_s":{"value":%g,"unit":"1/s"}}}`,
		correct, attempted, failed, runS, perS)
}

func parse(t *testing.T, lines ...string) []result {
	t.Helper()
	rs := make([]result, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

const fixtureSpec = `{
  "command": ["python3", "perfbench/run.py"],
  "run_seconds": 30,
  "workloads": [{"name": "w", "why": "fixture"}],
  "end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
  ]
}`

func TestDecide(t *testing.T) {
	var s spec
	if err := json.Unmarshal([]byte(fixtureSpec), &s); err != nil {
		t.Fatal(err)
	}
	ok := line(true, 10, 0, 10, 100)
	base := []string{ok, line(true, 10, 0, 11, 90), line(true, 10, 0, 9, 110)}
	for _, tc := range []struct {
		name   string
		change []string
		want   string // substring of the first failure; "" passes
	}{
		{"same", base, ""},
		{"slower within bound", []string{line(true, 10, 0, 12, 100), line(true, 10, 0, 12.4, 100), line(true, 10, 0, 12.2, 100)}, ""},
		{"slower beyond bound", []string{line(true, 10, 0, 13, 100), line(true, 10, 0, 12.6, 100), line(true, 10, 0, 13.5, 100)}, "run_s worse by 30.0%"},
		{"faster", []string{line(true, 10, 0, 2, 100), line(true, 10, 0, 3, 100), line(true, 10, 0, 2.5, 100)}, ""},
		{"throughput down within bound", []string{line(true, 10, 0, 10, 80), line(true, 10, 0, 10, 78), line(true, 10, 0, 10, 90)}, ""},
		{"throughput down beyond bound", []string{line(true, 10, 0, 10, 70), line(true, 10, 0, 10, 60), line(true, 10, 0, 10, 72)}, "throughput_per_s worse by 30.0%"},
		{"throughput up", []string{line(true, 10, 0, 10, 500), line(true, 10, 0, 10, 400), line(true, 10, 0, 10, 450)}, ""},
		{"incorrect run", []string{ok, line(false, 10, 1, 10, 100), ok}, "change run 2 incorrect"},
		{"no result line", []string{ok, `{}`, ok}, "change run 2 incorrect"},
		{"higher failed ratio", []string{ok, ok, line(true, 10, 1, 10, 100)}, "failed ratio 0.03333 above the base's 0"},
		{"missing metric", []string{ok, `{"correct":true,"attempted":10,"failed":0,"metrics":{"run_s":{"value":10}}}`, ok}, "throughput_per_s missing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails := decide(s, map[string][2][]result{"w": {parse(t, base...), parse(t, tc.change...)}}, io.Discard)
			if tc.want == "" && len(fails) > 0 || tc.want != "" && (len(fails) == 0 || !strings.Contains(fails[0], tc.want)) {
				t.Fatalf("failures %q, want %q", fails, tc.want)
			}
		})
	}
}

func TestDecideMissingWorkload(t *testing.T) {
	var s spec
	if err := json.Unmarshal([]byte(fixtureSpec), &s); err != nil {
		t.Fatal(err)
	}
	fails := decide(s, map[string][2][]result{"other": {parse(t, line(true, 1, 0, 1, 1)), parse(t, line(true, 1, 0, 1, 1))}}, io.Discard)
	if len(fails) != 2 || !strings.Contains(fails[0], "w: run_s missing") {
		t.Fatalf("failures %q, want both metrics of w missing", fails)
	}
}

// TestRepositorySpec parses the real BENCHMARK.json: the gate reads its
// workloads, metrics, directions, bounds and run length from there.
func TestRepositorySpec(t *testing.T) {
	s, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.EndToEnd) == 0 {
		t.Fatal("no end-to-end metrics")
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" || !(m.Bound > 0) {
			t.Errorf("metric %+v: want better lower or higher and a positive bound", m)
		}
	}
	names := map[string]bool{}
	for _, w := range s.Workloads {
		names[w.Name] = true
	}
	for name := range seeds {
		if !names[name] {
			t.Errorf("seed set for %q, which BENCHMARK.json does not list", name)
		}
	}
	if _, err := readSpec("main.go"); err == nil {
		t.Error("readSpec accepted a file that is not JSON")
	}
}
