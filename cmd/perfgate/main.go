// Command perfgate runs every BENCHMARK.json workload through its command,
// at its run length, in a base revision exported to .bench_build/perfgate/base
// and in the working tree: three pairs of runs, alternating which side goes
// first. It fails on an incorrect run, on a failed ratio above the base's,
// or on an end-to-end median worse than the base's by more than its bound.
// Run from the root of the checkout; the base defaults to the merge-base of
// HEAD and its upstream:
//
//	[BASE=<rev>] go run ./cmd/perfgate
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

const pairs = 3 // base/change pairs per workload

const baseTree = ".bench_build/perfgate/base"

// exportBase replaces baseTree with the base revision and prints its commit.
const exportBase = `c=$(git rev-parse --verify "${BASE:-$(git merge-base HEAD @{upstream})}^{commit}")
rm -rf ` + baseTree + ` && mkdir -p ` + baseTree + `
git archive "$c" | tar -x -C ` + baseTree + `
echo "$c"`

// seeds holds the workloads that run at a seed other than 1: EXPERIMENTS.md's
// e15 table was taken at seed 42, and perfbench checks hybrid_internet's
// rows against it only there.
var seeds = map[string]int{"hybrid_internet": 42}

var sides = [2]string{"base", "change"}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name, Better string // Better is "lower" or "higher"
		Bound        float64
	} `json:"end_to_end"`
}

// result is perfbench's JSON result line.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

func main() {
	start := time.Now()
	if err := gate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}
	fmt.Printf("perfgate: passed in %s\n", time.Since(start).Round(time.Second))
}

func gate() error {
	s, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	export := exec.Command("sh", "-ec", exportBase)
	export.Stderr = os.Stderr
	commit, err := export.Output()
	if err != nil {
		return fmt.Errorf("exporting the base (with no upstream, set BASE=<rev>): %w", err)
	}
	fmt.Printf("perfgate: base %s against the working tree\n", strings.TrimSpace(string(commit)))
	trees := [2]string{baseTree, "."}
	runs := map[string][2][]result{}
	for _, w := range s.Workloads {
		var rs [2][]result
		for i := 0; i < 2*pairs; i++ {
			side := (i + i/2) % 2 // base goes first in even pairs, the change in odd ones
			rs[side] = append(rs[side], run(s, trees[side], w.Name, sides[side]))
		}
		runs[w.Name] = rs
	}
	if fails := decide(s, runs, os.Stdout); len(fails) > 0 {
		return fmt.Errorf("failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

func readSpec(path string) (s spec, err error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	if err == nil && (len(s.Command) == 0 || !(s.RunSeconds > 0) || len(s.Workloads) == 0) {
		err = fmt.Errorf("%s needs a command, a positive run_seconds and workloads", path)
	}
	return s, err
}

// run makes one untraced run in dir; one that exits non-zero or prints no
// result line counts as incorrect.
func run(s spec, dir, workload, side string) (r result) {
	seed := max(seeds[workload], 1)
	cmd := exec.Command(s.Command[0], append(s.Command[1:len(s.Command):len(s.Command)],
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(s.RunSeconds, 'g', -1, 64), "--trace", "0")...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	line := lines[len(lines)-1]
	if json.Unmarshal([]byte(line), &r) != nil || err != nil {
		r.Correct = false
	}
	fmt.Printf("perfgate: %s %s seed %d (exit %v): %s\n", workload, side, seed, err, line)
	return r
}

// decide prints each workload's end-to-end medians on both sides to w and
// returns every reason the change fails the gate.
func decide(s spec, runs map[string][2][]result, w io.Writer) (fails []string) {
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	for _, wl := range s.Workloads {
		rs := runs[wl.Name]
		var ratio [2]float64
		for side, sr := range rs {
			var attempted, failed float64
			for i, r := range sr {
				if !r.Correct {
					fail("%s: %s run %d incorrect", wl.Name, sides[side], i+1)
				}
				attempted, failed = attempted+float64(r.Attempted), failed+float64(r.Failed)
			}
			ratio[side] = failed / max(attempted, 1)
		}
		if ratio[1] > ratio[0] {
			fail("%s: failed ratio %.4g above the base's %.4g", wl.Name, ratio[1], ratio[0])
		}
		for _, m := range s.EndToEnd {
			b, c := median(rs[0], m.Name), median(rs[1], m.Name)
			worse := (c - b) / b
			if m.Better == "higher" {
				worse = -worse
			}
			if !(b > 0 && c > 0) {
				fail("%s: %s missing from a side or not positive", wl.Name, m.Name)
			} else if worse > m.Bound {
				fail("%s: %s worse by %.1f%%, bound %.0f%%", wl.Name, m.Name, 100*worse, 100*m.Bound)
			}
			fmt.Fprintf(w, "%-16s %-16s base %10.4g  change %10.4g  worse by %+6.1f%%  bound %.0f%%\n",
				wl.Name, m.Name, b, c, 100*worse, 100*m.Bound)
		}
	}
	return fails
}

// median of one metric over runs, or 0 when there are none or a run lacks
// it or reads 0 or less (perfbench reports every end-to-end metric positive).
func median(runs []result, name string) float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[name].Value)
	}
	sort.Float64s(v)
	if len(v) == 0 || !(v[0] > 0) {
		return 0
	}
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}
