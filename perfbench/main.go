// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time, checks the workload's outputs, and prints one JSON result
// line last on standard output:
//
//	perfbench --workload hybrid_internet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is repeated with the layer wrappers of trace.go in
// place and the result carries the per-layer metrics. Workloads, metrics
// and their expected interactions are described in README.md. perfbench
// is normally started through run.py, which builds it first.
//
//	perfbench compare OLD.jsonl NEW.jsonl
//
// prints the per-metric medians of two result logs, refusing when they
// were taken on different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dtc/internal/deploy"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Quick   bool   // shrunken sizes for the benchmark's own tests
	OutDir  string // scratch directory inside the checkout (logs, spans)
}

// outcome is what a workload returns: its checks and its figures.
type outcome struct {
	Attempted int // operations and output checks attempted
	Failed    int // of which failed
	Notes     []string

	EndToEnd map[string]float64 // keyed by endToEnd names
	Layers   map[string]float64 // keyed by perLayer names (traced runs)
	Spans    []span             // traced runs: written once, at the end
}

func newOutcome() *outcome {
	return &outcome{EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
}

// check records one output check; a failed check counts toward failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		if len(o.Notes) < 10 {
			o.Notes = append(o.Notes, "FAILED check: "+fmt.Sprintf(format, args...))
		}
	}
}

type workload struct {
	Name string
	Why  string
	Run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{Name: "hybrid_internet", Why: "full-size e15 on the hybrid substrate: lazy routing tree builds and hybrid set-up dominate", Run: runHybrid},
	{Name: "packet_dataplane", Why: "all-packet 18k-AS world with a device on every router: per-packet forwarding and device cost", Run: runDataplane},
	{Name: "control_plane", Why: "signed install/update/query load on a real multi-process deployment: ed25519 under TCSP and NMS locks", Run: runControl},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult selects the metric table the mode prints; a metric the
// workload did not produce is an error for the end-to-end table (every
// end-to-end metric is defined on every workload) and 0 for the layers.
func buildResult(o *outcome, trace bool) (*result, error) {
	r := &result{Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	r.Correct = o.Failed == 0
	if trace {
		for _, d := range perLayer {
			r.Metrics[d.Name] = metricValue{Value: o.Layers[d.Name], Unit: d.Unit}
		}
		return r, nil
	}
	for _, d := range endToEnd {
		v, ok := o.EndToEnd[d.Name]
		if !ok || !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func main() {
	if deploy.IsChild() {
		// The control_plane workload launches the deployment roles by
		// re-executing this binary.
		if err := deploy.RunChild(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench role: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareLogs(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

// outDir, relative to the checkout root the benchmark runs from, holds
// deployment logs, trace spans and the result log.
const outDir = ".bench_build/perfbench"

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hybrid_internet, packet_dataplane or control_plane")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: outDir}
	host := stampHost()
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	o, err := w.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.Name, err)
		return 1
	}
	for _, n := range o.Notes {
		fmt.Println(n)
	}
	if cfg.Trace && len(o.Spans) > 0 {
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, cfg.Seed))
		if err := writeSpans(path, o.Spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	res, err := buildResult(o, cfg.Trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.Name, err)
		return 1
	}
	printReport(w.Name, o, res)
	if err := appendLog(filepath.Join(cfg.OutDir, "results.jsonl"), logRecord{
		Host: host, Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		At: time.Now().UTC().Format(time.RFC3339), Result: res,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printReport writes the human-readable lines: every figure by name and
// unit, the workload-specific ones included, ahead of the JSON line.
func printReport(name string, o *outcome, res *result) {
	var names []string
	for k := range o.EndToEnd {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %-28s %14.6g %s\n", name, k, o.EndToEnd[k], unitOf(k))
	}
	if res.Attempted > 0 {
		fmt.Printf("%s %-28s %14.6g ratio (%d of %d)\n", name, "failed_ratio",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	if len(o.Layers) > 0 {
		var ls []string
		for k := range o.Layers {
			ls = append(ls, k)
		}
		sort.Strings(ls)
		for _, k := range ls {
			fmt.Printf("%s layer %-28s %14.6g %s\n", name, k, o.Layers[k], unitOf(k))
		}
	}
}

// unitOf looks a metric's unit up in either table; figures reported only
// on the human-readable lines carry their unit in their name's suffix.
func unitOf(name string) string {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	if strings.HasSuffix(name, "_n") {
		return "count"
	}
	return name[strings.LastIndexByte(name, '_')+1:]
}
