package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"dtc/internal/deploy"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/packet"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkDefs validates a metric table: well-formed, unique names and units.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if !metricUnit.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// TestMain lets the control_plane smoke test re-execute the test binary as
// the deployment roles.
func TestMain(m *testing.M) {
	if deploy.IsChild() {
		if err := deploy.RunChild(); err != nil {
			fmt.Fprintf(os.Stderr, "role: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestMetricNames(t *testing.T) {
	if err := checkDefs(append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the tables
// the benchmark prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, perfbench %q %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, perfbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("tailQuantile(1000) = %v", q)
	}
	if q := tailQuantile(100); q != 0.9 {
		t.Errorf("tailQuantile(100) = %v, want 0.9 (ten samples beyond)", q)
	}
}

// conservedStats is a drained run's accounting: 10 sent, 7 delivered, 3
// dropped.
func conservedStats() netsim.Stats {
	var s netsim.Stats
	s.Sent[1].Packets = 10
	s.Delivered[1].Packets = 7
	s.Drops[netsim.DropFilter][1].Packets = 3
	return s
}

func TestHybridCheckerRejectsCorruption(t *testing.T) {
	good := conservedStats()
	o := newOutcome()
	checkHybrid(o, e15Seed42, &good, 10, 42, false)
	if o.Failed != 0 {
		t.Fatalf("good repetition rejected: %v", o.Notes)
	}

	wrongRow := append([]hybridRow(nil), e15Seed42...)
	wrongRow[5].reflectPPS = 2961
	lost := conservedStats()
	lost.Delivered[1].Packets--
	cases := map[string]func(o *outcome){
		"seed-42 value": func(o *outcome) { checkHybrid(o, wrongRow, &good, 10, 42, false) },
		"conservation":  func(o *outcome) { checkHybrid(o, e15Seed42, &lost, 10, 42, false) },
		"missing cell":  func(o *outcome) { checkHybrid(o, e15Seed42[:5], &good, 10, 42, false) },
		"no emission":   func(o *outcome) { checkHybrid(o, e15Seed42, &good, 0, 42, false) },
	}
	for name, run := range cases {
		o := newOutcome()
		run(o)
		if o.Failed == 0 {
			t.Errorf("%s corruption not detected", name)
		}
	}
}

func TestFingerprintSeesChanges(t *testing.T) {
	a := &simRep{stats: conservedStats(), fired: 100, builds: 9, detail: "rows"}
	for name, b := range map[string]simRep{
		"stats":  {stats: netsim.Stats{}, fired: 100, builds: 9, detail: "rows"},
		"events": {stats: conservedStats(), fired: 101, builds: 9, detail: "rows"},
		"builds": {stats: conservedStats(), fired: 100, builds: 8, detail: "rows"},
		"detail": {stats: conservedStats(), fired: 100, builds: 9, detail: "rowz"},
	} {
		if b.fingerprint() == a.fingerprint() {
			t.Errorf("fingerprint misses a changed %s", name)
		}
	}
	// Timings and heap are measurements, not simulated outcome.
	c := *a
	c.runS, c.setupS, c.peakHeap = 1, 2, 3
	if c.fingerprint() != a.fingerprint() {
		t.Error("fingerprint depends on timings")
	}
}

func TestDataplaneCheckerRejectsCorruption(t *testing.T) {
	good := conservedStats()
	good.Sent[packet.KindReflect].Packets = 1 // a reflected packet reached the victim
	good.Delivered[packet.KindReflect].Packets = 1
	served := [5]uint64{packet.KindLegit: 7}
	o := newOutcome()
	checkDataplane(o, &good, served, 5, 1)
	if o.Failed != 0 {
		t.Fatalf("good repetition rejected: %v", o.Notes)
	}
	lost := good
	lost.Sent[1].Packets++
	unfiltered := good
	unfiltered.Drops[netsim.DropFilter][1].Packets = 0
	unfiltered.Delivered[1].Packets = 10
	cases := map[string]func(o *outcome){
		"conservation": func(o *outcome) { checkDataplane(o, &lost, served, 5, 1) },
		"counters":     func(o *outcome) { checkDataplane(o, &good, served, 0, 0) },
		"no filtering": func(o *outcome) { checkDataplane(o, &unfiltered, served, 5, 1) },
		"no service":   func(o *outcome) { checkDataplane(o, &good, [5]uint64{}, 5, 1) },
	}
	for name, run := range cases {
		o := newOutcome()
		run(o)
		if o.Failed == 0 {
			t.Errorf("%s corruption not detected", name)
		}
	}
}

func TestControlCheckerRejectsCorruption(t *testing.T) {
	nodes := []int{0, 1, 2, 3}
	counters := make([]nms.NodeCounters, len(nodes))
	if err := checkReply(opInstall, []*nms.DeployResult{{ISP: "isp1", Nodes: nodes}}, nil); err != nil {
		t.Fatalf("good install rejected: %v", err)
	}
	if err := checkReply(opQuery, nil, []*nms.ControlResult{{ISP: "isp1", OK: true, Counters: counters}}); err != nil {
		t.Fatalf("good query rejected: %v", err)
	}
	bad := map[string]error{
		"install on too few routers": checkReply(opInstall, []*nms.DeployResult{{ISP: "isp1", Nodes: nodes[:3]}}, nil),
		"update not OK":              checkReply(opUpdate, nil, []*nms.ControlResult{{ISP: "isp1", OK: false}}),
		"no reply":                   checkReply(opUpdate, nil, nil),
		"counters miss routers":      checkReply(opQuery, nil, []*nms.ControlResult{{ISP: "isp1", OK: true, Counters: counters[:2]}}),
	}
	for name, err := range bad {
		if err == nil {
			t.Errorf("%s not detected", name)
		}
	}
}

func TestBuildResultRefusesMissingMetric(t *testing.T) {
	o := newOutcome()
	for _, d := range endToEnd {
		o.EndToEnd[d.Name] = 1
	}
	if _, err := buildResult(o, false); err != nil {
		t.Fatal(err)
	}
	o.EndToEnd["run_s"] = 0
	if _, err := buildResult(o, false); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	h := stampHost()
	other := h
	other.Cores++
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"run_s": {Value: 1, Unit: "s"}}}
	a, b := dir+"/a.jsonl", dir+"/b.jsonl"
	if err := appendLog(a, logRecord{Host: h, Workload: "w", Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := appendLog(b, logRecord{Host: other, Workload: "w", Result: res}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compareLogs([]string{a, b}, &out); err == nil {
		t.Error("results from different hosts were compared")
	}
	if err := compareLogs([]string{a, a}, &out); err != nil || !strings.Contains(out.String(), "run_s") {
		t.Errorf("same-host compare: %v, output %q", err, out.String())
	}
}

// TestSmoke runs every workload at small sizes, untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs launch processes and simulations")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := runConfig{Seed: 3, Seconds: 0.3, Trace: trace, Quick: true, OutDir: t.TempDir()}
				o, err := w.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if o.Failed != 0 || o.Attempted == 0 {
					t.Fatalf("%d of %d failed: %v", o.Failed, o.Attempted, o.Notes)
				}
				res, err := buildResult(o, trace)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
