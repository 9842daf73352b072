package flowsim_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dtc/internal/flowsim"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// TestRouteContract pins Route's edge cases, each checked against the
// path-materializing oracle too.
func TestRouteContract(t *testing.T) {
	cut := func() *topology.Graph {
		g := topology.Line(4)
		g.RemoveEdge(1, 2)
		return g
	}
	cases := []struct {
		name   string
		g      *topology.Graph
		deploy []int
		flow   flowsim.Flow
		want   flowsim.Result
	}{
		{"from==to", topology.Line(4), nil,
			flowsim.Flow{From: 2, To: 2, Rate: 10, Size: 100, Src: flowsim.SrcUnallocated},
			flowsim.Result{Delivered: true, DropHop: -1}},
		{"from==to filtered at origin", topology.Line(4), []int{2},
			flowsim.Flow{From: 2, To: 2, Rate: 10, Size: 100, Src: flowsim.SrcUnallocated},
			flowsim.Result{DropHop: 0}},
		{"from==to own spoofed block", topology.Line(4), []int{2},
			flowsim.Flow{From: 2, To: 2, Rate: 10, Size: 100, Src: flowsim.SrcOfNode, SpoofNode: 2},
			flowsim.Result{Delivered: true, DropHop: -1}},
		{"from below range", topology.Line(4), nil,
			flowsim.Flow{From: -1, To: 3, Rate: 10, Size: 100, Src: flowsim.SrcGenuine},
			flowsim.Result{DropHop: 0}},
		{"from above range", topology.Line(4), nil,
			flowsim.Flow{From: 4, To: 3, Rate: 10, Size: 100, Src: flowsim.SrcGenuine},
			flowsim.Result{DropHop: 0}},
		{"from unreachable", cut(), nil,
			flowsim.Flow{From: 0, To: 3, Rate: 10, Size: 100, Src: flowsim.SrcGenuine},
			flowsim.Result{DropHop: 0}},
		{"reachable on a cut graph", cut(), nil,
			flowsim.Flow{From: 3, To: 2, Rate: 10, Size: 100, Src: flowsim.SrcGenuine},
			flowsim.Result{Delivered: true, DropHop: -1, ByteHops: 1000}},
	}
	for _, c := range cases {
		m := flowsim.New(c.g)
		if err := m.Deploy(c.deploy, true); err != nil {
			t.Fatal(err)
		}
		got, err := m.Route(&c.flow)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !flowsim.SameResult(got, c.want) {
			t.Errorf("%s: Route = %+v, want %+v", c.name, got, c.want)
		}
		if o, _ := m.OracleRoute(&c.flow); !flowsim.SameResult(got, o) {
			t.Errorf("%s: Route = %+v, oracle %+v", c.name, got, o)
		}
	}
}

// TestEvalBatchErrorsOnEarliestBadFlow: an out-of-range destination fails
// the batch with the earliest offending flow's error and a zero Sweep.
func TestEvalBatchErrorsOnEarliestBadFlow(t *testing.T) {
	g := topology.Line(5)
	m := flowsim.New(g)
	ok := flowsim.Flow{From: 0, To: 4, Rate: 1, Size: 1, Src: flowsim.SrcUnallocated}
	for _, bad := range [][2]int{{-5, 9}, {9, -5}} {
		flows := []flowsim.Flow{ok, {From: 0, To: bad[0], Rate: 1, Size: 1}, ok, {From: 0, To: bad[1], Rate: 1, Size: 1}}
		s, err := m.EvalBatch(flows)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("destination %d ", bad[0])) {
			t.Errorf("destinations %v: err = %v, want the error for %d", bad, err, bad[0])
		}
		if s != (flowsim.Sweep{}) {
			t.Errorf("destinations %v: partial sweep %+v on error", bad, s)
		}
	}
}

// TestRouteAndEvalBatchConcurrent: one Model, read-only after Deploy,
// serves Route and EvalBatch from several goroutines over a cold shared
// cache, and every answer equals the serial one.
func TestRouteAndEvalBatchConcurrent(t *testing.T) {
	g, err := topology.BarabasiAlbert(300, 2, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	flows := randomFlows(sim.NewRNG(6), g.Len(), 300)
	deploy := g.NodesByDegree()[:g.Len()/6]
	newModel := func() *flowsim.Model {
		m := flowsim.NewOnRoutes(g, routing.NewShared(g, nil))
		if err := m.Deploy(deploy, true); err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial := newModel()
	wantRes := make([]flowsim.Result, len(flows))
	for i := range flows {
		wantRes[i], _ = serial.Route(&flows[i])
	}
	wantSweep, err := serial.EvalBatch(flows)
	if err != nil {
		t.Fatal(err)
	}

	m := newModel()
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if w%2 == 0 {
					s, err := m.EvalBatch(flows)
					if err != nil || !flowsim.SameSweep(s, wantSweep) {
						errs[w] = fmt.Errorf("worker %d: EvalBatch = %+v, %v; want %+v", w, s, err, wantSweep)
						return
					}
					continue
				}
				for i := len(flows) - 1; i >= 0; i-- {
					r, err := m.Route(&flows[i])
					if err != nil || !flowsim.SameResult(r, wantRes[i]) {
						errs[w] = fmt.Errorf("worker %d flow %d: Route = %+v, %v; want %+v", w, i, r, err, wantRes[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// randomFlows draws n flows over an nodes-node graph across every source
// kind.
func randomFlows(rng *sim.RNG, nodes, n int) []flowsim.Flow {
	flows := make([]flowsim.Flow, n)
	for i := range flows {
		flows[i] = flowsim.Flow{
			From: rng.Intn(nodes),
			To:   rng.Intn(nodes),
			Rate: 1 + rng.Float64()*50,
			Size: 64 + rng.Intn(1400),
			Src:  flowsim.SourceKind(rng.Intn(3)),
		}
		if flows[i].Src == flowsim.SrcOfNode {
			flows[i].SpoofNode = rng.Intn(nodes)
		}
	}
	return flows
}

// runOracleTrial builds a random graph (power-law or transit-stub, with
// hop-count or symmetric integer weights), cuts some edges so that some
// origins become unreachable, deploys a random mix of strict and
// edge-only filters and checks Route and EvalBatch against the oracle bit
// for bit. A few flows start or end out of range.
func runOracleTrial(t *testing.T, seed uint64, nRaw, deployPct, strictPct, cuts uint8, weighted bool) {
	rng := sim.NewRNG(seed)
	var g *topology.Graph
	var err error
	if seed%2 == 0 {
		g, err = topology.BarabasiAlbert(4+int(nRaw)%150, 2, rng)
	} else {
		g, err = topology.TransitStub(2+int(nRaw)%6, 1+int(nRaw)/16%8, 0.4, rng)
	}
	if err != nil {
		t.Skip(err)
	}
	n := g.Len()
	for c := 0; c < int(cuts)%8; c++ {
		if e := g.Edges(); len(e) > 0 {
			k := e[rng.Intn(len(e))]
			g.RemoveEdge(k.A, k.B)
		}
	}
	var w routing.WeightFunc
	if weighted {
		w = func(a, b int) float64 {
			if a > b {
				a, b = b, a
			}
			return float64(1 + (uint64(a)*2654435761+uint64(b)*40503)%3)
		}
	}
	m := flowsim.NewOnRoutes(g, routing.NewShared(g, w))
	for v := 0; v < n; v++ {
		if rng.Intn(100) < int(deployPct)%101 {
			if err := m.Deploy([]int{v}, rng.Intn(100) < int(strictPct)%101); err != nil {
				t.Fatal(err)
			}
		}
	}
	flows := randomFlows(rng, n, 1+rng.Intn(64))
	for i := range flows {
		switch rng.Intn(40) {
		case 0:
			flows[i].From = -1 - rng.Intn(3)
		case 1:
			flows[i].From = n + rng.Intn(3)
		case 2:
			flows[i].To = n + rng.Intn(3)
		}
	}
	for i := range flows {
		got, gerr := m.Route(&flows[i])
		want, werr := m.OracleRoute(&flows[i])
		if (gerr == nil) != (werr == nil) || !flowsim.SameResult(got, want) {
			t.Fatalf("seed %d flow %+v: Route = %+v, %v; oracle %+v, %v", seed, flows[i], got, gerr, want, werr)
		}
	}
	got, gerr := m.EvalBatch(flows)
	want, werr := m.OracleEvaluate(flows)
	if werr != nil {
		want = flowsim.Sweep{}
	}
	if (gerr == nil) != (werr == nil) || !flowsim.SameSweep(got, want) {
		t.Fatalf("seed %d: EvalBatch = %+v, %v; oracle %+v, %v", seed, got, gerr, want, werr)
	}
}

func FuzzRouteMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(30), uint8(50), uint8(2), false)
	f.Add(uint64(2), uint8(120), uint8(90), uint8(0), uint8(0), true)
	f.Add(uint64(7), uint8(200), uint8(10), uint8(100), uint8(5), true)
	f.Add(uint64(42), uint8(3), uint8(100), uint8(50), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, deployPct, strictPct, cuts uint8, weighted bool) {
		runOracleTrial(t, seed, nRaw, deployPct, strictPct, cuts, weighted)
	})
}

// TestRouteMatchesOracle runs a deterministic sweep of the fuzz property
// in the normal test run (the fuzz target only replays its seeds there).
func TestRouteMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		runOracleTrial(t, seed, uint8(seed*37), uint8(seed*13), uint8(seed*29), uint8(seed), seed%3 == 0)
	}
}
