package main

import (
	"encoding/json"
	"os"
	"time"

	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
)

// The tracing in this file observes the program only from outside: it
// wraps the public routing.Source and netsim.Hook interfaces and records
// spans around the benchmark's own calls into each layer. The simulations
// are single-threaded (sweep workers = 1), so the tracer needs no locking.

// span is one timed phase: name, parent span index (-1 = root), and
// offsets from the tracer's start.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer accumulates layer time and counts for one traced pass. A nil
// *tracer is the untraced pass: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices

	routingNs    int64 // time inside routing.Source calls
	routingCalls uint64
	routingDsts  int // distinct destinations asked for

	hookNs    int64 // device-hook self time (routing time inside excluded)
	hookCalls uint64
	hookDrops uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one; end closes it.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedRoutes wraps a routing.Source, timing the calls the packet engine
// and the devices make into it.
type timedRoutes struct {
	routing.Source
	t    *tracer
	seen []bool // destinations asked for, to count distinct ones
}

func (r *timedRoutes) note(dst int) {
	if dst >= 0 && dst < len(r.seen) && !r.seen[dst] {
		r.seen[dst] = true
		r.t.routingDsts++
	}
}

func (r *timedRoutes) TreeTo(dst int) (*routing.Tree, error) {
	t0 := time.Now()
	tr, err := r.Source.TreeTo(dst)
	r.t.routingNs += time.Since(t0).Nanoseconds()
	r.t.routingCalls++
	r.note(dst)
	return tr, err
}

func (r *timedRoutes) NextHop(cur, dst int) (int, bool) {
	t0 := time.Now()
	n, ok := r.Source.NextHop(cur, dst)
	r.t.routingNs += time.Since(t0).Nanoseconds()
	r.t.routingCalls++
	r.note(dst)
	return n, ok
}

func (r *timedRoutes) FeasibleIngress(at, from, src int) bool {
	t0 := time.Now()
	ok := r.Source.FeasibleIngress(at, from, src)
	r.t.routingNs += time.Since(t0).Nanoseconds()
	r.t.routingCalls++
	r.note(src)
	return ok
}

// Prebuild forwards the batch tree construction hybrid.NewWorld looks for,
// so the traced pass builds trees exactly as the untraced one does.
func (r *timedRoutes) Prebuild(dsts []int, workers int) error {
	pb, ok := r.Source.(interface{ Prebuild([]int, int) error })
	if !ok {
		return nil
	}
	t0 := time.Now()
	err := pb.Prebuild(dsts, workers)
	r.t.routingNs += time.Since(t0).Nanoseconds()
	for _, d := range dsts {
		r.note(d)
	}
	return err
}

// routesFor returns src itself untraced, or wrapped in a timer over a
// graph of nNodes nodes.
func (t *tracer) routesFor(src routing.Source, nNodes int) routing.Source {
	if t == nil {
		return src
	}
	return &timedRoutes{Source: src, t: t, seen: make([]bool, nNodes)}
}

// timedHook wraps a netsim.Hook. Time spent in routing while the hook
// runs (reverse-path checks) is subtracted, leaving the hook's self time.
type timedHook struct {
	inner netsim.Hook
	t     *tracer
}

func (h *timedHook) Name() string { return h.inner.Name() }

func (h *timedHook) Process(now sim.Time, pkt *packet.Packet, ctx netsim.HookContext) netsim.Verdict {
	r0 := h.t.routingNs
	t0 := time.Now()
	v := h.inner.Process(now, pkt, ctx)
	h.t.hookNs += time.Since(t0).Nanoseconds() - (h.t.routingNs - r0)
	h.t.hookCalls++
	if v == netsim.Drop {
		h.t.hookDrops++
	}
	return v
}

// timedBatchHook additionally forwards ProcessBatch, so a wrapped batch
// hook keeps its batched path (netsim dispatches on the interface).
type timedBatchHook struct {
	timedHook
	batch netsim.BatchHook
}

func (h *timedBatchHook) ProcessBatch(now sim.Time, pkts []*packet.Packet, ctx netsim.HookContext, keep []bool) {
	r0 := h.t.routingNs
	t0 := time.Now()
	h.batch.ProcessBatch(now, pkts, ctx, keep)
	h.t.hookNs += time.Since(t0).Nanoseconds() - (h.t.routingNs - r0)
	h.t.hookCalls += uint64(len(pkts))
	for _, k := range keep[:len(pkts)] {
		if !k {
			h.t.hookDrops++
		}
	}
}

func (t *tracer) wrapHook(h netsim.Hook) netsim.Hook {
	th := timedHook{inner: h, t: t}
	if b, ok := h.(netsim.BatchHook); ok {
		return &timedBatchHook{timedHook: th, batch: b}
	}
	return &th
}

// wrapHooks replaces every hook on the given nodes of net by its timed
// wrapper, keeping order. It uses only the public hook API: each hook is
// removed by name (first match, so duplicates come off in order) and the
// wrappers, which report the same names, are appended back.
func (t *tracer) wrapHooks(net *netsim.Network, nodes []int) {
	if t == nil {
		return
	}
	for _, node := range nodes {
		hooks := append([]netsim.Hook(nil), net.Hooks(node)...)
		for _, h := range hooks {
			net.RemoveHook(node, h.Name())
		}
		for _, h := range hooks {
			net.AddHook(node, t.wrapHook(h))
		}
	}
}
