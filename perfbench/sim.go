package main

import (
	"fmt"
	"time"

	"dtc/internal/netsim"
)

// simRep is what one repetition of a simulation workload measured.
type simRep struct {
	setupS, runS float64
	peakHeap     uint64 // bytes

	stats  netsim.Stats
	fired  uint64
	builds int
	hits   uint64
	detail string // workload outputs (table rows, server counts, ...)

	layers map[string]float64 // workload-specific per-layer figures
}

// fingerprint is the simulated outcome: equal on every repetition and on
// the traced pass, or the workload is not deterministic (or tracing
// changed it).
func (r *simRep) fingerprint() string {
	return fmt.Sprintf("%+v|%d|%d|%s", r.stats, r.fired, r.builds, r.detail)
}

// checkConserved checks that after draining every packet that entered
// the engine was delivered or dropped.
func checkConserved(o *outcome, name string, s *netsim.Stats) {
	sent := sentTotal(s)
	var fates uint64
	for k := range s.Sent {
		fates += s.Delivered[k].Packets
		for r := range s.Drops {
			fates += s.Drops[r][k].Packets
		}
	}
	o.check(sent > 0, "%s: no packets entered the engine", name)
	o.check(sent == fates, "%s: %d packets sent but %d delivered or dropped after draining", name, sent, fates)
}

// runSimWorkload repeats pass — one repetition, which also applies the
// workload's output checks to o — as often as fits in cfg.Seconds (at
// least once) and reports the figures. A traced run makes one untraced
// repetition and one traced one and reports the layers.
func runSimWorkload(cfg runConfig, name string, pass func(tr *tracer, o *outcome) (*simRep, error)) (*outcome, error) {
	o := newOutcome()
	var reps []*simRep
	start := time.Now()
	var last float64 // wall time of the latest repetition
	// Start another repetition only while it fits in the measuring time.
	for len(reps) == 0 || (!cfg.Trace && time.Since(start).Seconds()+last <= cfg.Seconds) {
		t0 := time.Now()
		r, err := pass(nil, o)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0).Seconds()
		if len(reps) > 0 {
			o.check(r.fingerprint() == reps[0].fingerprint(), "%s: repetition %d counters differ from the first repetition's (routing builds %d vs %d)",
				name, len(reps), r.builds, reps[0].builds)
		}
		reps = append(reps, r)
	}
	// run_s is the fastest repetition: on a shared host other tenants'
	// cache traffic only ever slows a repetition, and the minimum over a
	// run's repetitions is the figure least disturbed by it (their median
	// is printed alongside). Set-up and heap take the median.
	var setup, run, heap []float64
	fastest := reps[0]
	for _, r := range reps {
		setup = append(setup, r.setupS)
		run = append(run, r.runS)
		heap = append(heap, float64(r.peakHeap)/(1<<20))
		if r.runS < fastest.runS {
			fastest = r
		}
	}
	tput := float64(sentTotal(&fastest.stats)) / fastest.runS
	o.EndToEnd["setup_s"] = median(setup)
	o.EndToEnd["run_s"] = fastest.runS
	o.EndToEnd["run_median_s"] = median(run)
	o.EndToEnd["throughput_per_s"] = tput
	o.EndToEnd["peak_heap_mb"] = median(heap)
	o.EndToEnd["sim_pkts_per_s"] = tput
	o.EndToEnd["repetitions_n"] = float64(len(reps))
	if !cfg.Trace {
		return o, nil
	}

	tr := newTracer()
	tp, err := pass(tr, o)
	if err != nil {
		return nil, err
	}
	up := reps[0]
	o.check(tp.fingerprint() == up.fingerprint(), "%s: traced counters differ from untraced ones", name)

	L := o.Layers
	for k, v := range tp.layers {
		L[k] = v
	}
	L["sim_pkts_per_s"] = o.EndToEnd["sim_pkts_per_s"]
	L["tracing_overhead_s"] = tp.runS - up.runS
	L["routing.builds"] = float64(tp.builds)
	L["routing.hits"] = float64(tp.hits)
	L["routing.build_useful_ratio"] = ratio(float64(tr.routingDsts), float64(tp.builds))
	L["routing.self_s"] = float64(tr.routingNs) / 1e9

	s := &tp.stats
	sent := sentTotal(s)
	var delivered, byteHops uint64
	for k := range s.Sent {
		delivered += s.Delivered[k].Packets
		byteHops += s.ByteHops[k]
	}
	L["sim.events"] = float64(tp.fired)
	L["sim.ns_per_event"] = ratio(tp.runS*1e9, float64(tp.fired))
	L["netsim.pkts_sent"] = float64(sent)
	L["netsim.pkts_delivered"] = float64(delivered)
	L["netsim.byte_hops"] = float64(byteHops)
	for _, r := range []netsim.DropReason{netsim.DropQueue, netsim.DropFilter, netsim.DropTTL, netsim.DropNoRoute, netsim.DropNoHost} {
		L["netsim.drops."+r.String()] = float64(s.DropTotal(r))
	}
	L["netsim.ns_per_pkt"] = ratio(tp.runS*1e9, float64(sent))

	L["device.calls"] = float64(tr.hookCalls)
	L["device.self_ns_per_call"] = ratio(float64(tr.hookNs), float64(tr.hookCalls))
	L["device.drop_ratio"] = ratio(float64(tr.hookDrops), float64(tr.hookCalls))
	L["failed_ratio"] = ratio(float64(o.Failed), float64(o.Attempted))
	o.Spans = tr.spans
	return o, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sentTotal(s *netsim.Stats) uint64 {
	var n uint64
	for _, kc := range s.Sent {
		n += kc.Packets
	}
	return n
}
