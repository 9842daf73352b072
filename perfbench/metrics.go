package main

import (
	"math"
	"runtime"
	"sort"
)

// metricDef names one reported figure. The same tables are written into
// BENCHMARK.json; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the median
}

// endToEnd are the user-visible metrics every workload reports with
// tracing off. Their meaning per workload is spelled out in README.md:
// run_s is one repetition of the simulated scenario or one 10-op
// reaction cycle of the control plane; throughput_per_s is packets
// entering the packet engine per host second (simulations) or signed
// control ops per second (control plane). The time bounds are wide
// because co-tenants on a small shared host move wall times by more than
// 10% between runs; the heap is deterministic to within 1%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it. The first block repeats the
// workload-specific end-to-end figures under their own names (taken from
// the untraced pass of the traced run), with sample counts.
var perLayer = []metricDef{
	{Name: "sim_pkts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ctl_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "install_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "install_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "install_n", Unit: "count", Better: "higher"},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "update_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "update_n", Unit: "count", Better: "higher"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "query_n", Unit: "count", Better: "higher"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tracing_overhead_s", Unit: "s", Better: "lower"},

	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "routing.builds", Unit: "count", Better: "lower"},
	{Name: "routing.hits", Unit: "count", Better: "higher"},
	{Name: "routing.build_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "routing.self_s", Unit: "s", Better: "lower"},
	{Name: "hybrid.clients_build_s", Unit: "s", Better: "lower"},
	{Name: "hybrid.new_world_s", Unit: "s", Better: "lower"},
	{Name: "hybrid.start_s", Unit: "s", Better: "lower"},
	{Name: "hybrid.emitted_pkts", Unit: "count", Better: "higher"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netsim.pkts_sent", Unit: "count", Better: "higher"},
	{Name: "netsim.pkts_delivered", Unit: "count", Better: "higher"},
	{Name: "netsim.byte_hops", Unit: "bytes", Better: "higher"},
	{Name: "netsim.drops.queue", Unit: "count", Better: "lower"},
	{Name: "netsim.drops.filter", Unit: "count", Better: "higher"},
	{Name: "netsim.drops.ttl", Unit: "count", Better: "lower"},
	{Name: "netsim.drops.noroute", Unit: "count", Better: "lower"},
	{Name: "netsim.drops.nohost", Unit: "count", Better: "lower"},
	{Name: "netsim.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "device.calls", Unit: "count", Better: "higher"},
	{Name: "device.self_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "device.drop_ratio", Unit: "ratio", Better: "higher"},
	{Name: "auth.sign_us", Unit: "us", Better: "lower"},
	{Name: "auth.verify_us", Unit: "us", Better: "lower"},
	{Name: "tcsp.handler_us.install", Unit: "us", Better: "lower"},
	{Name: "tcsp.handler_us.update", Unit: "us", Better: "lower"},
	{Name: "tcsp.handler_us.query", Unit: "us", Better: "lower"},
	{Name: "nms.handler_us.install", Unit: "us", Better: "lower"},
	{Name: "nms.handler_us.update", Unit: "us", Better: "lower"},
	{Name: "nms.handler_us.query", Unit: "us", Better: "lower"},
	{Name: "device.install_us", Unit: "us", Better: "lower"},
	{Name: "ctl.wire_wait_us.install", Unit: "us", Better: "lower"},
	{Name: "ctl.wire_wait_us.update", Unit: "us", Better: "lower"},
	{Name: "ctl.wire_wait_us.query", Unit: "us", Better: "lower"},
	{Name: "tcsp.reports", Unit: "count", Better: "higher"},
	{Name: "tcsp.ingest_drops", Unit: "count", Better: "lower"},
	{Name: "nms.delivered", Unit: "count", Better: "higher"},
	{Name: "nms.sent", Unit: "count", Better: "higher"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of the 0.99 quantile and the quantiles below
// it that still leave at least ten samples beyond them.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// liveHeap collects garbage and returns the bytes still reachable: the
// program's live heap at a phase boundary, independent of GC timing.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
