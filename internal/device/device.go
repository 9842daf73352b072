package device

import (
	"fmt"
	"sort"

	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// service is one installed per-owner service graph plus its health state.
type service struct {
	owner       string
	stage       Stage
	graph       frozen // private copy taken at install time
	enabled     bool
	quarantined bool
	processed   uint64
	discarded   uint64
}

// Stats aggregates device-level counters (paper §5.3 scalability metrics).
type Stats struct {
	Seen        uint64 // packets entering the router
	Redirected  uint64 // packets redirected through the device
	Discarded   uint64 // packets discarded by owner graphs
	Violations  uint64 // safety-rule violations caught at runtime
	Quarantines uint64 // services disabled after a violation
}

// pipeKey identifies a fused two-stage pipeline: the source-address owner
// and destination-address owner of a packet, "" when that side is unbound.
// BindOwner rejects empty owner names, so "" is unambiguous.
type pipeKey struct {
	src, dst string
}

// pipeline is the cached result of resolving a pipeKey against the service
// table: the runnable source-stage and dest-stage services, nil when that
// side has nothing to run (unbound, uninstalled, disabled or quarantined).
// Entries are invalidated wholesale on any control-plane change.
type pipeline struct {
	src, dst *service
}

// Device is an adaptive traffic processing device attached to one router
// (paper Figure 2/6). It dispatches each redirected packet through up to
// two owner service graphs: the source owner's, then the destination
// owner's. The two stages are fused into a per-(srcOwner, dstOwner)
// pipeline cache, so the steady-state redirected path is one cache hit
// plus a walk of each stage's frozen graph, with zero allocations.
type Device struct {
	Node int

	reg      *Registry
	owners   ownership.Trie[string] // prefix -> owner: the redirection filter
	services map[string][numStages]*service
	pipes    map[pipeKey]*pipeline
	gen      uint64 // bumped on every pipeline invalidation
	rpf      RPFChecker
	bus      func(Event)
	rng      *sim.RNG
	stats    Stats
	epoch    uint64 // bumped by Reset; lets the NMS detect a restart
	env      Env    // reused per stage run; devices are single-threaded
}

// New creates a device for a router node, validating installs against reg.
func New(node int, reg *Registry, rng *sim.RNG) *Device {
	return &Device{
		Node:     node,
		reg:      reg,
		services: make(map[string][numStages]*service),
		pipes:    make(map[pipeKey]*pipeline),
		rng:      rng,
	}
}

// Reset models a device crash and restart: every installed service, owner
// binding, cached pipeline and counter is lost, exactly as a process
// restart would lose them. Configuration handles (registry, RPF context,
// event bus, RNG) survive — they model the device's firmware, not its
// state. The boot epoch is bumped so the managing NMS can detect the
// restart and replay its install journal.
func (d *Device) Reset() {
	d.services = make(map[string][numStages]*service)
	d.owners = ownership.Trie[string]{}
	d.stats = Stats{}
	d.epoch++
	d.invalidate()
}

// Epoch returns the device's boot generation: 0 at creation, incremented
// by every Reset.
func (d *Device) Epoch() uint64 { return d.epoch }

// SetRPF attaches operator-provided routing context used by anti-spoofing
// components.
func (d *Device) SetRPF(r RPFChecker) { d.rpf = r }

// SetEventBus attaches the control-plane event sink (trigger firings etc.).
func (d *Device) SetEventBus(fn func(Event)) { d.bus = fn }

// invalidate drops every cached pipeline after a control-plane change.
// The generation counter lets ProcessBatch notice invalidation mid-batch
// (a quarantine fired by the safety monitor) and re-resolve.
func (d *Device) invalidate() {
	d.gen++
	clear(d.pipes)
}

// BindOwner configures router redirection: packets whose source or
// destination falls in prefix are redirected through the device on behalf
// of owner. The TCSP only issues bindings after ownership verification.
func (d *Device) BindOwner(p packet.Prefix, owner string) error {
	if owner == "" {
		return fmt.Errorf("device: empty owner")
	}
	if cur, ok := d.owners.Exact(p); ok && cur != owner {
		return fmt.Errorf("device: prefix %v already bound to %q", p, cur)
	}
	d.owners.Insert(p, owner)
	return nil
}

// UnbindOwner removes a redirection binding.
func (d *Device) UnbindOwner(p packet.Prefix) { d.owners.Remove(p) }

// Install validates a service graph and installs a frozen copy of it for
// owner at stage, replacing any previous graph for that (owner, stage).
// The copy shares g's components, so their runtime state and parameters
// stay live, but later Add or Wire calls on g do not reach the device.
func (d *Device) Install(owner string, stage Stage, g *Graph) error {
	if owner == "" {
		return fmt.Errorf("device: empty owner")
	}
	if stage >= numStages {
		return fmt.Errorf("device: invalid stage %d", stage)
	}
	f, err := g.freeze(d.reg)
	if err != nil {
		return err
	}
	svcs := d.services[owner]
	svcs[stage] = &service{owner: owner, stage: stage, graph: f, enabled: true}
	d.services[owner] = svcs
	d.invalidate()
	return nil
}

// Remove uninstalls the (owner, stage) service.
func (d *Device) Remove(owner string, stage Stage) {
	if svcs, ok := d.services[owner]; ok {
		svcs[stage] = nil
		d.services[owner] = svcs
		d.invalidate()
	}
}

// SetEnabled enables or disables an installed service without removing it
// (used by triggers and by operators during routing changes, §4.2).
func (d *Device) SetEnabled(owner string, stage Stage, on bool) error {
	svcs, ok := d.services[owner]
	if !ok || svcs[stage] == nil {
		return fmt.Errorf("device: no service for %q stage %v", owner, stage)
	}
	svcs[stage].enabled = on
	d.invalidate()
	return nil
}

// ServiceCounters returns processed/discarded counts for an installed
// service, with ok=false if absent.
func (d *Device) ServiceCounters(owner string, stage Stage) (processed, discarded uint64, ok bool) {
	svcs, found := d.services[owner]
	if !found || svcs[stage] == nil {
		return 0, 0, false
	}
	return svcs[stage].processed, svcs[stage].discarded, true
}

// ServiceStatus is the externally visible state of one installed service,
// as reported through the telemetry pipeline.
type ServiceStatus struct {
	Owner       string
	Stage       Stage
	Processed   uint64
	Discarded   uint64
	Enabled     bool
	Quarantined bool
}

// Services lists every installed service sorted by (owner, stage) — the
// telemetry snapshot's canonical wire order.
func (d *Device) Services() []ServiceStatus {
	var out []ServiceStatus
	for owner, svcs := range d.services {
		for stage := Stage(0); stage < numStages; stage++ {
			if svc := svcs[stage]; svc != nil {
				out = append(out, ServiceStatus{
					Owner: owner, Stage: stage,
					Processed: svc.processed, Discarded: svc.discarded,
					Enabled: svc.enabled, Quarantined: svc.quarantined,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Quarantined reports whether the (owner, stage) service was disabled by
// the safety monitor.
func (d *Device) Quarantined(owner string, stage Stage) bool {
	svcs, ok := d.services[owner]
	return ok && svcs[stage] != nil && svcs[stage].quarantined
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// OwnerOf returns the owner bound for address a, if any.
func (d *Device) OwnerOf(a packet.Addr) (string, bool) {
	return d.owners.Compiled().Lookup(a)
}

// Process runs a packet through the device. It implements the semantics of
// netsim.Hook (the dtc facade adapts it) and returns true to forward,
// false to drop.
//
// Redirection rule (paper §4.1): only packets carrying a bound address as
// source or destination are redirected; everything else takes the fast
// path through the router untouched. The fast path is two first-octet
// bitmap tests; full longest-prefix lookups happen only when a binding
// could match.
func (d *Device) Process(now sim.Time, pkt *packet.Packet, from int) bool {
	d.stats.Seen++
	owners := d.owners.Compiled()
	if !owners.MayMatch(pkt.Src) && !owners.MayMatch(pkt.Dst) {
		return true // fast path
	}
	return d.redirect(now, pkt, from, owners)
}

// ProcessBatch runs a slice of packets through the device, writing each
// verdict (true = forward) to keep, which must be at least as long as
// pkts. It amortizes pipeline resolution across runs of packets sharing
// the same (srcOwner, dstOwner) key — the common case for a burst from
// one flow — and re-resolves if the safety monitor invalidates the cache
// mid-batch (a quarantine must take effect on the very next packet).
func (d *Device) ProcessBatch(now sim.Time, pkts []*packet.Packet, from int, keep []bool) {
	owners := d.owners.Compiled()
	var (
		haveKey bool
		lastKey pipeKey
		lastPl  *pipeline
		lastGen uint64
	)
	for i, pkt := range pkts {
		d.stats.Seen++
		if !owners.MayMatch(pkt.Src) && !owners.MayMatch(pkt.Dst) {
			keep[i] = true
			continue
		}
		key, ok := d.ownerKey(pkt, owners)
		if !ok {
			keep[i] = true
			continue
		}
		if !haveKey || key != lastKey || d.gen != lastGen {
			lastPl = d.pipelineFor(key)
			lastKey, lastGen, haveKey = key, d.gen, true
		}
		keep[i] = d.runPipeline(now, pkt, from, lastPl)
	}
}

// redirect handles the slow path: full owner lookups, pipeline cache hit,
// and up to two stage runs.
func (d *Device) redirect(now sim.Time, pkt *packet.Packet, from int, owners *ownership.Compiled[string]) bool {
	key, ok := d.ownerKey(pkt, owners)
	if !ok {
		return true
	}
	return d.runPipeline(now, pkt, from, d.pipelineFor(key))
}

// ownerKey resolves the owners of pkt's source and destination addresses.
// It reports false when neither is bound (the packet is not redirected);
// otherwise it counts the redirection and returns the pipeline key, with
// "" on an unbound side.
func (d *Device) ownerKey(pkt *packet.Packet, owners *ownership.Compiled[string]) (pipeKey, bool) {
	srcOwner, srcBound := owners.Lookup(pkt.Src)
	dstOwner, dstBound := owners.Lookup(pkt.Dst)
	if !srcBound && !dstBound {
		return pipeKey{}, false
	}
	d.stats.Redirected++
	return pipeKey{src: srcOwner, dst: dstOwner}, true
}

// runPipeline runs pkt through pl's source stage, then its dest stage
// unless the first discarded it, and returns the verdict.
func (d *Device) runPipeline(now sim.Time, pkt *packet.Packet, from int, pl *pipeline) bool {
	if pl.src != nil && !d.runService(now, pkt, from, pl.src) {
		return false
	}
	return pl.dst == nil || d.runService(now, pkt, from, pl.dst)
}

// pipelineFor returns the cached fused pipeline for key, resolving and
// caching it on a miss. Misses only happen after control-plane changes;
// the steady state is a single map hit.
func (d *Device) pipelineFor(key pipeKey) *pipeline {
	if pl, ok := d.pipes[key]; ok {
		return pl
	}
	pl := &pipeline{
		src: d.runnable(key.src, StageSource),
		dst: d.runnable(key.dst, StageDest),
	}
	d.pipes[key] = pl
	return pl
}

// runnable resolves (owner, stage) to a service that should process
// packets right now, or nil.
func (d *Device) runnable(owner string, stage Stage) *service {
	if owner == "" {
		return nil
	}
	svcs, ok := d.services[owner]
	if !ok || svcs[stage] == nil {
		return nil
	}
	svc := svcs[stage]
	if !svc.enabled || svc.quarantined {
		return nil
	}
	return svc
}

// runService executes one owner's graph under the runtime safety monitor.
func (d *Device) runService(now sim.Time, pkt *packet.Packet, from int, svc *service) bool {
	env := &d.env
	*env = Env{
		Now: now, Node: d.Node, From: from,
		Owner: svc.owner, Stage: svc.stage,
		RPF: d.rpf, Emit: d.bus, RNG: d.rng,
	}

	// Safety snapshot (paper §4.5): src/dst/TTL immutable, size must not
	// grow, simulator metadata untouchable.
	preSrc, preDst, preTTL, preSize := pkt.Src, pkt.Dst, pkt.TTL, pkt.Size

	svc.processed++
	res, capErr := svc.graph.run(pkt, env)

	violated := capErr != nil || pkt.Src != preSrc || pkt.Dst != preDst || pkt.TTL != preTTL ||
		pkt.Size > preSize || pkt.Validate() != nil
	if violated {
		// Revert the packet, quarantine the offending service, raise an
		// operator event. The packet continues unprocessed: safety rules
		// protect the network, not the misbehaving service.
		pkt.Src, pkt.Dst, pkt.TTL, pkt.Size = preSrc, preDst, preTTL, preSize
		if len(pkt.Payload) > pkt.Size-packet.MinHeaderBytes {
			pkt.Payload = pkt.Payload[:pkt.Size-packet.MinHeaderBytes]
		}
		d.stats.Violations++
		if !svc.quarantined {
			svc.quarantined = true
			d.stats.Quarantines++
			d.invalidate()
		}
		reason := "packet mutation outside policy"
		if capErr != nil {
			reason = capErr.Error()
		}
		env.EmitEvent("safety-monitor", fmt.Sprintf("service %q stage %v quarantined: %s", svc.owner, svc.stage, reason))
		return true
	}
	if res == Discard {
		svc.discarded++
		d.stats.Discarded++
		return false
	}
	return true
}
