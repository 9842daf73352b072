package hybrid

import (
	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
)

// Injector is a fluid->packet boundary converter: it materializes the
// per-client fluid rates crossing one (entry node, ingress neighbor)
// boundary as a deterministic packet arrival schedule. Each member client
// emits constant-bit-rate packets at its fluid rate with a random initial
// phase drawn from a boundary-keyed RNG substream, so schedules are
// byte-identical for a fixed seed regardless of worker count or of the
// order boundaries are armed in (the same discipline internal/sweep uses
// for points).
//
// One re-armed pooled event drives the whole boundary: members wait in an
// index min-heap keyed by next emission time, all members due at the
// heap-minimum instant are emitted as one InjectExternal batch, and the
// event re-schedules itself at the new minimum. Steady-state emission
// allocates nothing beyond netsim's packet pool.
type Injector struct {
	net  *netsim.Network
	cl   *Clients
	node int // in-cone entry router
	from int // out-of-cone ingress neighbor, or netsim.Local

	members []int32    // client indices crossing this boundary
	next    []sim.Time // per member slot: next emission time
	ival    []sim.Time // per member slot: emission interval
	heap    []int32    // member slots, min-heap by (next, client index)
	stop    sim.Time   // no emissions after this instant

	batch []*packet.Packet // scratch for one instant's burst

	// Emitted counts packets materialized at this boundary, by kind.
	Emitted [5]uint64
	// EmittedBytes counts materialized bytes by kind.
	EmittedBytes [5]uint64
}

// arm seeds every member's phase from the boundary substream and
// schedules the first emission. Members whose scaled rate is not positive
// are left out. Called once by World.Start, which carves buf (length
// 2*len(members)) from one pool shared by all injectors.
func (in *Injector) arm(rng *sim.RNG, scale *[5]float64, start, stop sim.Time, buf []sim.Time) {
	in.stop = stop
	n := len(in.members)
	in.next, in.ival = buf[:n:n], buf[n:]
	in.heap = in.heap[:0]
	for s, m := range in.members {
		rate := float64(in.cl.rate[m]) * scale[in.cl.kind[m]]
		if rate <= 0 {
			in.next[s] = stop + 1
			continue
		}
		ival := sim.Time(float64(sim.Second) / rate)
		if ival < 1 {
			ival = 1
		}
		in.ival[s] = ival
		in.next[s] = start + sim.Time(rng.Float64()*float64(ival))
		if in.next[s] <= in.stop {
			in.push(int32(s))
		}
	}
	if len(in.heap) > 0 {
		in.net.Sim.At(in.next[in.heap[0]], in)
	}
}

// Fire implements sim.Event: emit every member due now, advance their
// clocks, re-arm at the new minimum.
func (in *Injector) Fire(now sim.Time) {
	batch := in.batch[:0]
	for len(in.heap) > 0 {
		s := in.heap[0]
		if in.next[s] != now {
			break
		}
		m := in.members[s]
		pkt := in.net.GetPacket()
		pkt.Src = in.cl.spoof[m]
		if pkt.Src == 0 {
			pkt.Src = in.cl.Addr(int(m))
		}
		pkt.Dst = in.cl.dst[m]
		pkt.Size = int(in.cl.size[m])
		pkt.Kind = packet.Kind(in.cl.kind[m])
		pkt.TTL = packet.DefaultTTL
		pkt.Origin = int(in.cl.node[m])
		batch = append(batch, pkt)
		if k := int(pkt.Kind); k < len(in.Emitted) {
			in.Emitted[k]++
			in.EmittedBytes[k] += uint64(pkt.Size)
		}
		if in.next[s] += in.ival[s]; in.next[s] <= in.stop {
			in.fix(0)
		} else {
			in.pop()
		}
	}
	if len(batch) > 0 {
		in.net.InjectExternal(now, batch, in.node, in.from)
	}
	in.batch = batch[:0]
	if len(in.heap) > 0 {
		in.net.Sim.At(in.next[in.heap[0]], in)
	}
}

// less orders member slots by (next emission, client index): the tie on
// client index pins same-instant emission order independent of heap
// history.
func (in *Injector) less(a, b int32) bool {
	if in.next[a] != in.next[b] {
		return in.next[a] < in.next[b]
	}
	return in.members[a] < in.members[b]
}

func (in *Injector) push(s int32) {
	in.heap = append(in.heap, s)
	i := len(in.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !in.less(in.heap[i], in.heap[p]) {
			break
		}
		in.heap[i], in.heap[p] = in.heap[p], in.heap[i]
		i = p
	}
}

func (in *Injector) pop() {
	last := len(in.heap) - 1
	in.heap[0] = in.heap[last]
	in.heap = in.heap[:last]
	if last > 0 {
		in.fix(0)
	}
}

// fix restores the heap property downward from slot i.
func (in *Injector) fix(i int) {
	n := len(in.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && in.less(in.heap[l], in.heap[small]) {
			small = l
		}
		if r < n && in.less(in.heap[r], in.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		in.heap[i], in.heap[small] = in.heap[small], in.heap[i]
		i = small
	}
}

// Absorber is the packet->fluid boundary converter: a hook on an
// out-of-cone shell node that terminates packets leaving the cone,
// aggregates them back into flow-level accounting, and recycles them.
// Every absorbed packet is delivered. It left the cone along its
// destination's shortest-path tree, so its fluid continuation is the rest
// of that shortest path, and it carries its sender's genuine address (the
// cone's exiting traffic is replies). Such traffic passes every
// route-based filter on the way: the no-false-positive property of Park &
// Lee's route-based filtering (DESIGN.md §12). Its onward fate is
// therefore reachability, which the path itself proves.
type Absorber struct {
	w *World

	// DeliveredPkts/DeliveredBytes count absorbed packets by kind.
	DeliveredPkts  [5]uint64
	DeliveredBytes [5]uint64
}

// Name implements netsim.Hook.
func (a *Absorber) Name() string { return "hybrid-absorber" }

// Process implements netsim.Hook. Packets arriving from inside the cone
// are absorbed (dropped from packet simulation, counted as DropFilter);
// traffic already outside the cone — there is none in a well-formed
// hybrid world, but hooks must be total — passes untouched.
func (a *Absorber) Process(now sim.Time, pkt *packet.Packet, ctx netsim.HookContext) netsim.Verdict {
	if ctx.From == netsim.Local || !a.w.Cone.Contains(ctx.From) {
		return netsim.Pass
	}
	k := int(pkt.Kind)
	if k >= 5 {
		k = 0
	}
	a.DeliveredPkts[k]++
	a.DeliveredBytes[k] += uint64(pkt.Size)
	return netsim.Drop
}

// applyResidual debits every in-cone directed link's bandwidth by the
// fluid background load crossing it, so packet-level queueing inside the
// cone sees the capacity the background traffic leaves behind. Each
// background flow is walked along its tree up to its fluid drop point
// (filters upstream of the cone shed load before it arrives); the
// aggregate bit-rate per in-cone directed link is then subtracted from
// the link's configured bandwidth, floored at 1% so a link can be
// saturated by background but never inverted.
func (w *World) applyResidual() error {
	if len(w.Cfg.Background) == 0 {
		return nil
	}
	load := map[[2]int]float64{}
	for i := range w.Cfg.Background {
		f := &w.Cfg.Background[i]
		tr, err := w.routes.TreeTo(f.To)
		if err != nil {
			return err
		}
		fate := w.Fluid.FateFrom(tr, f, f.From, f.From)
		limit := fate.DropHop
		if fate.Delivered {
			limit = -1
		}
		bits := f.Rate * float64(f.Size) * 8
		at := f.From
		for hop := 1; at != tr.Dst; hop++ {
			next := int(tr.Next[at])
			if next == routing.NoRoute || (limit >= 0 && hop > limit) {
				break
			}
			if w.Cone.Contains(at) && w.Cone.Contains(next) {
				load[[2]int{at, next}] += bits
			}
			at = next
		}
	}
	for l, bits := range load {
		cfg := w.Cfg.Link
		cfg.Bandwidth -= bits
		if floor := w.Cfg.Link.Bandwidth * 0.01; cfg.Bandwidth < floor {
			cfg.Bandwidth = floor
		}
		if err := w.net.SetLinkConfig(l[0], l[1], cfg); err != nil {
			return err
		}
	}
	return nil
}
