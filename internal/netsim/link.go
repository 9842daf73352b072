package netsim

import (
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// LinkStats counts traffic on one directed link.
type LinkStats struct {
	Packets    uint64
	Bytes      uint64
	QueueDrops uint64
	// BytesByKind attributes carried bytes to traffic classes so
	// experiments can compute wasted (attack) bandwidth per link.
	BytesByKind [5]uint64
}

// link is one direction of an edge: a serializing transmitter with a
// drop-tail queue, modelled with virtual time rather than explicit queue
// objects: busyUntil tracks when the transmitter frees up, queued tracks
// occupancy for the drop-tail bound.
type link struct {
	net       *Network
	from, to  int
	cfg       LinkConfig
	busyUntil sim.Time
	queued    int
	stats     LinkStats
}

// dequeueEvent marks the end of a packet's serialization: the packet
// leaves the drop-tail queue and begins propagation. Instances are
// recycled through Network.dqPool so steady-state forwarding allocates
// nothing per hop.
type dequeueEvent struct{ l *link }

// Fire implements sim.Event.
func (e *dequeueEvent) Fire(now sim.Time) {
	l := e.l
	e.l = nil
	l.net.dqPool = append(l.net.dqPool, e)
	l.queued--
}

// arrivalEvent carries a forwarded packet across a link's propagation
// delay and injects it at the far router. Recycled through Network.arrPool.
type arrivalEvent struct {
	l   *link
	pkt *packet.Packet
}

// Fire implements sim.Event.
func (e *arrivalEvent) Fire(now sim.Time) {
	l, pkt := e.l, e.pkt
	e.l, e.pkt = nil, nil
	l.net.arrPool = append(l.net.arrPool, e)
	l.net.inject(now, pkt, l.to, l.from)
}

func (n *Network) newDequeue(l *link) *dequeueEvent {
	if k := len(n.dqPool); k > 0 {
		e := n.dqPool[k-1]
		n.dqPool = n.dqPool[:k-1]
		e.l = l
		return e
	}
	return &dequeueEvent{l: l}
}

func (n *Network) newArrival(l *link, pkt *packet.Packet) *arrivalEvent {
	if k := len(n.arrPool); k > 0 {
		e := n.arrPool[k-1]
		n.arrPool = n.arrPool[:k-1]
		e.l, e.pkt = l, pkt
		return e
	}
	return &arrivalEvent{l: l, pkt: pkt}
}

// txTime returns the serialization time of sz bytes at the link rate.
func (l *link) txTime(sz int) sim.Time {
	return sim.Time(float64(sz*8) / l.cfg.Bandwidth * float64(sim.Second))
}

// send enqueues pkt for transmission; drops it if the queue is full.
func (l *link) send(now sim.Time, pkt *packet.Packet) {
	if l.queued >= l.cfg.QueueCap {
		l.net.drop(now, pkt, DropQueue, l.from)
		l.stats.QueueDrops++
		return
	}
	l.queued++
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done := start + l.txTime(pkt.Size)
	l.busyUntil = done

	l.stats.Packets++
	l.stats.Bytes += uint64(pkt.Size)
	if int(pkt.Kind) < len(l.stats.BytesByKind) {
		l.stats.BytesByKind[pkt.Kind] += uint64(pkt.Size)
	}
	l.net.Stats.addHop(pkt)

	// Absolute scheduling: `now` may legitimately lie ahead of the
	// simulation clock when callers pre-inject future traffic. The two
	// events (dequeue at serialization end, arrival one propagation delay
	// later) come from free lists rather than fresh closures.
	l.net.Sim.At(done, l.net.newDequeue(l))
	l.net.Sim.At(done+l.cfg.Delay, l.net.newArrival(l, pkt))
}
