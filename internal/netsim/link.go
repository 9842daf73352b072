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
// objects: busyUntil tracks when the transmitter frees up, and q holds
// the packets between send and arrival while there are any.
type link struct {
	net       *Network
	from, to  int
	cfg       LinkConfig
	busyUntil sim.Time
	q         *inflight // nil while idle; pooled per Network
	stats     LinkStats
}

// inflight is a busy link's in-flight state. Arrivals wait in one FIFO,
// so the link holds a single heap entry however many packets it carries.
// The drop-tail backlog needs no events at all: a packet leaves the queue
// when its serialization ends, so the backlog is the number of dequeue
// keys the clock has not yet passed. send stamps a packet's dequeue key
// just before its arrival key, so an event ordered after that key sees
// the packet gone and one ordered before it sees it queued, even at the
// same instant.
type inflight struct {
	arr   *sim.FIFO
	dq    []sim.Key // dequeue keys in send order; dq[first:] not yet seen passed
	first int
}

// backlog drops the dequeue keys the clock has passed and returns how many
// packets are still queued for serialization.
func (q *inflight) backlog(s *sim.Simulation) int {
	for q.first < len(q.dq) && s.Passed(q.dq[q.first]) {
		q.first++
	}
	if q.first == len(q.dq) {
		q.dq, q.first = q.dq[:0], 0
	}
	return len(q.dq) - q.first
}

// pushDequeue records the dequeue key of a packet that entered the queue.
// Passed keys are slid out once they are at least half the slice, so it
// stays within about twice the queue capacity.
func (q *inflight) pushDequeue(k sim.Key) {
	if n := len(q.dq); n == cap(q.dq) && q.first >= n/2 {
		m := copy(q.dq, q.dq[q.first:])
		q.dq, q.first = q.dq[:m], 0
	}
	q.dq = append(q.dq, k)
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
	n := l.net
	n.arrPool = append(n.arrPool, e)
	// A link goes idle once nothing waits in its FIFO or its queue. (An
	// arrival that bypassed the FIFO, after a lowered Delay, may still be
	// on the heap; it carries its own packet and needs no state here.)
	if q := l.q; q != nil && q.arr.Len() == 0 && q.backlog(n.Sim) == 0 {
		l.q = nil
		n.qPool = append(n.qPool, q)
	}
	n.inject(now, pkt, l.to, l.from)
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

// busy returns l's in-flight state, taking one from the pool if l is idle.
func (l *link) busy() *inflight {
	if l.q == nil {
		n := l.net
		if k := len(n.qPool); k > 0 {
			l.q = n.qPool[k-1]
			n.qPool = n.qPool[:k-1]
		} else {
			l.q = &inflight{arr: n.Sim.NewFIFO()}
		}
	}
	return l.q
}

// txTime returns the serialization time of sz bytes at the link rate.
func (l *link) txTime(sz int) sim.Time {
	return sim.Time(float64(sz*8) / l.cfg.Bandwidth * float64(sim.Second))
}

// send enqueues pkt for transmission; drops it if the queue is full.
func (l *link) send(now sim.Time, pkt *packet.Packet) {
	q := l.busy()
	s := l.net.Sim
	if q.backlog(s) >= l.cfg.QueueCap {
		l.net.drop(now, pkt, DropQueue, l.from)
		l.stats.QueueDrops++
		return
	}
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

	// Absolute keys: `now` may legitimately lie ahead of the simulation
	// clock when callers pre-inject future traffic. The dequeue key (end
	// of serialization) is only ever compared against the clock; the
	// arrival, one propagation delay later, queues behind the link's
	// earlier arrivals.
	q.pushDequeue(s.Stamp(done))
	q.arr.Append(s.Stamp(done+l.cfg.Delay), l.net.newArrival(l, pkt))
}
