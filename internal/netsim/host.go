package netsim

import (
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// Host is an endpoint attached to a router. Incoming packets are handed to
// the Recv callback; outgoing packets enter the network at the host's
// router. A nil Recv silently sinks traffic (delivery is still counted).
type Host struct {
	net  *Network
	Node int
	Addr packet.Addr
	Recv func(now sim.Time, pkt *packet.Packet)

	// Delivered counts packets handed to this host by kind.
	Delivered [5]uint64
	// DeliveredBytes counts delivered bytes by kind.
	DeliveredBytes [5]uint64
}

// Sim returns the simulation the host lives in, so host behaviours
// (servers, protocol state machines) can schedule their own events.
func (h *Host) Sim() *sim.Simulation { return h.net.Sim }

// Send injects pkt into the network at the host's router, stamping the
// simulator metadata (Origin, ID) and defaulting TTL/Size if unset. The
// source address is taken from the packet as-is: spoofing is simply writing
// somebody else's address, exactly as on the real Internet.
func (h *Host) Send(now sim.Time, pkt *packet.Packet) {
	if pkt.TTL == 0 {
		pkt.TTL = packet.DefaultTTL
	}
	if pkt.Size == 0 {
		pkt.Size = packet.MinHeaderBytes
	}
	pkt.Origin = h.Node
	pkt.ID = h.net.nextID
	h.net.nextID++
	h.net.Stats.addSent(pkt)
	h.net.inject(now, pkt, h.Node, Local)
}

// SendBatch injects a burst of packets at the host's router in one batch:
// stamping and accounting match len(pkts) Send calls, but the router's
// hook phase runs batched (see Network.InjectBatch), letting the adaptive
// device amortize its pipeline lookup across the burst.
func (h *Host) SendBatch(now sim.Time, pkts []*packet.Packet) {
	for _, pkt := range pkts {
		if pkt.TTL == 0 {
			pkt.TTL = packet.DefaultTTL
		}
		if pkt.Size == 0 {
			pkt.Size = packet.MinHeaderBytes
		}
		pkt.Origin = h.Node
		pkt.ID = h.net.nextID
		h.net.nextID++
		h.net.Stats.addSent(pkt)
	}
	h.net.InjectBatch(now, pkts, h.Node, Local)
}

// deliver records and dispatches an incoming packet.
func (h *Host) deliver(now sim.Time, pkt *packet.Packet) {
	if int(pkt.Kind) < len(h.Delivered) {
		h.Delivered[pkt.Kind]++
		h.DeliveredBytes[pkt.Kind] += uint64(pkt.Size)
	}
	if h.Recv != nil {
		h.Recv(now, pkt)
	}
}

// Server models a host with finite processing capacity: each accepted
// packet occupies the server for ServiceTime; at most QueueCap requests
// may wait. Overload drops are what make a DDoS succeed even when the
// uplink is uncongested — the pushback failure mode of experiment E3.
type Server struct {
	Host        *Host
	ServiceTime sim.Time
	QueueCap    int

	// OnServe is called when a request completes service. Reflector and
	// web-server behaviour (sending replies) is implemented here.
	OnServe func(now sim.Time, pkt *packet.Packet)

	// OnOverload is called for each request dropped at a full queue,
	// after overload accounting. The packet is dead at that point, so
	// pooled-traffic scenarios recycle it here (PutPacket); leave nil to
	// let dropped requests fall to the garbage collector.
	OnOverload func(now sim.Time, pkt *packet.Packet)

	busyUntil sim.Time
	queued    int

	// Served counts completed requests by kind; Overloaded counts
	// requests dropped because the queue was full.
	Served     [5]uint64
	Overloaded [5]uint64
}

// NewServer attaches server semantics to a fresh host on node.
func (n *Network) NewServer(node int, serviceTime sim.Time, queueCap int) (*Server, error) {
	h, err := n.AttachHost(node)
	if err != nil {
		return nil, err
	}
	s := &Server{Host: h, ServiceTime: serviceTime, QueueCap: queueCap}
	h.Recv = s.recv
	return s, nil
}

func (s *Server) recv(now sim.Time, pkt *packet.Packet) {
	if s.queued >= s.QueueCap {
		if int(pkt.Kind) < len(s.Overloaded) {
			s.Overloaded[pkt.Kind]++
		}
		s.Host.net.Stats.addOverload(pkt)
		if s.OnOverload != nil {
			s.OnOverload(now, pkt)
		}
		return
	}
	s.queued++
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	done := start + s.ServiceTime
	s.busyUntil = done
	s.Host.net.Sim.At(done, s.Host.net.newServe(s, pkt))
}

// serveEvent is a pooled completion event for one accepted request.
// Recycled through Network.servePool so accepting a request does not
// allocate a closure per packet.
type serveEvent struct {
	srv *Server
	pkt *packet.Packet
}

// Fire implements sim.Event.
func (e *serveEvent) Fire(now sim.Time) {
	s, pkt := e.srv, e.pkt
	e.srv, e.pkt = nil, nil
	s.Host.net.servePool = append(s.Host.net.servePool, e)
	s.queued--
	if int(pkt.Kind) < len(s.Served) {
		s.Served[pkt.Kind]++
	}
	if s.OnServe != nil {
		s.OnServe(now, pkt)
	}
}

func (n *Network) newServe(s *Server, pkt *packet.Packet) *serveEvent {
	if k := len(n.servePool); k > 0 {
		e := n.servePool[k-1]
		n.servePool = n.servePool[:k-1]
		e.srv, e.pkt = s, pkt
		return e
	}
	return &serveEvent{srv: s, pkt: pkt}
}

// Utilization returns the fraction of time [0, now] the server was busy,
// approximated by served work over elapsed time.
func (s *Server) Utilization(now sim.Time) float64 {
	if now == 0 {
		return 0
	}
	var total uint64
	for _, v := range s.Served {
		total += v
	}
	return float64(total) * float64(s.ServiceTime) / float64(now)
}
