package netsim

import (
	"fmt"

	"dtc/internal/packet"
)

// DropReason classifies why the network discarded a packet.
type DropReason uint8

// Drop reasons.
const (
	DropQueue   DropReason = iota // drop-tail queue overflow
	DropFilter                    // discarded by a hook (device or baseline)
	DropTTL                       // TTL expired
	DropNoRoute                   // destination unreachable
	DropNoHost                    // destination address not bound to a host
	dropReasons                   // count sentinel
)

// String implements fmt.Stringer.
func (d DropReason) String() string {
	switch d {
	case DropQueue:
		return "queue"
	case DropFilter:
		return "filter"
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "noroute"
	case DropNoHost:
		return "nohost"
	default:
		return fmt.Sprintf("drop(%d)", uint8(d))
	}
}

// KindCount is a per-traffic-class counter pair.
type KindCount struct {
	Packets uint64
	Bytes   uint64
}

// Stats aggregates network-wide counters, all broken down by traffic class
// (packet.Kind) so experiments can separate legitimate goodput, attack
// load, reflector backscatter and control traffic.
type Stats struct {
	Sent      [5]KindCount              // packets injected by hosts
	Delivered [5]KindCount              // packets handed to destination hosts
	ByteHops  [5]uint64                 // sum over link traversals of packet size
	Drops     [dropReasons][5]KindCount // drops by reason and class
	Overload  [5]KindCount              // requests dropped by saturated servers
}

// NewStats returns zeroed statistics.
func NewStats() *Stats { return &Stats{} }

func kindIdx(p *packet.Packet) int {
	if int(p.Kind) < 5 {
		return int(p.Kind)
	}
	return 0
}

func (s *Stats) addSent(p *packet.Packet) {
	k := kindIdx(p)
	s.Sent[k].Packets++
	s.Sent[k].Bytes += uint64(p.Size)
}

func (s *Stats) addDelivered(p *packet.Packet) {
	k := kindIdx(p)
	s.Delivered[k].Packets++
	s.Delivered[k].Bytes += uint64(p.Size)
}

func (s *Stats) addHop(p *packet.Packet) {
	s.ByteHops[kindIdx(p)] += uint64(p.Size)
}

func (s *Stats) addDrop(p *packet.Packet, r DropReason) {
	k := kindIdx(p)
	s.Drops[r][k].Packets++
	s.Drops[r][k].Bytes += uint64(p.Size)
}

func (s *Stats) addOverload(p *packet.Packet) {
	k := kindIdx(p)
	s.Overload[k].Packets++
	s.Overload[k].Bytes += uint64(p.Size)
}

// Merge adds o's counters into s, folding several networks' statistics
// into one view (benchmarks sum per-world packet statistics with it);
// integer sums make the result independent of merge order.
func (s *Stats) Merge(o *Stats) {
	for k := range s.Sent {
		s.Sent[k].Packets += o.Sent[k].Packets
		s.Sent[k].Bytes += o.Sent[k].Bytes
		s.Delivered[k].Packets += o.Delivered[k].Packets
		s.Delivered[k].Bytes += o.Delivered[k].Bytes
		s.ByteHops[k] += o.ByteHops[k]
		s.Overload[k].Packets += o.Overload[k].Packets
		s.Overload[k].Bytes += o.Overload[k].Bytes
		for r := range s.Drops {
			s.Drops[r][k].Packets += o.Drops[r][k].Packets
			s.Drops[r][k].Bytes += o.Drops[r][k].Bytes
		}
	}
}

// DropTotal sums packet drops for a reason across classes.
func (s *Stats) DropTotal(r DropReason) uint64 {
	var t uint64
	for _, kc := range s.Drops[r] {
		t += kc.Packets
	}
	return t
}

// DeliveryRate returns delivered/sent packets for class k (1.0 when
// nothing was sent).
func (s *Stats) DeliveryRate(k packet.Kind) float64 {
	if s.Sent[k].Packets == 0 {
		return 1
	}
	return float64(s.Delivered[k].Packets) / float64(s.Sent[k].Packets)
}
