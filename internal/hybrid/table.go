package hybrid

import (
	"fmt"

	"dtc/internal/netsim"
	"dtc/internal/packet"
)

// ClientSpec describes one modeled client endpoint.
type ClientSpec struct {
	Rate  float64     // sending rate, packets/second
	Size  int         // bytes per packet (1..65535)
	Kind  packet.Kind // traffic class of the packets it emits
	Dst   packet.Addr // destination address (its node must be in the cone)
	Spoof packet.Addr // source address to forge; 0 = genuine (own address)
}

// Clients is a structure-of-arrays table of modeled client endpoints —
// the memory-compact representation that lets a scenario carry millions
// of stub-AS clients without a Go object (let alone a netsim.Host) per
// client. Storage is six parallel slices plus a per-node base-offset
// index, ~20 bytes per client; addresses are derived, not stored.
//
// Clients must be added in non-decreasing node order (the natural order
// of placement sweeps) and the table sealed before use. After Seal the
// table is immutable and safe for concurrent readers.
type Clients struct {
	node  []int32       // owning topology node
	rate  []float32     // packets/second
	size  []uint16      // bytes/packet
	kind  []uint8       // packet.Kind
	dst   []packet.Addr // destination address
	spoof []packet.Addr // forged source, 0 = genuine

	base     []int32 // node -> first client index; len = nNodes+1 once sealed
	lastNode int
	sealed   bool
}

// NewClients returns an empty table over a topology of nNodes nodes.
// base[n] is appended lazily the moment node n's range starts (when a
// later node's first client arrives, or at Seal), so it always equals the
// table length at that instant.
func NewClients(nNodes int) *Clients {
	return &Clients{base: make([]int32, 0, nNodes+1), lastNode: -1}
}

// Add appends a client on the given node and returns its index. Nodes
// must arrive in non-decreasing order; a node may carry at most 65534
// clients (the host capacity of its /16 minus the router's .0).
func (c *Clients) Add(node int, spec ClientSpec) (int, error) {
	if c.sealed {
		return 0, fmt.Errorf("hybrid: Add after Seal")
	}
	if node < c.lastNode {
		return 0, fmt.Errorf("hybrid: clients must be added in node order (%d after %d)", node, c.lastNode)
	}
	if spec.Size < 1 || spec.Size > 65535 {
		return 0, fmt.Errorf("hybrid: client packet size %d out of range", spec.Size)
	}
	if spec.Rate <= 0 {
		return 0, fmt.Errorf("hybrid: client rate %g must be positive", spec.Rate)
	}
	for n := c.lastNode + 1; n <= node; n++ {
		c.base = append(c.base, int32(len(c.node)))
	}
	c.lastNode = node
	i := len(c.node)
	if lo := i - int(c.base[node]) + 1; lo > 0xfffe {
		return 0, fmt.Errorf("hybrid: node %d exceeds 65534 clients", node)
	}
	c.node = append(c.node, int32(node))
	c.rate = append(c.rate, float32(spec.Rate))
	c.size = append(c.size, uint16(spec.Size))
	c.kind = append(c.kind, uint8(spec.Kind))
	c.dst = append(c.dst, spec.Dst)
	c.spoof = append(c.spoof, spec.Spoof)
	return i, nil
}

// Seal freezes the table and completes the base index so Addr/Index work
// for every node. nNodes must match NewClients.
func (c *Clients) Seal(nNodes int) {
	for n := c.lastNode + 1; n <= nNodes; n++ {
		c.base = append(c.base, int32(len(c.node)))
	}
	c.sealed = true
}

// Len returns the number of clients.
func (c *Clients) Len() int { return len(c.node) }

// Node returns client i's topology node.
func (c *Clients) Node(i int) int { return int(c.node[i]) }

// Spec reconstructs client i's full description.
func (c *Clients) Spec(i int) ClientSpec {
	return ClientSpec{
		Rate:  float64(c.rate[i]),
		Size:  int(c.size[i]),
		Kind:  packet.Kind(c.kind[i]),
		Dst:   c.dst[i],
		Spoof: c.spoof[i],
	}
}

// Addr returns client i's address without storing it: the k-th client on
// a node owns host address k+1 in the node's /16 — exactly the address
// netsim.AttachHost would assign if the node's clients were attached as
// real hosts in index order, which is how World materializes in-cone
// clients. Call after Seal.
func (c *Clients) Addr(i int) packet.Addr {
	node := c.node[i]
	lo := uint64(int32(i)-c.base[node]) + 1
	return netsim.NodePrefix(int(node)).Nth(lo)
}

// Index is the inverse of Addr: the client index owning address a, if
// any. Call after Seal.
func (c *Clients) Index(a packet.Addr) (int, bool) {
	node := uint32(a) >> 16
	if int(node) >= len(c.base)-1 {
		return 0, false
	}
	lo := uint32(a) & 0xffff
	if lo == 0 {
		return 0, false
	}
	i := int(c.base[node]) + int(lo) - 1
	if i >= int(c.base[node+1]) {
		return 0, false
	}
	return i, true
}

// Bytes returns the measured footprint of the table's backing arrays —
// the bytes-per-host number BenchmarkHybridMemory reports.
func (c *Clients) Bytes() uint64 {
	return uint64(cap(c.node))*4 +
		uint64(cap(c.rate))*4 +
		uint64(cap(c.size))*2 +
		uint64(cap(c.kind))*1 +
		uint64(cap(c.dst))*4 +
		uint64(cap(c.spoof))*4 +
		uint64(cap(c.base))*4
}
