package modules

import (
	"dtc/internal/device"
	"dtc/internal/packet"
)

// Component type names.
const (
	TypeFilter       = "filter"
	TypeClassifier   = "classifier"
	TypeRateLimiter  = "ratelimit"
	TypeBlacklist    = "blacklist"
	TypeAntiSpoof    = "antispoof"
	TypePayloadScrub = "scrub"
	TypeLogger       = "logger"
	TypeStats        = "stats"
	TypeSampler      = "sampler"
	TypeTrigger      = "trigger"
	TypeSPIE         = "spie"
)

// Filter drops packets matching any of its rules (deny-list mode) or, when
// AllowMode is set, drops packets matching none (allow-list mode). It is
// the workhorse of the paper's distributed firewall application.
type Filter struct {
	Label     string
	Rules     []Match
	AllowMode bool

	Dropped uint64
	Passed  uint64
}

// Name implements device.Component.
func (f *Filter) Name() string { return f.Label }

// Type implements device.TypedComponent.
func (f *Filter) Type() string { return TypeFilter }

// Ports implements device.Component.
func (f *Filter) Ports() int { return 1 }

// Process implements device.Component.
func (f *Filter) Process(pkt *packet.Packet, _ *device.Env) (int, device.Result) {
	matched := false
	for i := range f.Rules {
		if f.Rules[i].Matches(pkt) {
			matched = true
			break
		}
	}
	if matched != f.AllowMode {
		f.Dropped++
		return 0, device.Discard
	}
	f.Passed++
	return 0, device.Forward
}

// Classifier routes packets by rule: the packet exits on port i+1 for the
// first matching rule i, or port 0 when no rule matches. Use it to build
// branching service graphs.
type Classifier struct {
	Label string
	Rules []Match
}

// Name implements device.Component.
func (c *Classifier) Name() string { return c.Label }

// Type implements device.TypedComponent.
func (c *Classifier) Type() string { return TypeClassifier }

// Ports implements device.Component.
func (c *Classifier) Ports() int { return len(c.Rules) + 1 }

// Process implements device.Component.
func (c *Classifier) Process(pkt *packet.Packet, _ *device.Env) (int, device.Result) {
	for i := range c.Rules {
		if c.Rules[i].Matches(pkt) {
			return i + 1, device.Forward
		}
	}
	return 0, device.Forward
}

// Blacklist drops packets whose source address is listed. Entries can be
// added and removed at runtime (e.g. by automated reaction services).
type Blacklist struct {
	Label string
	set   map[packet.Addr]bool

	Dropped uint64
}

// NewBlacklist returns an empty blacklist.
func NewBlacklist(label string) *Blacklist {
	return &Blacklist{Label: label, set: make(map[packet.Addr]bool)}
}

// Add lists an address.
func (b *Blacklist) Add(a packet.Addr) { b.set[a] = true }

// Remove unlists an address.
func (b *Blacklist) Remove(a packet.Addr) { delete(b.set, a) }

// Contains reports whether a is listed.
func (b *Blacklist) Contains(a packet.Addr) bool { return b.set[a] }

// Len returns the number of listed addresses.
func (b *Blacklist) Len() int { return len(b.set) }

// Name implements device.Component.
func (b *Blacklist) Name() string { return b.Label }

// Type implements device.TypedComponent.
func (b *Blacklist) Type() string { return TypeBlacklist }

// Ports implements device.Component.
func (b *Blacklist) Ports() int { return 1 }

// Process implements device.Component.
func (b *Blacklist) Process(pkt *packet.Packet, _ *device.Env) (int, device.Result) {
	if b.set[pkt.Src] {
		b.Dropped++
		return 0, device.Discard
	}
	return 0, device.Forward
}

// PayloadScrub deletes packet payloads (paper §4.2 "payload deletion"),
// shrinking the packet to its header — size may only shrink, so this is
// safe under the amplification rule.
type PayloadScrub struct {
	Label    string
	Scrubbed uint64
}

// Name implements device.Component.
func (s *PayloadScrub) Name() string { return s.Label }

// Type implements device.TypedComponent.
func (s *PayloadScrub) Type() string { return TypePayloadScrub }

// Ports implements device.Component.
func (s *PayloadScrub) Ports() int { return 1 }

// Process implements device.Component.
func (s *PayloadScrub) Process(pkt *packet.Packet, _ *device.Env) (int, device.Result) {
	if len(pkt.Payload) > 0 || pkt.Size > packet.MinHeaderBytes {
		pkt.Payload = nil
		pkt.Size = packet.MinHeaderBytes
		s.Scrubbed++
	}
	return 0, device.Forward
}
