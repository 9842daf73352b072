package modules

import (
	"fmt"

	"dtc/internal/device"
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// LogEntry is one captured packet summary.
type LogEntry struct {
	At       sim.Time
	Node     int
	Src, Dst packet.Addr
	Proto    packet.Proto
	Size     int
	Digest   uint64
}

// Logger keeps a bounded ring of packet summaries that the network user
// can read back through the control plane (paper §4.4: logging, forensic
// support). It never mutates or drops packets.
type Logger struct {
	Label string
	Cap   int

	ring  []LogEntry
	next  int
	total uint64
}

// NewLogger returns a logger keeping the last capacity entries.
func NewLogger(label string, capacity int) *Logger {
	if capacity < 1 {
		capacity = 1
	}
	return &Logger{Label: label, Cap: capacity}
}

// Name implements device.Component.
func (l *Logger) Name() string { return l.Label }

// Type implements device.TypedComponent.
func (l *Logger) Type() string { return TypeLogger }

// Ports implements device.Component.
func (l *Logger) Ports() int { return 1 }

// Process implements device.Component.
func (l *Logger) Process(pkt *packet.Packet, env *device.Env) (int, device.Result) {
	e := LogEntry{
		At: env.Now, Node: env.Node,
		Src: pkt.Src, Dst: pkt.Dst, Proto: pkt.Proto, Size: pkt.Size,
		Digest: pkt.Digest(),
	}
	if len(l.ring) < l.Cap {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % l.Cap
	}
	l.total++
	return 0, device.Forward
}

// Entries returns the captured entries, oldest first.
func (l *Logger) Entries() []LogEntry {
	if len(l.ring) < l.Cap {
		return append([]LogEntry(nil), l.ring...)
	}
	out := make([]LogEntry, 0, l.Cap)
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Total returns how many packets were logged (including evicted ones).
func (l *Logger) Total() uint64 { return l.total }

// Stats counts matching packets and bytes per rule — the paper's
// distributed traffic-statistics application (§4.4). Rule index -1 (the
// catch-all) counts everything.
type Stats struct {
	Label string
	Rules []Match

	TotalPackets uint64
	TotalBytes   uint64
	RulePackets  []uint64
	RuleBytes    []uint64
}

// NewStats returns a counter set over the given rules.
func NewStats(label string, rules ...Match) *Stats {
	return &Stats{
		Label: label, Rules: rules,
		RulePackets: make([]uint64, len(rules)),
		RuleBytes:   make([]uint64, len(rules)),
	}
}

// Name implements device.Component.
func (s *Stats) Name() string { return s.Label }

// Type implements device.TypedComponent.
func (s *Stats) Type() string { return TypeStats }

// Ports implements device.Component.
func (s *Stats) Ports() int { return 1 }

// Process implements device.Component.
func (s *Stats) Process(pkt *packet.Packet, _ *device.Env) (int, device.Result) {
	s.TotalPackets++
	s.TotalBytes += uint64(pkt.Size)
	for i := range s.Rules {
		if s.Rules[i].Matches(pkt) {
			s.RulePackets[i]++
			s.RuleBytes[i] += uint64(pkt.Size)
		}
	}
	return 0, device.Forward
}

// Sampler forwards every packet and copies a deterministic 1-in-N sample
// into an embedded logger — "sampling traces of suspicious network
// activity" (paper §4.4).
type Sampler struct {
	Label string
	N     int
	Log   *Logger

	seen uint64
}

// NewSampler samples one packet in n into a fresh logger of the given
// capacity.
func NewSampler(label string, n, logCap int) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{Label: label, N: n, Log: NewLogger(label+".log", logCap)}
}

// Name implements device.Component.
func (s *Sampler) Name() string { return s.Label }

// Type implements device.TypedComponent.
func (s *Sampler) Type() string { return TypeSampler }

// Ports implements device.Component.
func (s *Sampler) Ports() int { return 1 }

// Process implements device.Component.
func (s *Sampler) Process(pkt *packet.Packet, env *device.Env) (int, device.Result) {
	if s.seen%uint64(s.N) == 0 {
		s.Log.Process(pkt, env)
	}
	s.seen++
	return 0, device.Forward
}

// Trigger watches the rate of matching packets over fixed windows and
// emits control-plane events when the rate crosses Threshold (packets per
// window). OnFire/OnClear callbacks implement the paper's automated
// reaction to network anomalies (§4.4) — e.g. enabling a rate limiter.
type Trigger struct {
	Label     string
	Match     Match
	Window    sim.Time
	Threshold uint64
	OnFire    func(now sim.Time)
	OnClear   func(now sim.Time)

	windowStart sim.Time
	count       uint64
	active      bool
	Fired       uint64
}

// Name implements device.Component.
func (t *Trigger) Name() string { return t.Label }

// Type implements device.TypedComponent.
func (t *Trigger) Type() string { return TypeTrigger }

// Ports implements device.Component.
func (t *Trigger) Ports() int { return 1 }

// Active reports whether the trigger is currently fired.
func (t *Trigger) Active() bool { return t.active }

// Process implements device.Component.
func (t *Trigger) Process(pkt *packet.Packet, env *device.Env) (int, device.Result) {
	if t.Window <= 0 {
		t.Window = sim.Second
	}
	for env.Now-t.windowStart >= t.Window {
		// Window rollover: evaluate and reset. Loop handles idle gaps.
		if t.active && t.count < t.Threshold {
			t.active = false
			if t.OnClear != nil {
				t.OnClear(env.Now)
			}
			env.EmitEvent(t.Label, "trigger cleared")
		}
		t.count = 0
		t.windowStart += t.Window
		if t.windowStart+t.Window < env.Now {
			t.windowStart = env.Now - t.Window
		}
	}
	if t.Match.Matches(pkt) {
		t.count++
		if !t.active && t.count >= t.Threshold {
			t.active = true
			t.Fired++
			if t.OnFire != nil {
				t.OnFire(env.Now)
			}
			env.EmitEvent(t.Label, fmt.Sprintf("trigger fired: %d matching packets within window", t.count))
		}
	}
	return 0, device.Forward
}
