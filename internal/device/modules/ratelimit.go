package modules

import (
	"dtc/internal/device"
	"dtc/internal/packet"
	"dtc/internal/sim"
)

// RateLimiter enforces a token-bucket limit on matching packets:
// Rate tokens/second with a burst of Burst tokens, one token per packet
// (or per byte in ByteMode). Non-matching packets pass untouched.
// Rate limiting can only ever reduce traffic, satisfying the paper's
// no-amplification rule by construction.
type RateLimiter struct {
	Label    string
	Match    Match   // which packets the limit applies to (zero = all)
	Rate     float64 // tokens per second
	Burst    float64 // bucket depth
	ByteMode bool    // tokens are bytes instead of packets

	tokens float64
	last   sim.Time
	inited bool

	Dropped uint64
	Passed  uint64
}

// Name implements device.Component.
func (r *RateLimiter) Name() string { return r.Label }

// Type implements device.TypedComponent.
func (r *RateLimiter) Type() string { return TypeRateLimiter }

// Ports implements device.Component.
func (r *RateLimiter) Ports() int { return 1 }

// Process implements device.Component.
func (r *RateLimiter) Process(pkt *packet.Packet, env *device.Env) (int, device.Result) {
	if !r.Match.Matches(pkt) {
		return 0, device.Forward
	}
	if !r.inited {
		r.tokens = r.Burst
		r.last = env.Now
		r.inited = true
	}
	elapsed := env.Now - r.last
	r.last = env.Now
	r.tokens += r.Rate * float64(elapsed) / float64(sim.Second)
	if r.tokens > r.Burst {
		r.tokens = r.Burst
	}
	cost := 1.0
	if r.ByteMode {
		cost = float64(pkt.Size)
	}
	if r.tokens < cost {
		r.Dropped++
		return 0, device.Discard
	}
	r.tokens -= cost
	r.Passed++
	return 0, device.Forward
}
