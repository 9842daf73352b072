package modules

import (
	"dtc/internal/device"
	"dtc/internal/packet"
)

// AntiSpoof implements ingress filtering (RFC 2267) as an owner-deployable
// service — the paper's headline application (§4.3): the owner of an
// attacked address deploys rules on peripheral ISPs that drop packets
// *claiming* the owner's addresses as source when they enter the Internet
// somewhere those addresses could not legitimately originate.
//
// The component needs the operator-provided routing context (env.RPF):
//   - transit interfaces are never filtered (the paper's correctness
//     condition — transit traffic legitimately carries foreign sources);
//   - on customer/host interfaces a packet passes only if reverse-path
//     forwarding says the source may enter there.
//
// Deployed in the source-owner stage, it only ever inspects packets whose
// claimed source belongs to the deploying owner, so it cannot affect
// anybody else's traffic.
type AntiSpoof struct {
	Label string

	// Strict applies the reverse-path check on transit interfaces too —
	// Park & Lee's route-based distributed packet filtering. It is exact
	// only when the operator-provided routing context is complete and
	// routing is symmetric; the conservative default (false) follows the
	// paper and spares transit traffic.
	Strict bool

	Dropped uint64
	Passed  uint64
	NoCtx   uint64 // packets passed because no routing context was available
}

// Name implements device.Component.
func (a *AntiSpoof) Name() string { return a.Label }

// Type implements device.TypedComponent.
func (a *AntiSpoof) Type() string { return TypeAntiSpoof }

// Ports implements device.Component.
func (a *AntiSpoof) Ports() int { return 1 }

// Process implements device.Component.
func (a *AntiSpoof) Process(pkt *packet.Packet, env *device.Env) (int, device.Result) {
	if env.RPF == nil {
		a.NoCtx++
		return 0, device.Forward
	}
	if !a.Strict && env.RPF.Transit(env.Node, env.From) {
		a.Passed++
		return 0, device.Forward
	}
	if !env.RPF.ValidIngress(env.Node, env.From, pkt.Src) {
		a.Dropped++
		return 0, device.Discard
	}
	a.Passed++
	return 0, device.Forward
}
