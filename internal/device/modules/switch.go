package modules

import (
	"dtc/internal/device"
	"dtc/internal/packet"
)

// TypeSwitch is the registry name of the Switch component.
const TypeSwitch = "switch"

// Switch routes packets to output port 0 when off and port 1 when on.
// It is the building block for trigger-driven reactions (paper §4.4):
// a Trigger flips the switch, steering traffic through a mitigation branch
// (rate limiter, filter) only while an anomaly is active.
type Switch struct {
	Label string
	on    bool
}

// Name implements device.Component.
func (s *Switch) Name() string { return s.Label }

// Type implements device.TypedComponent.
func (s *Switch) Type() string { return TypeSwitch }

// Ports implements device.Component.
func (s *Switch) Ports() int { return 2 }

// On reports the switch position.
func (s *Switch) On() bool { return s.on }

// Set flips the switch.
func (s *Switch) Set(on bool) { s.on = on }

// Process implements device.Component.
func (s *Switch) Process(_ *packet.Packet, _ *device.Env) (int, device.Result) {
	if s.on {
		return 1, device.Forward
	}
	return 0, device.Forward
}
