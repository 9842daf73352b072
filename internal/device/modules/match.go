// Package modules provides the security-reviewed component library for
// adaptive devices: filtering, rate limiting, blacklisting, anti-spoofing,
// payload scrubbing, logging, statistics, sampling, triggers and SPIE
// traceback digests (paper §4.2 and §4.4).
//
// RegisterAll records every type's capability manifest in a device
// registry; graphs built from unregistered or unreviewed types are
// rejected at install time. The device runs installed components through
// their Process methods, so exported parameters (rules, modes, rates)
// edited after install take effect on the next packet.
package modules

import (
	"fmt"
	"strings"

	"dtc/internal/device"
	"dtc/internal/packet"
)

// Match is a header predicate. Zero-valued fields match anything.
type Match struct {
	Src, Dst     packet.Prefix // zero Bits + zero Addr means any
	Proto        packet.Proto  // 0 = any
	SrcPort      uint16        // 0 = any
	DstPort      uint16        // 0 = any
	FlagsAll     uint8         // all these TCP flag bits must be set
	FlagsNone    uint8         // none of these bits may be set
	ICMPType     uint8         // matched when ICMPTypeSet
	ICMPTypeSet  bool
	MinSize      int    // 0 = any
	PayloadToken string // substring that must appear in the payload
}

// matchAnyPrefix reports whether p is the zero prefix (match-any).
func matchAnyPrefix(p packet.Prefix) bool { return p.Bits == 0 && p.Addr == 0 }

// Matches reports whether pkt satisfies the predicate.
func (m *Match) Matches(pkt *packet.Packet) bool {
	if !matchAnyPrefix(m.Src) && !m.Src.Contains(pkt.Src) {
		return false
	}
	if !matchAnyPrefix(m.Dst) && !m.Dst.Contains(pkt.Dst) {
		return false
	}
	if m.Proto != 0 && pkt.Proto != m.Proto {
		return false
	}
	if m.SrcPort != 0 && pkt.SrcPort != m.SrcPort {
		return false
	}
	if m.DstPort != 0 && pkt.DstPort != m.DstPort {
		return false
	}
	if m.FlagsAll != 0 && pkt.Flags&m.FlagsAll != m.FlagsAll {
		return false
	}
	if m.FlagsNone != 0 && pkt.Flags&m.FlagsNone != 0 {
		return false
	}
	if m.ICMPTypeSet && (pkt.Proto != packet.ICMP || pkt.Flags != m.ICMPType) {
		return false
	}
	if m.MinSize != 0 && pkt.Size < m.MinSize {
		return false
	}
	if m.PayloadToken != "" && !strings.Contains(string(pkt.Payload), m.PayloadToken) {
		return false
	}
	return true
}

// String summarizes the predicate.
func (m *Match) String() string {
	var parts []string
	if !matchAnyPrefix(m.Src) {
		parts = append(parts, "src="+m.Src.String())
	}
	if !matchAnyPrefix(m.Dst) {
		parts = append(parts, "dst="+m.Dst.String())
	}
	if m.Proto != 0 {
		parts = append(parts, "proto="+m.Proto.String())
	}
	if m.DstPort != 0 {
		parts = append(parts, fmt.Sprintf("dport=%d", m.DstPort))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// RegisterAll records the manifests of every module type in this package.
func RegisterAll(reg *device.Registry) error {
	for _, m := range []device.Manifest{
		{Type: TypeFilter, MayDrop: true, SecurityChecked: true},
		{Type: TypeClassifier, SecurityChecked: true},
		{Type: TypeRateLimiter, MayDrop: true, Stateful: true, SecurityChecked: true},
		{Type: TypeBlacklist, MayDrop: true, Stateful: true, SecurityChecked: true},
		{Type: TypeAntiSpoof, MayDrop: true, SecurityChecked: true},
		{Type: TypePayloadScrub, MayModifyPayload: true, SecurityChecked: true},
		{Type: TypeLogger, Stateful: true, SecurityChecked: true},
		{Type: TypeStats, Stateful: true, SecurityChecked: true},
		{Type: TypeSampler, Stateful: true, SecurityChecked: true},
		{Type: TypeTrigger, Stateful: true, SecurityChecked: true},
		{Type: TypeSPIE, Stateful: true, SecurityChecked: true},
		{Type: TypeSwitch, Stateful: true, SecurityChecked: true},
	} {
		if err := reg.Register(m); err != nil {
			return err
		}
	}
	return nil
}

// NewRegistry returns a registry preloaded with all module manifests.
func NewRegistry() *device.Registry {
	reg := device.NewRegistry()
	if err := RegisterAll(reg); err != nil {
		panic(err) // unreachable: fixed type list has no duplicates
	}
	return reg
}
