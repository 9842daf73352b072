// Package telemetry carries per-device counter snapshots from the adaptive
// devices up the control plane (device -> NMS -> TCSP) and makes them
// observable: a compact canonical wire encoding, bounded drop-oldest queues
// for backpressure, a ring-buffer history store with rate queries, and a
// Prometheus-text exposition writer.
//
// Snapshots are pure data stamped with the time they were taken (sim.Time
// nanoseconds in simulation, wall-derived nanoseconds in the live server),
// so the whole pipeline is deterministic when driven off the simulated
// clock and needs no clock of its own.
package telemetry

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Version is the snapshot wire-format version byte.
const Version = 1

// headerBytes is the fixed prefix of an encoded snapshot: version (1),
// node (4), at (8), seen (8), redirected (8), discarded (8), count (2).
const headerBytes = 1 + 4 + 8 + 8*3 + 2

// serviceFixedBytes is the per-service size excluding the owner string:
// owner length (1), stage (1), processed (8), discarded (8).
const serviceFixedBytes = 1 + 1 + 8 + 8

// ServiceCounters is one installed service's accounting inside a snapshot.
type ServiceCounters struct {
	Owner     string `json:"owner"`
	Stage     uint8  `json:"stage"` // 0 = source, 1 = dest (device.Stage)
	Processed uint64 `json:"processed"`
	Discarded uint64 `json:"discarded"`
}

// Snapshot is one device's counters at one instant. Services must be
// sorted by (Owner, Stage) with no duplicates — MarshalBinary enforces it
// and UnmarshalBinary rejects violations, so the encoding is canonical:
// any accepted byte string re-marshals to itself.
type Snapshot struct {
	Node       uint32            `json:"node"`
	At         int64             `json:"at_nanos"`
	Seen       uint64            `json:"seen"`
	Redirected uint64            `json:"redirected"`
	Discarded  uint64            `json:"discarded"`
	Services   []ServiceCounters `json:"services,omitempty"`
}

// serviceLess orders service entries canonically.
func serviceLess(a, b *ServiceCounters) bool {
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Stage < b.Stage
}

// Normalize sorts Services into canonical order. Producers that already
// emit sorted entries (nms.Snapshot) need not call it.
func (s *Snapshot) Normalize() {
	sort.Slice(s.Services, func(i, j int) bool {
		return serviceLess(&s.Services[i], &s.Services[j])
	})
}

// validate checks the canonical-form invariants shared by both directions.
func (s *Snapshot) validate() error {
	if len(s.Services) > 0xffff {
		return fmt.Errorf("telemetry: %d services exceed the uint16 count field", len(s.Services))
	}
	for i := range s.Services {
		sc := &s.Services[i]
		if sc.Owner == "" {
			return fmt.Errorf("telemetry: service %d has an empty owner", i)
		}
		if len(sc.Owner) > 0xff {
			return fmt.Errorf("telemetry: owner %q exceeds 255 bytes", sc.Owner)
		}
		if sc.Stage > 1 {
			return fmt.Errorf("telemetry: service %d has invalid stage %d", i, sc.Stage)
		}
		if i > 0 && !serviceLess(&s.Services[i-1], sc) {
			return fmt.Errorf("telemetry: services not in strict (owner, stage) order at %d", i)
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler with a big-endian
// fixed header followed by the service entries.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	size := headerBytes
	for i := range s.Services {
		size += serviceFixedBytes + len(s.Services[i].Owner)
	}
	buf := make([]byte, size)
	buf[0] = Version
	binary.BigEndian.PutUint32(buf[1:], s.Node)
	binary.BigEndian.PutUint64(buf[5:], uint64(s.At))
	binary.BigEndian.PutUint64(buf[13:], s.Seen)
	binary.BigEndian.PutUint64(buf[21:], s.Redirected)
	binary.BigEndian.PutUint64(buf[29:], s.Discarded)
	binary.BigEndian.PutUint16(buf[37:], uint16(len(s.Services)))
	off := headerBytes
	for i := range s.Services {
		sc := &s.Services[i]
		buf[off] = uint8(len(sc.Owner))
		off++
		copy(buf[off:], sc.Owner)
		off += len(sc.Owner)
		buf[off] = sc.Stage
		off++
		binary.BigEndian.PutUint64(buf[off:], sc.Processed)
		off += 8
		binary.BigEndian.PutUint64(buf[off:], sc.Discarded)
		off += 8
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, rejecting any
// encoding that is not canonical (wrong version, short or trailing bytes,
// unsorted or malformed service entries).
func (s *Snapshot) UnmarshalBinary(buf []byte) error {
	if len(buf) < headerBytes {
		return fmt.Errorf("telemetry: short buffer (%d bytes)", len(buf))
	}
	if buf[0] != Version {
		return fmt.Errorf("telemetry: unknown snapshot version %d", buf[0])
	}
	s.Node = binary.BigEndian.Uint32(buf[1:])
	s.At = int64(binary.BigEndian.Uint64(buf[5:]))
	s.Seen = binary.BigEndian.Uint64(buf[13:])
	s.Redirected = binary.BigEndian.Uint64(buf[21:])
	s.Discarded = binary.BigEndian.Uint64(buf[29:])
	count := int(binary.BigEndian.Uint16(buf[37:]))
	// Cheap bound before allocating: every entry is at least
	// serviceFixedBytes+1 bytes (one-byte owner minimum).
	if remaining := len(buf) - headerBytes; remaining < count*(serviceFixedBytes+1) {
		return fmt.Errorf("telemetry: %d services do not fit in %d bytes", count, remaining)
	}
	s.Services = s.Services[:0]
	off := headerBytes
	for i := 0; i < count; i++ {
		// Long owners in earlier entries can use up the bytes the count
		// bound reserved for later ones.
		if off >= len(buf) {
			return fmt.Errorf("telemetry: truncated service entry %d", i)
		}
		ownerLen := int(buf[off])
		off++
		if ownerLen == 0 {
			return fmt.Errorf("telemetry: service %d has an empty owner", i)
		}
		if off+ownerLen+serviceFixedBytes-1 > len(buf) {
			return fmt.Errorf("telemetry: truncated service entry %d", i)
		}
		sc := ServiceCounters{Owner: string(buf[off : off+ownerLen])}
		off += ownerLen
		sc.Stage = buf[off]
		off++
		sc.Processed = binary.BigEndian.Uint64(buf[off:])
		off += 8
		sc.Discarded = binary.BigEndian.Uint64(buf[off:])
		off += 8
		s.Services = append(s.Services, sc)
	}
	if off != len(buf) {
		return fmt.Errorf("telemetry: %d trailing bytes", len(buf)-off)
	}
	if len(s.Services) == 0 {
		s.Services = nil
	}
	return s.validate()
}
