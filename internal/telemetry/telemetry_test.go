package telemetry

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Node:       7,
		At:         1_500_000_000,
		Seen:       1234,
		Redirected: 321,
		Discarded:  12,
		Services: []ServiceCounters{
			{Owner: "alice", Stage: 0, Processed: 100, Discarded: 3},
			{Owner: "alice", Stage: 1, Processed: 90, Discarded: 0},
			{Owner: "bob", Stage: 1, Processed: 55, Discarded: 55},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{
		{"with services", sampleSnapshot()},
		{"no services", &Snapshot{Node: 1, At: 42, Seen: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := tc.snap.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Snapshot
			if err := got.UnmarshalBinary(buf); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(&got, tc.snap) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, *tc.snap)
			}
			buf2, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(buf, buf2) {
				t.Fatalf("encoding not canonical: % x vs % x", buf, buf2)
			}
		})
	}
}

func TestSnapshotNormalize(t *testing.T) {
	s := &Snapshot{Services: []ServiceCounters{
		{Owner: "bob", Stage: 1},
		{Owner: "alice", Stage: 1},
		{Owner: "alice", Stage: 0},
	}}
	if _, err := s.MarshalBinary(); err == nil {
		t.Fatal("marshal accepted unsorted services")
	}
	s.Normalize()
	if _, err := s.MarshalBinary(); err != nil {
		t.Fatalf("marshal after Normalize: %v", err)
	}
	want := []ServiceCounters{
		{Owner: "alice", Stage: 0},
		{Owner: "alice", Stage: 1},
		{Owner: "bob", Stage: 1},
	}
	if !reflect.DeepEqual(s.Services, want) {
		t.Fatalf("Normalize order = %+v", s.Services)
	}
}

func TestSnapshotUnmarshalRejects(t *testing.T) {
	good, err := sampleSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"short header":  good[:headerBytes-1],
		"bad version":   append([]byte{99}, good[1:]...),
		"trailing byte": append(append([]byte(nil), good...), 0),
		"truncated":     good[:len(good)-1],
	}
	// Duplicate service entry: re-marshal with the first service repeated.
	dup := sampleSnapshot()
	dup.Services = append([]ServiceCounters{dup.Services[0]}, dup.Services...)
	if raw := encodeUnchecked(dup); raw != nil {
		cases["duplicate service"] = raw
	}
	for name, buf := range cases {
		if err := new(Snapshot).UnmarshalBinary(buf); err == nil {
			t.Errorf("%s: unmarshal accepted invalid input", name)
		}
	}
}

// encodeUnchecked marshals without validation so tests can produce
// non-canonical encodings the decoder must reject.
func encodeUnchecked(s *Snapshot) []byte {
	valid := *s
	valid.Services = nil
	buf, err := valid.MarshalBinary()
	if err != nil {
		return nil
	}
	buf[37] = byte(len(s.Services) >> 8)
	buf[38] = byte(len(s.Services))
	for i := range s.Services {
		sc := &s.Services[i]
		buf = append(buf, byte(len(sc.Owner)))
		buf = append(buf, sc.Owner...)
		buf = append(buf, sc.Stage)
		var n [16]byte
		for j := 0; j < 8; j++ {
			n[j] = byte(sc.Processed >> (56 - 8*j))
			n[8+j] = byte(sc.Discarded >> (56 - 8*j))
		}
		buf = append(buf, n[:]...)
	}
	return buf
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue[int](3)
	for i := 1; i <= 5; i++ {
		q.Push(i)
	}
	if got := q.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	var got []int
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Pop order = %v, want [3 4 5]", got)
	}
	select {
	case <-q.Wait():
	default:
		t.Fatal("Wait channel should be ready after pushes")
	}
}

func TestQueueConcurrent(t *testing.T) {
	q := NewQueue[int](64)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				q.Push(i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		popped := 0
		for popped+int(q.Dropped()) < 4000 {
			if _, ok := q.Pop(); ok {
				popped++
			} else {
				<-q.Wait()
			}
		}
	}()
	wg.Wait()
	<-done
}

func TestStoreRates(t *testing.T) {
	st := NewStore(4)
	push := func(node uint32, at int64, processed, discarded uint64) {
		st.Ingest("isp1", &Snapshot{Node: node, At: at, Services: []ServiceCounters{
			{Owner: "victim", Stage: 1, Processed: processed, Discarded: discarded},
		}})
	}
	// Two devices, 100ms apart: node 1 ramps 0->50, node 2 ramps 10->30.
	push(1, 0, 0, 0)
	push(2, 0, 10, 0)
	push(1, 100_000_000, 50, 5)
	push(2, 100_000_000, 30, 0)
	pps, dps := st.Rates("victim", 1)
	if pps != 700 { // (50 + 20) / 0.1s
		t.Fatalf("processed rate = %v, want 700", pps)
	}
	if dps != 50 {
		t.Fatalf("discarded rate = %v, want 50", dps)
	}
	if n := st.ServiceDevices("victim", 1); n != 2 {
		t.Fatalf("ServiceDevices = %d, want 2", n)
	}
	if pps, _ := st.Rates("nobody", 1); pps != 0 {
		t.Fatalf("unknown owner rate = %v, want 0", pps)
	}
}

func TestStoreCounterReset(t *testing.T) {
	st := NewStore(4)
	st.Ingest("isp1", &Snapshot{Node: 1, At: 0, Services: []ServiceCounters{
		{Owner: "victim", Stage: 1, Processed: 1000},
	}})
	// Re-deploy resets the counter; the new reading is below the previous.
	st.Ingest("isp1", &Snapshot{Node: 1, At: 1_000_000_000, Services: []ServiceCounters{
		{Owner: "victim", Stage: 1, Processed: 40},
	}})
	pps, _ := st.Rates("victim", 1)
	if pps != 40 {
		t.Fatalf("rate after reset = %v, want 40", pps)
	}
}

func TestStoreHistoryDepth(t *testing.T) {
	st := NewStore(2)
	for i := int64(0); i < 5; i++ {
		st.Ingest("isp1", &Snapshot{Node: 3, At: i})
	}
	snap, ok := st.Latest(Key{ISP: "isp1", Node: 3})
	if !ok || snap.At != 4 {
		t.Fatalf("Latest = %+v, %v", snap, ok)
	}
	keys := st.Devices()
	if len(keys) != 1 || keys[0] != (Key{ISP: "isp1", Node: 3}) {
		t.Fatalf("Devices = %v", keys)
	}
}

func TestWriteProm(t *testing.T) {
	st := NewStore(4)
	st.Ingest("isp2", &Snapshot{Node: 9, At: 2_000_000_000, Seen: 7})
	st.Ingest("isp1", &Snapshot{
		Node: 1, At: 1_000_000_000, Seen: 100, Redirected: 40, Discarded: 4,
		Services: []ServiceCounters{
			{Owner: "alice", Stage: 1, Processed: 40, Discarded: 4},
		},
	})
	var b strings.Builder
	if err := st.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dtc_device_seen_packets_total counter",
		`dtc_device_seen_packets_total{isp="isp1",node="1"} 100`,
		`dtc_device_seen_packets_total{isp="isp2",node="9"} 7`,
		`dtc_service_processed_packets_total{isp="isp1",node="1",owner="alice",stage="dest"} 40`,
		`dtc_snapshot_at_seconds{isp="isp1",node="1"} 1.000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// isp1 sorts before isp2 in every metric family.
	if strings.Index(out, `{isp="isp1",node="1"} 100`) > strings.Index(out, `{isp="isp2",node="9"} 7`) {
		t.Error("device series not sorted by (isp, node)")
	}
	var b2 strings.Builder
	if err := st.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("exposition not deterministic across scrapes")
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("plain"); got != "plain" {
		t.Fatalf("escapeLabel(plain) = %q", got)
	}
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}

func TestWritePromQueueDrops(t *testing.T) {
	st := NewStore(4)
	st.Ingest("isp1", &Snapshot{Node: 1, At: 1_000_000_000})
	q := NewQueue[int](2)
	st.RegisterQueueDrops("watch", q.Dropped)
	st.RegisterQueueDrops("ingest", func() uint64 { return 3 })
	for i := 0; i < 5; i++ {
		q.Push(i) // capacity 2: three evictions
	}
	var b strings.Builder
	if err := st.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dtc_telemetry_queue_dropped_total counter",
		`dtc_telemetry_queue_dropped_total{queue="ingest"} 3`,
		`dtc_telemetry_queue_dropped_total{queue="watch"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Registration order is irrelevant: series sort by queue name.
	if strings.Index(out, `queue="ingest"`) > strings.Index(out, `queue="watch"`) {
		t.Error("queue-drop series not sorted by name")
	}
	// Re-registering a name replaces the callback instead of duplicating.
	st.RegisterQueueDrops("ingest", func() uint64 { return 9 })
	var b2 strings.Builder
	if err := st.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b2.String(), `queue="ingest"`) != 1 {
		t.Error("re-registration duplicated the series")
	}
	if !strings.Contains(b2.String(), `dtc_telemetry_queue_dropped_total{queue="ingest"} 9`) {
		t.Error("re-registration did not replace the callback")
	}
}

type hubUpdate struct{ Seq uint64 }

func TestHubReplayAfterSeq(t *testing.T) {
	h := NewHub[hubUpdate]()
	for i := 0; i < 100; i++ {
		h.Publish(func(seq uint64) hubUpdate { return hubUpdate{seq} })
	}
	recv := func(afterSeq uint64, count int) []uint64 {
		var got []uint64
		err := h.Stream(afterSeq, count, nil)(func(v any) error {
			got = append(got, v.(hubUpdate).Seq)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := recv(95, 5); !reflect.DeepEqual(got, []uint64{96, 97, 98, 99, 100}) {
		t.Fatalf("resume after 95 = %v", got)
	}
	// Only the last hubRing updates are retained: an older resume point
	// replays from the ring's oldest entry.
	if got := recv(1, 2); !reflect.DeepEqual(got, []uint64{100 - hubRing + 1, 100 - hubRing + 2}) {
		t.Fatalf("resume after 1 = %v", got)
	}
}

func TestHubStreamEnds(t *testing.T) {
	h := NewHub[hubUpdate]()
	stop := make(chan struct{})
	close(stop)
	if err := h.Stream(0, 0, stop)(func(any) error { return nil }); err != nil {
		t.Fatalf("stopped stream = %v", err)
	}
	// A subscriber that has gone away ends the stream with its error.
	gone := errors.New("gone")
	h.Publish(func(seq uint64) hubUpdate { return hubUpdate{seq} })
	h.Publish(func(seq uint64) hubUpdate { return hubUpdate{seq} })
	if err := h.Stream(1, 0, nil)(func(any) error { return gone }); err != gone {
		t.Fatalf("push failure = %v, want %v", err, gone)
	}
}

func TestHubCountsDropsOfRetiredSubscribers(t *testing.T) {
	h := NewHub[hubUpdate]()
	id, _ := h.subscribe(0)
	for i := 0; i < hubRing+16+20; i++ {
		h.Publish(func(seq uint64) hubUpdate { return hubUpdate{seq} })
	}
	if got := h.Dropped(); got != 20 {
		t.Fatalf("Dropped = %d, want 20", got)
	}
	h.unsubscribe(id)
	if got := h.Dropped(); got != 20 {
		t.Fatalf("Dropped after unsubscribe = %d, want 20", got)
	}
}
