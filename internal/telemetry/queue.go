package telemetry

import (
	"sync"

	"dtc/internal/metrics"
)

// Queue is a bounded FIFO with drop-oldest backpressure, safe for
// concurrent use. Producers never block: when the queue is full, the
// oldest element is evicted and counted, so a slow consumer (a stalled
// watch subscriber, a wedged reporting link) degrades to losing history
// instead of stalling the data path or growing without bound.
type Queue[T any] struct {
	mu      sync.Mutex
	buf     []T
	head    int // index of the oldest element
	n       int // elements currently queued
	dropped metrics.AtomicCounter
	notify  chan struct{}
}

// NewQueue returns a queue holding at most capacity elements.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{buf: make([]T, capacity), notify: make(chan struct{}, 1)}
}

// Push appends v, evicting the oldest element when full.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		var zero T
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.dropped.Inc()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Pop removes and returns the oldest element, with ok=false when empty.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Dropped returns how many elements were evicted under backpressure.
func (q *Queue[T]) Dropped() uint64 { return q.dropped.Value() }

// Wait returns a channel that receives after a Push. One receive may cover
// several pushes; consumers drain with Pop until it reports empty.
func (q *Queue[T]) Wait() <-chan struct{} { return q.notify }

// hubRing is how many recent updates a Hub retains for replay to
// reconnecting subscribers.
const hubRing = 64

// Hub fans updates out to stream subscribers, each behind its own bounded
// drop-oldest Queue so one stalled subscriber cannot block the publisher.
// Every update carries a hub-global sequence number and the last hubRing
// updates are retained, so a subscriber that reconnects after a sequence
// number it already consumed gets the gap replayed instead of silently
// missing updates.
type Hub[T any] struct {
	mu      sync.Mutex
	subs    map[int]*Queue[T]
	nextID  int
	seq     uint64
	ring    []hubEntry[T] // retained tail, oldest first
	retired uint64        // drops accumulated by unsubscribed queues
}

type hubEntry[T any] struct {
	seq uint64
	v   T
}

// NewHub returns a hub with no subscribers.
func NewHub[T any]() *Hub[T] { return &Hub[T]{subs: make(map[int]*Queue[T])} }

// Publish hands every subscriber the update stamp returns for the next
// sequence number. stamp runs under the hub lock: it should only set the
// number on an update built beforehand.
func (h *Hub[T]) Publish(stamp func(seq uint64) T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	v := stamp(h.seq)
	if len(h.ring) == hubRing {
		copy(h.ring, h.ring[1:])
		h.ring = h.ring[:hubRing-1]
	}
	h.ring = append(h.ring, hubEntry[T]{h.seq, v})
	for _, q := range h.subs {
		q.Push(v)
	}
}

func (h *Hub[T]) subscribe(afterSeq uint64) (int, *Queue[T]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	// Queue capacity covers a full ring replay plus a burst of fresh
	// updates; replay happens under the hub lock, so no published update
	// can interleave with (or duplicate) the replayed tail.
	q := NewQueue[T](hubRing + 16)
	if afterSeq > 0 {
		for _, e := range h.ring {
			if e.seq > afterSeq {
				q.Push(e.v)
			}
		}
	}
	h.subs[h.nextID] = q
	return h.nextID, q
}

func (h *Hub[T]) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if q, ok := h.subs[id]; ok {
		h.retired += q.Dropped()
		delete(h.subs, id)
	}
}

// Dropped totals drop-oldest evictions across all subscriber queues, live
// and retired.
func (h *Hub[T]) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.retired
	for _, q := range h.subs {
		total += q.Dropped()
	}
	return total
}

// WatchParams are a watch subscription's parameters as they cross the
// wire, the arguments of Hub.Stream: the tcsd live server and a deployed
// TCSP both take them for their "watch" stream method.
type WatchParams struct {
	// Count bounds the number of updates before the server ends the
	// stream; <= 0 streams until the client disconnects.
	Count int `json:"count,omitempty"`
	// AfterSeq resumes the stream after a hub sequence number already
	// consumed: retained updates with Seq > AfterSeq replay immediately.
	// 0 (a fresh subscriber) receives only new updates.
	AfterSeq uint64 `json:"after_seq,omitempty"`
}

// Stream returns a server-push stream body (the shape of ctl.StreamFunc)
// for one subscriber: retained updates after afterSeq (0 = none) first,
// then new ones, until count updates were pushed (count <= 0: no limit),
// push fails because the subscriber is gone, or stop closes.
func (h *Hub[T]) Stream(afterSeq uint64, count int, stop <-chan struct{}) func(push func(v any) error) error {
	return func(push func(v any) error) error {
		id, q := h.subscribe(afterSeq)
		defer h.unsubscribe(id)
		for sent := 0; count <= 0 || sent < count; {
			v, ok := q.Pop()
			if !ok {
				select {
				case <-q.Wait():
					continue
				case <-stop:
					return nil
				}
			}
			if err := push(v); err != nil {
				return err
			}
			sent++
		}
		return nil
	}
}
