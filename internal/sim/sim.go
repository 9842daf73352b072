// Package sim provides a deterministic discrete-event simulation engine.
//
// All experiments in this repository run on top of this engine. Determinism
// is a hard requirement: given the same seed and the same sequence of
// scheduled events, a simulation produces bit-identical results on every
// run. To guarantee this the engine
//
//   - orders events by their Key, (time, sequence number), so simultaneous
//     events fire in scheduling order,
//   - hands out random numbers only through the per-simulation *RNG*
//     (a seeded PCG; the math/rand global generator is never used), and
//   - never consults wall-clock time.
//
// The engine is intentionally single-threaded: network simulation at this
// scale is dominated by event-queue churn, and a lock-free sequential heap
// outruns a synchronized parallel queue for the event counts used here.
// Parallelism in the benchmark harness comes from running independent
// simulations (one per parameter point) on separate goroutines.
//
// The queue is a hand-inlined 4-ary heap of value-type entries: scheduling
// an event moves a small fixed-size struct, never allocates, and popping
// touches at most one cache line of children per level. Cancellation is lazy — Cancel
// marks the event's slot dead and the entry is discarded when it reaches
// the top of the heap — so Handle stays a value and the heap never needs
// random removal.
//
// Streams of events whose keys are stamped in firing order — a link's
// packet arrivals, the reschedules of every constant-rate source sharing
// one period — need not each occupy the heap. Stamp reserves a key at the
// point At would have, and a FIFO parks such events behind one heap entry
// keyed by its head, so the heap holds one entry per stream and every
// event still fires at its own key. Passed answers whether a key is
// already behind the clock, which lets a caller count pending work (a
// link's drop-tail backlog) without scheduling an event for it.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is simulated time measured in nanoseconds since simulation start.
// It mirrors time.Duration so callers can use duration literals naturally.
type Time int64

// Common simulated-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time using time.Duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Fire runs when simulated time reaches the
// event's deadline.
type Event interface {
	Fire(now Time)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(now Time)

// Fire implements Event.
func (f EventFunc) Fire(now Time) { f(now) }

// heapArity is the fan-out of the event heap. Four children per node gives
// shallower trees than a binary heap and keeps all children of a node in
// one or two cache lines, which wins on the push-heavy workloads here.
const heapArity = 4

// Key is an event's place in the global firing order: events fire by
// time, and simultaneous events in the order their keys were stamped.
type Key struct {
	At  Time
	Seq uint64
}

// Less reports whether k fires before o.
func (k Key) Less(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	return k.Seq < o.Seq
}

// entry is one scheduled event, stored by value inside the heap. Pushes and
// pops move entries; nothing is allocated per event.
type entry struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	slot int32  // index into Simulation.slots for cancellation state; -1 = not cancellable
	ev   Event
}

// less orders entries by (at, seq).
func (e *entry) less(f *entry) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// slotRec tracks liveness of one scheduled event. Slots are recycled
// through a free list; gen increments on every recycle so stale Handles
// referring to a reused slot read as already fired.
type slotRec struct {
	gen       uint64
	cancelled bool
}

// Handle identifies a scheduled event so it can be cancelled. It is a pure
// value (simulation, slot, generation); the zero Handle reports Cancelled.
type Handle struct {
	s    *Simulation
	slot int32
	gen  uint64
}

// Cancelled reports whether the event was cancelled or has already fired.
func (h Handle) Cancelled() bool {
	if h.s == nil || int(h.slot) >= len(h.s.slots) {
		return true
	}
	rec := &h.s.slots[h.slot]
	return rec.gen != h.gen || rec.cancelled
}

// Simulation owns the virtual clock, the event queue and the RNG.
// The zero value is not usable; construct with New.
type Simulation struct {
	now     Time
	seq     uint64
	horizon Key       // every key before it has passed (see Passed)
	queue   []entry   // 4-ary heap ordered by (at, seq)
	slots   []slotRec // liveness per scheduled event
	free    []int32   // recycled slot indices
	live    int       // scheduled (FIFO-parked included), not yet fired or cancelled
	rng     *RNG
	stopped bool
	fired   uint64

	// EventLimit, when non-zero, makes Run and Step return ErrEventLimit
	// once that many events have fired, before popping the next event —
	// the pending event stays queued, so raising the limit and resuming
	// loses nothing. It guards against accidental event storms in
	// property tests.
	EventLimit uint64
}

// New returns a simulation with its RNG seeded from seed.
func New(seed uint64) *Simulation {
	return &Simulation{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (s *Simulation) Now() Time { return s.now }

// RNG returns the simulation's deterministic random source.
func (s *Simulation) RNG() *RNG { return s.rng }

// Pending returns the number of events waiting to fire, including those
// parked behind a FIFO's head (cancelled events are excluded even if not
// yet discarded from the heap).
func (s *Simulation) Pending() int { return s.live }

// Fired returns the total number of events that have fired so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// allocSlot returns a free liveness slot, reusing dead ones.
func (s *Simulation) allocSlot() int32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[id].cancelled = false
		return id
	}
	s.slots = append(s.slots, slotRec{})
	return int32(len(s.slots) - 1)
}

// freeSlot retires a slot once its entry leaves the heap. Bumping gen
// invalidates every Handle that still points at the slot.
func (s *Simulation) freeSlot(id int32) {
	s.slots[id].gen++
	s.free = append(s.free, id)
}

// push inserts e, bubbling the hole up from the tail.
func (s *Simulation) push(e entry) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.less(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// popTop removes the root entry, frees its slot, and restores heap order
// with a single sift-down of the former tail entry.
func (s *Simulation) popTop() {
	q := s.queue
	if q[0].slot >= 0 {
		s.freeSlot(q[0].slot)
	}
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // release the Event reference
	q = q[:n]
	s.queue = q
	if n == 0 {
		return
	}
	s.siftDown(last)
}

// siftDown places e in the root's hole, moving smaller children up until
// heap order holds again.
func (s *Simulation) siftDown(last entry) {
	q := s.queue
	n := len(q)
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		m := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].less(&q[m]) {
				m = j
			}
		}
		if !q[m].less(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
}

// At schedules ev to fire at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Simulation) At(at Time, ev Event) Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	slot := s.allocSlot()
	gen := s.slots[slot].gen
	s.push(entry{at: at, seq: s.seq, slot: slot, ev: ev})
	s.seq++
	s.live++
	return Handle{s: s, slot: slot, gen: gen}
}

// Stamp reserves the key of an event at absolute time at, taking the
// sequence number At would take at this point. The caller may Schedule the
// key later, Append it to a FIFO, or only ask whether it has Passed.
// Stamping in the past panics, like At.
func (s *Simulation) Stamp(at Time) Key {
	if at < s.now {
		panic(fmt.Sprintf("sim: stamping key at %v before now %v", at, s.now))
	}
	k := Key{At: at, Seq: s.seq}
	s.seq++
	return k
}

// Passed reports whether an event with key k has already fired, or for a
// key that was never scheduled, whether it would have: k lies behind the
// last event fired, or behind the deadline of a Run that stopped there. It
// is false before anything has fired.
func (s *Simulation) Passed(k Key) bool { return k.Less(s.horizon) }

// Schedule queues ev at a key stamped earlier. The key must not have
// Passed. Scheduled events cannot be cancelled.
func (s *Simulation) Schedule(k Key, ev Event) {
	if s.Passed(k) {
		panic(fmt.Sprintf("sim: scheduling key %v/%d that has already passed", k.At, k.Seq))
	}
	s.push(entry{at: k.At, seq: k.Seq, slot: -1, ev: ev})
	s.live++
}

// After schedules ev to fire d after the current time.
func (s *Simulation) After(d Time, ev Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, ev)
}

// AfterFunc schedules f to run d after the current time.
func (s *Simulation) AfterFunc(d Time, f func(now Time)) Handle {
	return s.After(d, EventFunc(f))
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancellation is lazy: the entry (and
// its Event reference) is discarded when it reaches the top of the heap.
func (s *Simulation) Cancel(h Handle) {
	if h.s == nil || int(h.slot) >= len(h.s.slots) {
		return
	}
	rec := &h.s.slots[h.slot]
	if rec.gen != h.gen || rec.cancelled {
		return
	}
	rec.cancelled = true
	h.s.live--
}

// Stop halts the run loop after the current event returns.
func (s *Simulation) Stop() { s.stopped = true }

// ErrEventLimit is returned by Run when EventLimit is exceeded.
type limitError struct{ limit uint64 }

func (e limitError) Error() string {
	return fmt.Sprintf("sim: event limit %d exceeded", e.limit)
}

// IsEventLimit reports whether err came from exceeding Simulation.EventLimit.
func IsEventLimit(err error) bool {
	_, ok := err.(limitError)
	return ok
}

// next discards cancelled entries and returns a pointer to the live root
// entry, or nil if the queue is empty.
func (s *Simulation) next() *entry {
	for len(s.queue) > 0 {
		top := &s.queue[0]
		if top.slot < 0 || !s.slots[top.slot].cancelled {
			return top
		}
		s.popTop()
	}
	return nil
}

// fire pops the live root entry and runs it. A FIFO's entry fires the
// FIFO's head; when another item waits behind it the root is rekeyed in
// place and sifted down, one pass instead of a pop and a push.
func (s *Simulation) fire(top *entry) {
	at, ev := top.at, top.ev
	s.now = at
	s.horizon = Key{At: at, Seq: top.seq + 1}
	s.live--
	s.fired++
	if f, ok := ev.(*fifoEvent); ok {
		ev = (*FIFO)(f).pop()
		if next, more := (*FIFO)(f).head(); more {
			e := *top
			e.at, e.seq = next.At, next.Seq
			s.siftDown(e)
		} else {
			s.popTop()
		}
	} else {
		s.popTop()
	}
	ev.Fire(at)
}

// passUntil records that Run has advanced the clock to until: every key
// stamped so far at or before until counts as passed.
func (s *Simulation) passUntil(until Time) {
	if h := (Key{At: until, Seq: s.seq}); s.horizon.Less(h) {
		s.horizon = h
	}
}

// Run executes events in order until the queue empties, Stop is called, or
// simulated time would pass until. Events scheduled exactly at until still
// fire. It returns the time at which the run stopped; the clock never moves
// back, so an until earlier than Now leaves Now unchanged.
//
// When EventLimit is reached the pending event is left in the queue and
// ErrEventLimit is returned; no event is ever silently dropped.
func (s *Simulation) Run(until Time) (Time, error) {
	s.stopped = false
	for !s.stopped {
		top := s.next()
		if top == nil {
			break
		}
		if top.at > until {
			if s.now < until {
				s.now = until
			}
			s.passUntil(until)
			return s.now, nil
		}
		if s.EventLimit != 0 && s.fired >= s.EventLimit {
			return s.now, limitError{s.EventLimit}
		}
		s.fire(top)
	}
	if s.live == 0 && s.now < until && until != MaxTime && !s.stopped {
		s.now = until
		s.passUntil(until)
	}
	return s.now, nil
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Simulation) RunAll() (Time, error) { return s.Run(MaxTime) }

// Step fires exactly one event if any is pending and reports whether it
// did. Its limit-and-stop semantics match Run: the stop flag is reset on
// entry, and reaching EventLimit returns ErrEventLimit with the pending
// event still queued.
func (s *Simulation) Step() (bool, error) {
	s.stopped = false
	top := s.next()
	if top == nil {
		return false, nil
	}
	if s.EventLimit != 0 && s.fired >= s.EventLimit {
		return false, limitError{s.EventLimit}
	}
	s.fire(top)
	return true, nil
}

// Ticker repeatedly invokes a function at a fixed period until cancelled.
type Ticker struct {
	sim    *Simulation
	period Time
	fn     func(now Time)
	handle Handle
	done   bool
}

// NewTicker schedules fn every period, first firing one period from now.
func (s *Simulation) NewTicker(period Time, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.handle = s.AfterFunc(period, t.tick)
	return t
}

func (t *Ticker) tick(now Time) {
	if t.done {
		return
	}
	t.fn(now)
	if !t.done {
		t.handle = t.sim.AfterFunc(t.period, t.tick)
	}
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.done = true
	t.sim.Cancel(t.handle)
}
