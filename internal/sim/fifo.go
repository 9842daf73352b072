package sim

// FIFO queues events whose keys arrive in firing order behind a single
// heap entry keyed by its head item. A link's arrivals (serialization is
// first-in first-out and the propagation delay is fixed) and the
// reschedules of constant-rate sources sharing one period are such
// streams: parking them here keeps the heap one entry per stream deep
// while each event still fires at its own key, in exactly the order the
// heap alone would give.
//
// An append earlier than the FIFO's tail (a delay lowered mid-flight,
// jitter) cannot wait in line; it goes straight onto the heap under its
// own key, so order stays exact either way. Parked events count in
// Pending and in Fired one by one; they cannot be cancelled.
type FIFO struct {
	s     *Simulation
	items []fifoItem // items[first:] are parked, in key order
	first int
}

type fifoItem struct {
	k  Key
	ev Event
}

// fifoEvent is the Event a FIFO's heap entry carries. It is a type of its
// own so that Simulation.fire recognizes the entry, fires the head item
// and rekeys the root to the next one.
type fifoEvent FIFO

// Fire implements Event. Simulation.fire never calls it: it handles FIFO
// entries itself.
func (e *fifoEvent) Fire(Time) { panic("sim: FIFO entry fired outside Simulation.fire") }

// NewFIFO returns an empty FIFO on s.
func (s *Simulation) NewFIFO() *FIFO { return &FIFO{s: s} }

// Len returns the number of events parked in f (fallbacks sent to the
// heap are not counted).
func (f *FIFO) Len() int { return len(f.items) - f.first }

// Append queues ev at key k, stamped earlier by f's simulation. A key
// earlier than the tail's is scheduled on the heap directly.
func (f *FIFO) Append(k Key, ev Event) {
	switch n := len(f.items); {
	case n == 0:
		// The FIFO's own entry stands for the head item, and Schedule
		// counts it.
		f.s.Schedule(k, (*fifoEvent)(f))
	case k.Less(f.items[n-1].k):
		f.s.Schedule(k, ev)
		return
	default:
		if n == cap(f.items) && f.first >= n/2 {
			// Slide the parked items down rather than growing: the
			// backing array stays at about twice the longest backlog.
			m := copy(f.items, f.items[f.first:])
			clear(f.items[m:n])
			f.items = f.items[:m]
			f.first = 0
		}
		f.s.live++
	}
	f.items = append(f.items, fifoItem{k, ev})
}

// pop removes and returns the head event.
func (f *FIFO) pop() Event {
	it := &f.items[f.first]
	ev := it.ev
	*it = fifoItem{}
	f.first++
	if f.first == len(f.items) {
		f.items = f.items[:0]
		f.first = 0
	}
	return ev
}

// head returns the head item's key, if any.
func (f *FIFO) head() (Key, bool) {
	if f.first == len(f.items) {
		return Key{}, false
	}
	return f.items[f.first].k, true
}
