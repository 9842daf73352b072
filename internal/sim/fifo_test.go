package sim

import (
	"container/heap"
	"testing"
)

// Stamp takes the sequence number At would take at the same point, so an
// event scheduled through a stamped key fires exactly where At would have
// put it among simultaneous events.
func TestStampTakesAtsSequence(t *testing.T) {
	s := New(1)
	var got []string
	rec := func(name string) Event { return EventFunc(func(Time) { got = append(got, name) }) }
	s.At(Millisecond, rec("a"))
	k := s.Stamp(Millisecond)
	s.At(Millisecond, rec("c"))
	s.Schedule(k, rec("b"))
	if s.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", s.Pending())
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("fired %v, want [a b c]", got)
	}
}

func TestPassed(t *testing.T) {
	s := New(1)
	early := s.Stamp(0)
	if s.Passed(early) {
		t.Fatal("a key passed before anything fired")
	}
	var during []bool
	var mid Key
	s.AfterFunc(Millisecond, func(Time) {
		during = append(during, s.Passed(early), s.Passed(mid))
	})
	mid = s.Stamp(Millisecond) // stamped after the event: not passed while it fires
	late := s.Stamp(3 * Millisecond)
	if _, err := s.Run(2 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(during) != 2 || !during[0] || during[1] {
		t.Fatalf("inside the 1ms event Passed(early, mid) = %v, want [true false]", during)
	}
	// Run advanced the clock to 2ms: the 1ms key would have fired by now,
	// the 3ms one not, and a key stamped now at 2ms lies ahead.
	if !s.Passed(mid) || s.Passed(late) || s.Passed(s.Stamp(2*Millisecond)) {
		t.Fatalf("after Run(2ms) Passed(mid, late) = %v, %v", s.Passed(mid), s.Passed(late))
	}
	if _, err := s.Run(3 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if !s.Passed(late) {
		t.Fatal("a key at the deadline of a Run that reached it has not passed")
	}
	// A Run to the current time, with a later event pending, still passes
	// every key stamped at that time.
	s.AfterFunc(Millisecond, func(Time) {})
	now := s.Stamp(s.Now())
	if _, err := s.Run(s.Now()); err != nil {
		t.Fatal(err)
	}
	if !s.Passed(now) {
		t.Fatal("a key stamped at Now has not passed after Run(Now())")
	}
}

func TestSchedulePassedKeyPanics(t *testing.T) {
	s := New(1)
	k := s.Stamp(0)
	s.AfterFunc(Millisecond, func(Time) {})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a passed key did not panic")
		}
	}()
	s.Schedule(k, EventFunc(func(Time) {}))
}

// FIFO events interleave with ordinary ones in exact key order, an append
// earlier than the tail falls back to the heap, and an event may append to
// its own FIFO while it fires.
func TestFIFOOrder(t *testing.T) {
	s := New(1)
	f := s.NewFIFO()
	var got []string
	rec := func(name string) Event { return EventFunc(func(Time) { got = append(got, name) }) }
	f.Append(s.Stamp(2*Millisecond), rec("f2"))
	s.At(2*Millisecond, rec("h2"))
	f.Append(s.Stamp(2*Millisecond), rec("f2b"))
	f.Append(s.Stamp(5*Millisecond), rec("f5"))
	f.Append(s.Stamp(3*Millisecond), rec("f3")) // earlier than the tail
	s.At(4*Millisecond, rec("h4"))
	f.Append(s.Stamp(5*Millisecond), EventFunc(func(now Time) {
		got = append(got, "f5b")
		f.Append(s.Stamp(now+Millisecond), rec("f6"))
	}))
	if f.Len() != 4 || s.Pending() != 7 {
		t.Fatalf("Len = %d Pending = %d, want 4 parked of 7", f.Len(), s.Pending())
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"f2", "h2", "f2b", "f3", "h4", "f5", "f5b", "f6"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Fired() != uint64(len(want)) || s.Pending() != 0 || f.Len() != 0 {
		t.Fatalf("Fired = %d Pending = %d Len = %d", s.Fired(), s.Pending(), f.Len())
	}
}

// EventLimit counts FIFO events one by one and leaves the limited one
// parked.
func TestFIFOEventLimit(t *testing.T) {
	s := New(1)
	f := s.NewFIFO()
	n := 0
	for i := 0; i < 3; i++ {
		f.Append(s.Stamp(Time(i)), EventFunc(func(Time) { n++ }))
	}
	s.EventLimit = 2
	if _, err := s.RunAll(); !IsEventLimit(err) {
		t.Fatalf("err = %v, want event limit", err)
	}
	if n != 2 || s.Pending() != 1 || f.Len() != 1 {
		t.Fatalf("fired %d, pending %d, parked %d; want 2, 1, 1", n, s.Pending(), f.Len())
	}
	s.EventLimit = 0
	if _, err := s.RunAll(); err != nil || n != 3 {
		t.Fatalf("resume fired %d (err %v), want 3", n, err)
	}
}

// refItem is one event in the reference model: a container/heap ordered
// by key, fed the same keys the simulation hands out.
type refItem struct {
	k         Key
	id        int
	cancelled bool
}

type refHeap []*refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].k.Less(h[j].k) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// orderModel drives a Simulation and a reference heap with the same
// operations and checks they agree on firing order, Pending and Passed.
type orderModel struct {
	t       *testing.T
	s       *Simulation
	fifos   []*FIFO
	ref     refHeap
	items   []*refItem // by id
	handles []Handle   // by id; zero for stamped events
	fired   []int      // ids in the order the simulation fired them
	seq     uint64     // the model's copy of the sequence counter
	now     Time
	horizon Key
	stamped []Key
	// resched maps an event id to the FIFO it re-appends to (with its
	// period) when it fires, exercising appends from inside a FIFO event.
	resched map[int][2]int
}

func newOrderModel(t *testing.T) *orderModel {
	m := &orderModel{t: t, s: New(1), resched: map[int][2]int{}}
	for i := 0; i < 3; i++ {
		m.fifos = append(m.fifos, m.s.NewFIFO())
	}
	return m
}

func (m *orderModel) live() int {
	n := 0
	for _, it := range m.ref {
		if !it.cancelled {
			n++
		}
	}
	return n
}

func (m *orderModel) newItem(k Key) *refItem {
	if k.Seq != m.seq {
		m.t.Fatalf("key seq %d, model expected %d", k.Seq, m.seq)
	}
	m.seq++
	it := &refItem{k: k, id: len(m.items)}
	m.items = append(m.items, it)
	m.handles = append(m.handles, Handle{})
	heap.Push(&m.ref, it)
	return it
}

func (m *orderModel) event(id int) Event {
	return EventFunc(func(now Time) {
		m.fired = append(m.fired, id)
		if r, ok := m.resched[id]; ok && len(m.items) < 4000 {
			m.appendFIFO(r[0], now+Time(r[1]), r)
		}
	})
}

func (m *orderModel) at(at Time) {
	k := Key{At: at, Seq: m.seq}
	it := m.newItem(k)
	m.handles[it.id] = m.s.At(at, m.event(it.id))
}

func (m *orderModel) appendFIFO(i int, at Time, resched [2]int) {
	it := m.newItem(m.s.Stamp(at))
	if resched[1] > 0 {
		m.resched[it.id] = resched
	}
	m.fifos[i].Append(it.k, m.event(it.id))
}

func (m *orderModel) cancel(id int) {
	if id >= len(m.items) || m.handles[id] == (Handle{}) {
		return
	}
	it := m.items[id]
	m.s.Cancel(m.handles[id])
	for _, x := range m.ref {
		if x == it {
			it.cancelled = true
		}
	}
}

// popRef pops the reference's next live event, discarding cancelled ones.
func (m *orderModel) popRef() *refItem {
	for m.ref.Len() > 0 {
		it := heap.Pop(&m.ref).(*refItem)
		if !it.cancelled {
			return it
		}
	}
	return nil
}

// expectFired checks the simulation's newly fired ids against the
// reference's next n pops, where n is however many the simulation fired.
func (m *orderModel) expectFired(from int) {
	for i := from; i < len(m.fired); i++ {
		it := m.popRef()
		if it == nil {
			m.t.Fatalf("simulation fired id %d, reference is empty", m.fired[i])
		}
		if it.id != m.fired[i] {
			m.t.Fatalf("fire #%d: simulation fired id %d (%v), reference id %d (%v)",
				i, m.fired[i], m.items[m.fired[i]].k, it.id, it.k)
		}
		m.now = it.k.At
		m.horizon = Key{At: it.k.At, Seq: it.k.Seq + 1}
	}
}

func (m *orderModel) step() {
	from := len(m.fired)
	ok, err := m.s.Step()
	if err != nil {
		m.t.Fatal(err)
	}
	m.expectFired(from)
	if ok != (len(m.fired) > from) {
		m.t.Fatalf("Step = %v but fired %d", ok, len(m.fired)-from)
	}
}

func (m *orderModel) run(until Time) {
	from := len(m.fired)
	if _, err := m.s.Run(until); err != nil {
		m.t.Fatal(err)
	}
	m.expectFired(from)
	for _, it := range m.ref {
		if !it.cancelled && it.k.At <= until {
			m.t.Fatalf("Run(%v) left id %d at %v unfired", until, it.id, it.k)
		}
	}
	// Run leaves the clock at its deadline when events remain beyond it,
	// or when the queue drained early and the deadline is finite; either
	// way every key stamped so far at or before the deadline has passed.
	if m.live() > 0 || (m.now < until && until != MaxTime) {
		m.now = until
		if h := (Key{At: until, Seq: m.seq}); m.horizon.Less(h) {
			m.horizon = h
		}
	}
	if m.s.Now() != m.now {
		m.t.Fatalf("Run(%v) stopped at %v, model at %v", until, m.s.Now(), m.now)
	}
}

func (m *orderModel) check() {
	if got, want := m.s.Pending(), m.live(); got != want {
		m.t.Fatalf("Pending = %d, reference holds %d live events", got, want)
	}
	for _, k := range m.stamped {
		if got, want := m.s.Passed(k), k.Less(m.horizon); got != want {
			m.t.Fatalf("Passed(%v) = %v, model %v (horizon %v)", k, got, want, m.horizon)
		}
	}
}

// latest is the time of the latest pending event; an append stamped then
// or later is in order for every FIFO.
func (m *orderModel) latest() Time {
	at := m.now
	for _, it := range m.ref {
		if it.k.At > at {
			at = it.k.At
		}
	}
	return at
}

// FuzzEventOrder runs a random mix of At, Cancel, FIFO appends (in order
// and out of order, some re-appending from inside their own event),
// Stamp/Passed queries, Step and Run against a container/heap reference
// fed the same keys: the firing order, Pending, Now and every Passed
// answer must agree.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 5, 2, 1, 3, 2, 0, 7, 4, 3, 6, 1, 7, 20, 5, 0, 2, 9, 8, 40})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 1, 3, 1, 1, 0, 6, 6, 6, 7, 3, 4, 9, 2, 2, 5, 7, 255})
	f.Add([]byte{5, 10, 0, 0, 4, 0, 4, 1, 0, 0, 0, 0, 7, 0, 6, 6, 1, 2, 7, 255, 9, 3})
	f.Add([]byte{0, 1, 5, 0, 7, 0}) // At(1), Stamp(0), Run(0): the stamp passes
	f.Fuzz(runOrder)
}

func runOrder(t *testing.T, ops []byte) {
	// The model's checks scan everything pending after every operation;
	// a few hundred operations reach every path.
	if len(ops) > 512 {
		ops = ops[:512]
	}
	{
		m := newOrderModel(t)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			op, arg := next()%10, next()
			switch op {
			case 0: // ordinary event
				m.at(m.now + Time(arg%8))
			case 1: // cancel some earlier event
				m.cancel(arg)
			case 2: // in-order FIFO append
				i := arg % len(m.fifos)
				m.appendFIFO(i, m.latest()+Time(arg%3), [2]int{})
			case 3: // possibly out-of-order FIFO append
				m.appendFIFO(arg%len(m.fifos), m.now+Time(arg%5), [2]int{})
			case 4: // self-rescheduling FIFO event, a constant-rate source
				i := arg % len(m.fifos)
				m.appendFIFO(i, m.latest(), [2]int{i, 1 + arg%4})
			case 5: // stamp a key nothing will schedule
				k := m.s.Stamp(m.now + Time(arg%6))
				if k.Seq != m.seq {
					t.Fatalf("Stamp seq %d, model %d", k.Seq, m.seq)
				}
				m.seq++
				m.stamped = append(m.stamped, k)
			case 6:
				m.step()
			case 7:
				m.run(m.now + Time(arg%16))
			case 8: // Run to a deadline with nothing left (queue may drain)
				m.run(m.now + Time(arg))
			case 9:
				for _, id := range []int{arg, arg / 2} {
					m.cancel(id)
				}
			}
			m.check()
		}
		// Drain, dropping the self-rescheduling chains' bound.
		for id := range m.resched {
			delete(m.resched, id)
		}
		m.run(MaxTime)
		m.check()
		if m.s.Pending() != 0 || m.live() != 0 {
			t.Fatalf("Pending %d after RunAll", m.s.Pending())
		}
	}
}
