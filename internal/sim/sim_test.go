package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.AfterFunc(30*Millisecond, func(Time) { got = append(got, 3) })
	s.AfterFunc(10*Millisecond, func(Time) { got = append(got, 1) })
	s.AfterFunc(20*Millisecond, func(Time) { got = append(got, 2) })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.AfterFunc(5*Millisecond, func(Time) { got = append(got, i) })
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of scheduling order at %d: %v", i, got[:i+1])
		}
	}
}

func TestNowAdvances(t *testing.T) {
	s := New(1)
	var at Time
	s.AfterFunc(7*Second, func(now Time) { at = now })
	end, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if at != 7*Second {
		t.Errorf("event saw now=%v, want 7s", at)
	}
	if end != 7*Second {
		t.Errorf("RunAll returned %v, want 7s", end)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New(1)
	fired := 0
	s.AfterFunc(1*Second, func(Time) { fired++ })
	s.AfterFunc(3*Second, func(Time) { fired++ })
	end, err := s.Run(2 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if end != 2*Second {
		t.Errorf("end = %v, want 2s", end)
	}
	// The remaining event still fires on a later Run.
	if _, err := s.Run(4 * Second); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("after second run fired = %d, want 2", fired)
	}
}

// TestRunEarlierDeadlineKeepsClock runs to 15ms with events at 10ms and
// 20ms, then asks for 5ms: the clock must stay at 15ms, so a later At(6ms)
// is in the past and panics instead of firing after the 10ms event.
func TestRunEarlierDeadlineKeepsClock(t *testing.T) {
	s := New(1)
	var fired []Time
	record := EventFunc(func(now Time) { fired = append(fired, now) })
	s.At(10*Millisecond, record)
	s.At(20*Millisecond, record)
	if end, err := s.Run(15 * Millisecond); err != nil || end != 15*Millisecond {
		t.Fatalf("Run(15ms) = %v, %v", end, err)
	}
	if end, err := s.Run(5 * Millisecond); err != nil || end != 15*Millisecond {
		t.Fatalf("Run(5ms) = %v, %v; want 15ms", end, err)
	}
	if s.Now() != 15*Millisecond {
		t.Fatalf("Now() = %v after Run(5ms), want 15ms", s.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At(6ms) after the clock reached 15ms did not panic")
			}
		}()
		s.At(6*Millisecond, record)
	}()
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{10 * Millisecond, 20 * Millisecond}; !slices.Equal(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
}

func TestEventAtDeadlineFires(t *testing.T) {
	s := New(1)
	fired := false
	s.AfterFunc(2*Second, func(Time) { fired = true })
	if _, err := s.Run(2 * Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event scheduled exactly at deadline did not fire")
	}
}

func TestSchedulingDuringEvent(t *testing.T) {
	s := New(1)
	var order []string
	s.AfterFunc(1*Second, func(now Time) {
		order = append(order, "a")
		s.AfterFunc(1*Second, func(Time) { order = append(order, "c") })
	})
	s.AfterFunc(1500*Millisecond, func(Time) { order = append(order, "b") })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	h := s.AfterFunc(1*Second, func(Time) { fired = true })
	s.Cancel(h)
	if !h.Cancelled() {
		t.Error("handle not marked cancelled")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	s.Cancel(h) // double cancel is a no-op
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []int
	var handles []Handle
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, s.AfterFunc(Time(i+1)*Millisecond, func(Time) { got = append(got, i) }))
	}
	s.Cancel(handles[4])
	s.Cancel(handles[7])
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.AfterFunc(Time(i)*Second, func(Time) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3 (Stop should halt the loop)", count)
	}
	if s.Pending() != 7 {
		t.Errorf("pending = %d, want 7", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.AfterFunc(5*Second, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1*Second, EventFunc(func(Time) {}))
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New(1).After(-1, EventFunc(func(Time) {}))
}

func TestEventLimit(t *testing.T) {
	s := New(1)
	s.EventLimit = 10
	var tick func(now Time)
	tick = func(now Time) { s.AfterFunc(Millisecond, tick) }
	s.AfterFunc(Millisecond, tick)
	_, err := s.RunAll()
	if err == nil {
		t.Fatal("expected event-limit error for unbounded self-scheduling")
	}
	if !IsEventLimit(err) {
		t.Fatalf("err = %v, want event-limit error", err)
	}
}

// Reaching the event limit must not drop the pending event: it stays
// queued, and raising the limit resumes exactly where the run stopped.
func TestEventLimitKeepsPendingEvent(t *testing.T) {
	s := New(1)
	s.EventLimit = 2
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		s.AfterFunc(Time(i+1)*Millisecond, func(Time) { got = append(got, i) })
	}
	if _, err := s.RunAll(); !IsEventLimit(err) {
		t.Fatalf("err = %v, want event-limit error", err)
	}
	if len(got) != 2 || s.Fired() != 2 {
		t.Fatalf("fired %v (Fired=%d), want exactly the first 2 events", got, s.Fired())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want the limited event still queued", s.Pending())
	}
	s.EventLimit = 0
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("resumed run fired %v, want the third event", got)
	}
}

// Step must enforce the same limit semantics as Run: error before popping,
// event retained.
func TestStepEventLimit(t *testing.T) {
	s := New(1)
	s.EventLimit = 1
	fired := 0
	s.AfterFunc(Millisecond, func(Time) { fired++ })
	s.AfterFunc(2*Millisecond, func(Time) { fired++ })
	ok, err := s.Step()
	if !ok || err != nil {
		t.Fatalf("first Step = %v, %v", ok, err)
	}
	ok, err = s.Step()
	if ok || !IsEventLimit(err) {
		t.Fatalf("second Step = %v, %v, want event-limit error", ok, err)
	}
	if fired != 1 || s.Pending() != 1 {
		t.Fatalf("fired = %d pending = %d, want 1/1 (event retained)", fired, s.Pending())
	}
	s.EventLimit = 0
	if ok, err := s.Step(); !ok || err != nil {
		t.Fatalf("Step after raising limit = %v, %v", ok, err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// Step resets the stop flag on entry, exactly like Run: a stale Stop from
// a previous run or from outside a run does not suppress stepping.
func TestStepResetsStopFlag(t *testing.T) {
	s := New(1)
	fired := 0
	s.AfterFunc(Millisecond, func(Time) { fired++ })
	s.Stop()
	ok, err := s.Step()
	if !ok || err != nil || fired != 1 {
		t.Fatalf("Step after Stop = %v, %v (fired=%d), want it to fire", ok, err, fired)
	}
}

// Step must skip lazily-cancelled events rather than firing or counting
// them.
func TestStepSkipsCancelled(t *testing.T) {
	s := New(1)
	fired := 0
	h := s.AfterFunc(Millisecond, func(Time) { t.Error("cancelled event fired") })
	s.AfterFunc(2*Millisecond, func(Time) { fired++ })
	s.Cancel(h)
	ok, err := s.Step()
	if !ok || err != nil || fired != 1 {
		t.Fatalf("Step = %v, %v (fired=%d), want the live event to fire", ok, err, fired)
	}
	if s.Fired() != 1 {
		t.Fatalf("Fired = %d, cancelled event must not count", s.Fired())
	}
}

// Handles must read as Cancelled once their event fires, even after the
// internal slot is recycled by later scheduling.
func TestHandleInvalidAfterFire(t *testing.T) {
	s := New(1)
	h := s.AfterFunc(Millisecond, func(Time) {})
	if h.Cancelled() {
		t.Fatal("fresh handle reads cancelled")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !h.Cancelled() {
		t.Fatal("handle still live after event fired")
	}
	// Recycle the slot; the stale handle must stay dead and cancelling it
	// must not kill the new event.
	fired := false
	s.AfterFunc(Millisecond, func(Time) { fired = true })
	if !h.Cancelled() {
		t.Fatal("stale handle revived by slot reuse")
	}
	s.Cancel(h)
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("cancelling a stale handle killed an unrelated event")
	}
}

// The AfterFunc+Run steady state must not allocate: scheduling reuses
// queue capacity and liveness slots, and firing pops by value. FIFO
// appends — in order, out of order (straight to the heap) and from inside
// a FIFO event — reuse the FIFO's backing array.
func TestSteadyStateZeroAllocs(t *testing.T) {
	s := New(1)
	f := s.NewFIFO()
	fn := EventFunc(func(Time) {})
	var resched EventFunc
	n := 0
	resched = func(now Time) {
		if n++; n%4 != 0 {
			f.Append(s.Stamp(now+Microsecond), resched)
		}
	}
	round := func() {
		s.AfterFunc(Microsecond, fn)
		s.AfterFunc(2*Microsecond, fn)
		now := s.Now()
		f.Append(s.Stamp(now+Microsecond), fn)
		f.Append(s.Stamp(now+3*Microsecond), resched)
		f.Append(s.Stamp(now+2*Microsecond), fn) // earlier than the tail
		for i := 0; i < 8; i++ {
			f.Append(s.Stamp(now+Time(4+i)*Microsecond), fn)
		}
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		s.AfterFunc(Time(i)*Microsecond, fn)
	}
	round()
	avg := testing.AllocsPerRun(200, round)
	if avg != 0 {
		t.Errorf("AfterFunc/FIFO+Run steady state allocates %v per op, want 0", avg)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after RunAll", s.Pending())
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	fired := 0
	s.AfterFunc(Millisecond, func(Time) { fired++ })
	s.AfterFunc(2*Millisecond, func(Time) { fired++ })
	ok, err := s.Step()
	if err != nil || !ok {
		t.Fatalf("Step = %v, %v", ok, err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after one step", fired)
	}
	if s.Now() != Millisecond {
		t.Fatalf("now = %v, want 1ms", s.Now())
	}
	ok, _ = s.Step()
	if !ok || fired != 2 {
		t.Fatal("second step did not fire second event")
	}
	ok, _ = s.Step()
	if ok {
		t.Fatal("Step reported firing with empty queue")
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var times []Time
	tk := s.NewTicker(10*Millisecond, func(now Time) {
		times = append(times, now)
		if len(times) == 5 {
			// Stop from within the callback.
		}
	})
	s.AfterFunc(55*Millisecond, func(Time) { tk.Stop() })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(times))
	}
	for i, tm := range times {
		if want := Time(i+1) * 10 * Millisecond; tm != want {
			t.Errorf("tick %d at %v, want %v", i, tm, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.NewTicker(Millisecond, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("ticker fired %d times after in-callback Stop, want 3", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s := New(seed)
		var vals []uint64
		for i := 0; i < 50; i++ {
			d := Time(s.RNG().Intn(1000)) * Microsecond
			s.AfterFunc(d, func(now Time) { vals = append(vals, uint64(now)^s.RNG().Uint64()) })
		}
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical runs")
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.5s" {
		t.Errorf("String = %q, want 1.5s", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

func TestRunAllAdvancesToLastEvent(t *testing.T) {
	s := New(1)
	s.AfterFunc(3*Second, func(Time) {})
	end, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if end != 3*Second {
		t.Errorf("end = %v, want 3s", end)
	}
}

// Property: events always fire in non-decreasing time order regardless of the
// order they were scheduled in.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []Time
		for _, d := range delays {
			s.AfterFunc(Time(d)*Microsecond, func(now Time) { fired = append(fired, now) })
		}
		if _, err := s.RunAll(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a subset of events fires exactly the complement.
func TestPropertyCancelComplement(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		s := New(9)
		fired := make(map[int]bool)
		var handles []Handle
		for i, d := range delays {
			i := i
			handles = append(handles, s.AfterFunc(Time(d)*Microsecond, func(Time) { fired[i] = true }))
		}
		cancelled := make(map[int]bool)
		for i, h := range handles {
			if i < len(cancelMask) && cancelMask[i] {
				s.Cancel(h)
				cancelled[i] = true
			}
		}
		if _, err := s.RunAll(); err != nil {
			return false
		}
		for i := range delays {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
