package auth

import "testing"

func TestReplayWindow(t *testing.T) {
	var w ReplayWindow
	steps := []struct {
		nonce uint64
		want  bool
	}{
		{1, true}, {1, false}, // exact replay
		{2, true}, {5, true}, {4, true}, {3, true}, // reordered inside the window
		{4, false},
		{100, true},
		{37, true},  // 63 below the highest: the window's oldest slot
		{36, false}, // 64 below: too old, even though never seen
		{37, false},
		{0, false},
		{1 << 40, true}, // a jump past the window clears it
		{1<<40 - 63, true},
		{1<<40 - 64, false},
		{1 << 40, false},
	}
	for i, s := range steps {
		if got := w.Accept(s.nonce); got != s.want {
			t.Fatalf("step %d: Accept(%d) = %v, want %v", i, s.nonce, got, s.want)
		}
	}
	var fresh ReplayWindow
	if !fresh.Accept(0) || fresh.Accept(0) {
		t.Error("a fresh window must accept nonce 0 once")
	}
}

// refWindow is the replay window's specification: a nonce is accepted
// iff it was never accepted before and is not ReplayWindowSize or more
// below the highest nonce accepted so far.
type refWindow struct {
	max      uint64
	accepted map[uint64]bool
}

func (r *refWindow) accept(n uint64) bool {
	if r.accepted[n] || (n < r.max && r.max-n >= ReplayWindowSize) {
		return false
	}
	r.accepted[n] = true
	if n > r.max {
		r.max = n
	}
	return true
}

// FuzzReplayWindow checks the bitmap window against the map-based
// specification over nonce sequences built from the input: forward steps,
// backward steps around the window edge, large jumps and repeats.
func FuzzReplayWindow(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 0, 70, 1, 63, 1, 64, 1, 65})
	f.Add([]byte{2, 255, 6, 9, 3, 0, 3, 1, 1, 200})
	f.Add([]byte{0, 3, 0, 2, 1, 1, 1, 2, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ReplayWindow
		ref := refWindow{accepted: map[uint64]bool{}}
		var last uint64
		for i := 0; i+1 < len(data); i += 2 {
			op, v := data[i], uint64(data[i+1])
			var n uint64
			switch op & 3 {
			case 0:
				n = ref.max + v
			case 1:
				if v <= ref.max {
					n = ref.max - v
				}
			case 2:
				n = v << (op >> 2)
			case 3:
				n = last
			}
			got, want := w.Accept(n), ref.accept(n)
			if got != want {
				t.Fatalf("op %d: Accept(%d) = %v, specification says %v (highest %d)", i/2, n, got, want, ref.max)
			}
			last = n
		}
	})
}
