package auth

// ReplayWindowSize is how many nonces a ReplayWindow tracks: the highest
// one it accepted and the ReplayWindowSize-1 below it.
const ReplayWindowSize = 64

// ReplayWindow is the anti-replay window of RFC 4303 §3.4.3 over one
// certificate's request nonces. A nonce is fresh if it is above every
// nonce accepted so far, or inside the window and not yet accepted, so
// requests that concurrent connections deliver out of order still pass;
// one accepted before, or ReplayWindowSize or more below the highest, is
// a replay. The zero value accepts any first nonce. Not safe for
// concurrent use.
type ReplayWindow struct {
	top  uint64 // highest nonce accepted
	seen uint64 // bit i set: nonce top-i was accepted
}

// Accept reports whether nonce is fresh and, if so, records it.
func (w *ReplayWindow) Accept(nonce uint64) bool {
	if nonce > w.top {
		if shift := nonce - w.top; shift < ReplayWindowSize {
			w.seen = w.seen<<shift | 1
		} else {
			w.seen = 1
		}
		w.top = nonce
		return true
	}
	age := w.top - nonce
	if age >= ReplayWindowSize || w.seen&(1<<age) != 0 {
		return false
	}
	w.seen |= 1 << age
	return true
}
