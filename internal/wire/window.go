package wire

// Window is a fixed-footprint sliding-window duplicate detector over
// sequence numbers — the same residue-slot construction the broker uses
// for per-node delivery dedup, exported here so both ends of a
// connection can run the reliability protocol: the server dedups client
// publish sequence numbers (a publish retransmitted after a reconnect
// enters the broker exactly once), and the client dedups delivery ids
// re-sent after a resume.
//
// The window covers the last size sequence numbers ending at the highest
// value admitted so far. Within any size consecutive sequence numbers the
// residues seq % size are unique, so one slot per residue suffices; a
// number at or below max-size has fallen out of the window and is
// conservatively treated as already seen. Duplicates only arise from
// immediate retransmission, so a correctly sized window never
// misclassifies a first arrival.
//
// Not safe for concurrent use.
type Window struct {
	slots []int64
	max   int64
}

// NewWindow returns a window remembering the last size sequence numbers
// (minimum 1).
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	w := &Window{slots: make([]int64, size), max: -1}
	for i := range w.slots {
		w.slots[i] = -1
	}
	return w
}

// Admit reports whether seq is new (true) or a duplicate / fallen out of
// the window (false), and records it. Allocation-free.
func (w *Window) Admit(seq int64) bool {
	if seq < 0 {
		return false
	}
	if w.max >= int64(len(w.slots)) && seq <= w.max-int64(len(w.slots)) {
		return false // below the window: assume seen
	}
	i := seq % int64(len(w.slots))
	if w.slots[i] == seq {
		return false
	}
	w.slots[i] = seq
	if seq > w.max {
		w.max = seq
	}
	return true
}

// Seen reports whether seq would be rejected as a duplicate, without
// recording it. Pairs with Admit in check-then-act protocols where the
// act can fail: the server checks Seen before handing a publish to the
// broker and only Admits once the broker accepted it, so a failed
// publish stays retryable.
func (w *Window) Seen(seq int64) bool {
	if seq < 0 {
		return true
	}
	if w.max >= int64(len(w.slots)) && seq <= w.max-int64(len(w.slots)) {
		return true
	}
	return w.slots[seq%int64(len(w.slots))] == seq
}

// Max returns the highest sequence number admitted so far (-1 before the
// first).
func (w *Window) Max() int64 { return w.max }
