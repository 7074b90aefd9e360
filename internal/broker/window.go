package broker

import "sort"

// seqWindow is a fixed-footprint sliding-window duplicate detector over
// publication sequence numbers. It replaces the old unbounded
// map[int64]bool per node: memory is exactly one int64 slot per window
// position for the life of the broker, regardless of how many events flow.
//
// The window covers the last size sequence numbers ending at the highest
// value admitted so far. Within any size consecutive sequence numbers the
// residues seq % size are unique, so one slot per residue suffices: a slot
// holding seq means "seq was seen", and overwriting it when a newer number
// with the same residue arrives is exactly the window sliding forward.
// Sequence numbers at or below max-size have fallen out of the window and
// are conservatively treated as duplicates — duplicates only arise from
// immediate retransmission, so a correctly sized window never misclassifies
// a first delivery.
//
// Not safe for concurrent use; the broker wraps each node's window in a
// lockedWindow.
type seqWindow struct {
	slots []int64
	max   int64 // highest sequence number admitted; -1 before the first
}

func newSeqWindow(size int) *seqWindow {
	if size < 1 {
		size = 1
	}
	w := &seqWindow{slots: make([]int64, size), max: -1}
	for i := range w.slots {
		w.slots[i] = -1
	}
	return w
}

// fresh reports whether admit(seq) would return true, without recording
// anything. It lets callers interpose a side effect (journalling an ack)
// between the duplicate check and the admission.
func (w *seqWindow) fresh(seq int64) bool {
	if seq < 0 {
		return false
	}
	if w.max >= int64(len(w.slots)) && seq <= w.max-int64(len(w.slots)) {
		return false // below the window: assume seen
	}
	return w.slots[seq%int64(len(w.slots))] != seq
}

// admit reports whether seq is new (true) or a duplicate / fallen out of
// the window (false), and records it. Allocation-free.
func (w *seqWindow) admit(seq int64) bool {
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

// snapshot returns the window's durable form: the high-water mark and the
// seqs still inside the window, ascending. Everything at or below
// max-size is already implied by the high-water mark.
func (w *seqWindow) snapshot() (max int64, seqs []int64) {
	size := int64(len(w.slots))
	for _, s := range w.slots {
		if s >= 0 && (w.max < size || s > w.max-size) {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return w.max, seqs
}

// restoreSeqWindow rebuilds a window of the given size from a snapshot.
// When size differs from the captured window's, the oldest seqs may fall
// below the restored window — the safe direction for recovery, since
// fallen-out seqs read as already seen (suppressing redelivery rather
// than duplicating it).
func restoreSeqWindow(size int, max int64, seqs []int64) *seqWindow {
	w := newSeqWindow(size)
	sorted := append([]int64(nil), seqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, s := range sorted {
		w.admit(s)
	}
	if max > w.max {
		w.max = max
	}
	return w
}
