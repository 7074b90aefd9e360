package federate

import (
	"math"
	"sync"
	"time"
)

// windowEmpty marks an unused ring slot in both window types. Global
// seqs start at 0 and synthetic replay keys are bit-complements of
// non-negative values, so MinInt64 collides with neither.
const windowEmpty = math.MinInt64

// dedupWindow remembers the last N keys admitted for one subscriber
// node and rejects re-admissions. Bounded: when the ring wraps, the
// oldest key is forgotten (a duplicate older than the window would slip
// through, so the window must exceed the deliveries a shard can have in
// flight — see Config.DedupWindow). Callers hold the router's dedup
// lock; the window itself is not concurrency-safe.
type dedupWindow struct {
	seen map[int64]struct{}
	ring []int64
	next int
}

func newDedupWindow(n int) *dedupWindow {
	w := &dedupWindow{
		seen: make(map[int64]struct{}, n),
		ring: make([]int64, n),
	}
	for i := range w.ring {
		w.ring[i] = windowEmpty
	}
	return w
}

// admit reports whether key is new, recording it if so.
func (w *dedupWindow) admit(key int64) bool {
	if _, dup := w.seen[key]; dup {
		return false
	}
	if old := w.ring[w.next]; old != windowEmpty {
		delete(w.seen, old)
	}
	w.ring[w.next] = key
	w.next = (w.next + 1) % len(w.ring)
	w.seen[key] = struct{}{}
	return true
}

// seqMap translates one shard's local publication seqs to router-global
// seqs. Bounded the same way as dedupWindow. A shard's deliveries race
// the router's own bookkeeping — the broker can deliver an event before
// the DecideSeq call that published it returns — so the router's Feed
// path waits for a missing entry, woken by the record that adds it,
// before declaring it unmapped.
type seqMap struct {
	mu   sync.Mutex
	m    map[int64]int64
	ring []int64
	next int
	// recorded is closed and replaced by the first record after a waiter
	// took it (waiting), waking every await blocked on a missing entry.
	recorded chan struct{}
	waiting  bool
}

func newSeqMap(n int) *seqMap {
	s := &seqMap{
		m:        make(map[int64]int64, n),
		ring:     make([]int64, n),
		recorded: make(chan struct{}),
	}
	for i := range s.ring {
		s.ring[i] = windowEmpty
	}
	return s
}

// record stores local→global.
func (s *seqMap) record(local, global int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[local]; !ok {
		if old := s.ring[s.next]; old != windowEmpty {
			delete(s.m, old)
		}
		s.ring[s.next] = local
		s.next = (s.next + 1) % len(s.ring)
	}
	s.m[local] = global
	if s.waiting {
		close(s.recorded)
		s.recorded = make(chan struct{})
		s.waiting = false
	}
}

// lookup returns the global seq recorded for local, without waiting.
func (s *seqMap) lookup(local int64) (int64, bool) {
	s.mu.Lock()
	g, ok := s.m[local]
	s.mu.Unlock()
	return g, ok
}

// await returns the global seq recorded for local, waiting at most wait
// for the record to land — woken by each record, not polling — and giving
// up early when done closes.
func (s *seqMap) await(local int64, wait time.Duration, done <-chan struct{}) (int64, bool) {
	s.mu.Lock()
	g, ok := s.m[local]
	if ok {
		s.mu.Unlock()
		return g, true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		ch := s.recorded
		s.waiting = true
		s.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return s.lookup(local)
		case <-done:
			return s.lookup(local)
		}
		s.mu.Lock()
		if g, ok := s.m[local]; ok {
			s.mu.Unlock()
			return g, true
		}
	}
}
