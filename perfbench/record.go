package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/topology"
)

const (
	chunkBits = 16
	chunkLen  = 1 << chunkBits
	maxChunks = 1 << 12
)

// clog is an append-only log safe for concurrent appends without a lock:
// each append claims an index with one atomic add and writes its slot.
// Read it only after every appender has finished.
//
// Its chunks are mapped outside the Go heap, so T must hold no pointers.
// A run logs millions of copies; on the heap that log would be most of
// the live heap and, growing through the run, would space the collector's
// cycles further apart window by window, so the program would run faster
// at the end of a phase than at its start. Off the heap the collector
// paces against the program's own heap alone.
type clog[T any] struct {
	n      atomic.Int64
	chunks [maxChunks]atomic.Pointer[[chunkLen]T]
	mu     sync.Mutex
	maps   [][]byte // the mapped chunks, unmapped by reset
}

func (l *clog[T]) add(v T) {
	i := l.n.Add(1) - 1
	c := i >> chunkBits
	if c >= maxChunks {
		return // beyond 268M records; len() caps at capacity
	}
	ch := l.chunks[c].Load()
	if ch == nil {
		fresh, mem := mapChunk[T]()
		if l.chunks[c].CompareAndSwap(nil, fresh) {
			ch = fresh
			if mem != nil {
				l.mu.Lock()
				l.maps = append(l.maps, mem)
				l.mu.Unlock()
			}
		} else {
			if mem != nil {
				_ = syscall.Munmap(mem) // the loser's own fresh mapping; a failure only leaks it
			}
			ch = l.chunks[c].Load()
		}
	}
	ch[i&(chunkLen-1)] = v
}

// mapChunk maps one zeroed chunk outside the Go heap and returns it with
// its mapping, or a chunk on the heap and nil if the mapping failed.
func mapChunk[T any]() (*[chunkLen]T, []byte) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, int(unsafe.Sizeof(zero))*chunkLen,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return new([chunkLen]T), nil
	}
	return (*[chunkLen]T)(unsafe.Pointer(&mem[0])), mem
}

func (l *clog[T]) len() int {
	return int(min(l.n.Load(), maxChunks*chunkLen))
}

// bytes is the size of the records appended so far.
func (l *clog[T]) bytes() float64 {
	var zero T
	return float64(l.len()) * float64(unsafe.Sizeof(zero))
}

func (l *clog[T]) at(i int) T { return l.chunks[i>>chunkBits].Load()[i&(chunkLen-1)] }

// reset empties the log and unmaps its chunks. Nothing may append to or
// read the log while it runs.
func (l *clog[T]) reset() {
	l.n.Store(0)
	for i := range l.chunks {
		l.chunks[i].Store(nil)
	}
	l.mu.Lock()
	for _, mem := range l.maps {
		_ = syscall.Munmap(mem) // a failure only leaves the chunk mapped
	}
	l.maps = nil
	l.mu.Unlock()
}

// copyRec is one message copy as the subscriber side received it.
type copyRec struct {
	seq        int64
	t          int64 // ns since the run's epoch
	node       int32
	interested bool
}

// clock gives run-relative monotonic nanoseconds.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sink receives every copy a stack delivers. It logs the copy and, while a
// closed loop runs, counts interested copies towards completing their event.
type sink struct {
	clk     clock
	copies  clog[copyRec]
	tracker atomic.Pointer[tracker]
}

func (s *sink) deliver(n topology.NodeID, seq int64, interested bool) {
	s.copies.add(copyRec{seq: seq, t: s.clk.now(), node: int32(n), interested: interested})
	if interested {
		if tr := s.tracker.Load(); tr != nil {
			tr.count(seq)
		}
	}
}

func (s *sink) reset() { s.copies.reset() }

// tracker completes closed-loop events: the publisher arms an event's seq
// with the number of interested copies the oracle expects, the sink counts
// arrivals, and whichever side sees the two meet wakes the publisher.
type tracker struct {
	base  int64
	slots []trackSlot
	wake  []chan struct{}
}

type trackSlot struct {
	need  atomic.Int32 // -1 until armed
	got   atomic.Int32
	fin   atomic.Bool
	owner int32 // written before need is stored
}

func newTracker(base int64, n, workers int) *tracker {
	t := &tracker{base: base, slots: make([]trackSlot, n), wake: make([]chan struct{}, workers)}
	for i := range t.slots {
		t.slots[i].need.Store(-1)
	}
	for i := range t.wake {
		t.wake[i] = make(chan struct{}, 1)
	}
	return t
}

func (t *tracker) slot(seq int64) *trackSlot {
	i := seq - t.base
	if i < 0 || i >= int64(len(t.slots)) {
		return nil
	}
	return &t.slots[i]
}

func (t *tracker) count(seq int64) {
	s := t.slot(seq)
	if s == nil {
		return
	}
	g := s.got.Add(1)
	if n := s.need.Load(); n >= 0 && g >= n && s.fin.CompareAndSwap(false, true) {
		select {
		case t.wake[s.owner] <- struct{}{}:
		default: // a stale token is pending; the owner re-checks fin
		}
	}
}

// await arms seq for worker w and waits until its need copies arrived or
// the timeout passed. It reports false on timeout or an untrackable seq.
func (t *tracker) await(seq int64, w int, need int, timeout time.Duration) bool {
	s := t.slot(seq)
	if s == nil {
		return false
	}
	s.owner = int32(w)
	s.need.Store(int32(need))
	if s.got.Load() >= int32(need) && s.fin.CompareAndSwap(false, true) {
		return true
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for !s.fin.Load() {
		select {
		case <-t.wake[w]:
		case <-deadline.C:
			return s.fin.Load()
		}
	}
	return true
}
