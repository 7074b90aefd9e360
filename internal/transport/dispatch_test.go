package transport

import (
	"testing"

	"repro/internal/broker"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestDispatchZeroAllocs pins Dispatch's target lookup at zero allocations
// per copy, both for a node no session subscribes to and for a node with
// one session behind it. Dispatch runs on every broker fan-out worker for
// every accepted copy, so a per-copy allocation or lock there is paid at
// the full delivery rate.
//
// Skipped under -race: the detector's shadow memory inflates
// testing.AllocsPerRun. `make alloc-regression` runs it uninstrumented.
func TestDispatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	srv := NewServer(Config{FlushWindow: -1})
	const node topology.NodeID = 7
	d := broker.Delivery{
		Event:      workload.Event{Point: []float64{1, 2}},
		Seq:        1,
		Group:      -1,
		Interested: true,
	}
	if a := testing.AllocsPerRun(1000, func() { srv.Dispatch(node, d) }); a != 0 {
		t.Fatalf("Dispatch to a node without sessions allocates %.1f times per copy, want 0", a)
	}

	s := newSession(srv, 1, 0)
	srv.mu.Lock()
	srv.addNodeRef(s, node)
	srv.mu.Unlock()
	s.queue = make([]wire.Deliver, 0, 1)
	got := 0
	a := testing.AllocsPerRun(1000, func() {
		srv.Dispatch(node, d)
		s.mu.Lock()
		got += len(s.queue)
		s.queue = s.queue[:0]
		s.mu.Unlock()
	})
	if a != 0 {
		t.Fatalf("Dispatch to a node with one session allocates %.1f times per copy, want 0", a)
	}
	if got != 1001 { // AllocsPerRun adds one warm-up call
		t.Fatalf("session queued %d copies, want 1001", got)
	}
}
