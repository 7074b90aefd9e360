package broker

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestGoroutinesIndependentOfNodes pins the broker's goroutine count at
// its fixed pipeline — decision workers, fan-out workers and the writer —
// over a world with more than 500 subscriber nodes, and checks that
// subscribing owners on nodes the broker has never routed to adds none.
// A goroutine per subscriber node would mean a million goroutines at a
// million subscribers.
func TestGoroutinesIndependentOfNodes(t *testing.T) {
	g, err := topology.Generate(topology.Config{
		TransitBlocks: 2, TransitPerBlock: 4,
		StubsPerTransit: 4, NodesPerStub: 24,
		ExtraEdgeProb: 0.05,
		Seed:          500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stubs []topology.NodeID
	for n := 0; n < g.NumNodes(); n++ {
		if g.Node(topology.NodeID(n)).Kind == topology.StubNode {
			stubs = append(stubs, topology.NodeID(n))
		}
	}
	const subscribed, joined = 600, 100
	if len(stubs) < subscribed+joined {
		t.Fatalf("%d stub nodes, need %d", len(stubs), subscribed+joined)
	}
	const cells = 16
	axes := []space.Axis{{Lo: 0, Hi: 1, Cells: cells}, {Lo: 0, Hi: 1, Cells: cells}}
	cell := func(i int) space.Rect {
		ci, cj := float64(i%cells), float64(i/cells%cells)
		return space.Rect{
			{Lo: (ci + 0.1) / cells, Hi: (ci + 0.9) / cells},
			{Lo: (cj + 0.1) / cells, Hi: (cj + 0.9) / cells},
		}
	}
	subs := make([]workload.Subscription, subscribed)
	for i := range subs {
		subs[i] = workload.Subscription{Owner: stubs[i], Rect: cell(i)}
	}
	w, err := workload.NewCustomWorld(g, axes, subs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewFromWorld(w, w.Events(400, 501), core.Config{Groups: 8, CellBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.NumSubscribers(); n < 500 {
		t.Fatalf("world has %d subscriber nodes, want ≥ 500", n)
	}

	const workers = 4
	before := runtime.NumGoroutine()
	b, err := New(e, WithWorkers(workers), WithDecideWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bound := b.DecideWorkers() + workers + 1 // + the writer
	if added := runtime.NumGoroutine() - before; added > bound {
		t.Fatalf("New over %d subscriber nodes added %d goroutines, want ≤ %d", w.NumSubscribers(), added, bound)
	}
	for i := 0; i < joined; i++ {
		if _, err := b.Subscribe(workload.Subscription{Owner: stubs[subscribed+i], Rect: cell(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if added := runtime.NumGoroutine() - before; added > bound {
		t.Fatalf("after %d subscribes on new nodes the broker runs %d goroutines, want ≤ %d", joined, added, bound)
	}
	if n := len(b.Stats().PerNode); n != subscribed+joined {
		t.Fatalf("broker routes %d nodes, want %d", n, subscribed+joined)
	}
}
