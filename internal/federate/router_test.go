package federate

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/health"
	"repro/internal/replicate"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestFederatedPublishDeliversExactlyOnce(t *testing.T) {
	f := startFed(t, 801, 4)
	evs := f.w.Events(300, 803)
	acked := make([]bool, len(evs))
	for i := range evs {
		if err := f.r.Publish(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		acked[i] = true
	}
	if err := f.r.Close(); err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, f.w, evs, acked, f.o)
	st := f.r.Stats()
	if st.Published != int64(len(evs)) {
		t.Errorf("Published = %d, want %d", st.Published, len(evs))
	}
	// Disjoint tiles: one decide per publish, no duplicates to suppress.
	if st.Fanout != st.Published {
		t.Errorf("Fanout = %d with disjoint tiles, want %d", st.Fanout, st.Published)
	}
	if st.Delivered == 0 {
		t.Error("no deliveries reached the federated observer")
	}
}

// miniWorld builds a 1-D world with a handful of baked subscriptions —
// small enough to reason about slots and boundaries by hand.
func miniWorld(t *testing.T, g *topology.Graph, rects ...space.Interval) *workload.World {
	t.Helper()
	subs := make([]workload.Subscription, len(rects))
	for i, iv := range rects {
		subs[i] = workload.Subscription{Owner: topology.NodeID(i), Rect: space.Rect{iv}}
	}
	w, err := workload.NewCustomWorld(g, []space.Axis{{Lo: 0, Hi: 10, Cells: 10}}, subs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func miniEngine(t *testing.T, w *workload.World, train []workload.Event) *core.Engine {
	t.Helper()
	e, err := core.NewFromWorld(w, train, core.Config{Groups: 2, CellBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mkEvents(pts ...float64) []workload.Event {
	evs := make([]workload.Event, len(pts))
	for i, p := range pts {
		evs[i] = workload.Event{Pub: 0, Point: space.Point{p}}
	}
	return evs
}

// TestSubIDDisambiguatesShardLocalSlots is the regression for the
// federated-unsubscribe bug: Broker.Subscribe returns a broker-local
// slot, two shards hand out the very same slot number, and routing an
// unsubscribe by raw slot therefore cancels an arbitrary shard's
// subscription. The router's SubID must resolve to the owning (shard,
// slot) pair, so cancelling B leaves A's identically-numbered slot
// alive.
func TestSubIDDisambiguatesShardLocalSlots(t *testing.T) {
	g := stockWorld(t, 821).Graph
	tiles := Partition{
		{{Lo: inf(-1), Hi: 5}},
		{{Lo: 5, Hi: inf(1)}},
	}
	o := newFedObs()
	r, err := NewRouter(Config{Tiles: tiles, Observer: o.cb()})
	if err != nil {
		t.Fatal(err)
	}
	// Both shard worlds bake the same number of subscriptions, so the
	// first runtime subscribe on each shard yields the same local slot.
	w0 := miniWorld(t, g, space.Interval{Lo: 0, Hi: 0.5}, space.Interval{Lo: 2, Hi: 3})
	w1 := miniWorld(t, g, space.Interval{Lo: 5, Hi: 6}, space.Interval{Lo: 9, Hi: 10})
	train := mkEvents(0.3, 2.5, 5.5, 9.5, 1.5, 7.5)
	for i, w := range []*workload.World{w0, w1} {
		b, err := broker.New(miniEngine(t, w, train), broker.WithWorkers(1), broker.WithObserver(r.ShardObserver(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(i, b); err != nil {
			t.Fatal(err)
		}
	}
	defer r.Close()

	idA, err := r.SubscribeID(workload.Subscription{Owner: 100, Rect: space.Rect{{Lo: 1, Hi: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := r.SubscribeID(workload.Subscription{Owner: 101, Rect: space.Rect{{Lo: 7, Hi: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	refsA, refsB := r.Refs(idA), r.Refs(idB)
	if len(refsA) != 1 || len(refsB) != 1 {
		t.Fatalf("refs = %v / %v, want one shard each", refsA, refsB)
	}
	// The trap the SubID exists for: identical local slots on different
	// shards. Without this collision the test proves nothing.
	if refsA[0].Slot != refsB[0].Slot {
		t.Fatalf("local slots %d vs %d do not collide; harness broken", refsA[0].Slot, refsB[0].Slot)
	}
	if refsA[0].Shard == refsB[0].Shard {
		t.Fatalf("subscriptions landed on the same shard %d; harness broken", refsA[0].Shard)
	}

	if err := r.UnsubscribeID(idB); err != nil {
		t.Fatal(err)
	}
	evA := workload.Event{Pub: 0, Point: space.Point{1.5}}
	evB := workload.Event{Pub: 0, Point: space.Point{7.5}}
	if err := r.Publish(evA); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(evB); err != nil {
		t.Fatal(err)
	}
	// A's subscription (same slot number as the cancelled B) must still
	// be live: the slot-routed implementation cancelled it here.
	waitFor(t, 5*time.Second, "delivery to A", func() bool { return o.count(100, evA) == 1 })
	time.Sleep(50 * time.Millisecond) // let any wrong delivery surface
	if n := o.count(101, evB); n != 0 {
		t.Errorf("cancelled subscription B received %d deliveries", n)
	}
	if err := r.UnsubscribeID(idB); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("double unsubscribe returned %v, want ErrUnknownSub", err)
	}
}

// TestBoundaryStraddlerRegisteredOnBothShards: a subscription crossing
// the tile cut lives on both shards yet its owner sees each matching
// event exactly once, whichever side the event lands on.
func TestBoundaryStraddlerRegisteredOnBothShards(t *testing.T) {
	g := stockWorld(t, 823).Graph
	tiles := Partition{
		{{Lo: inf(-1), Hi: 5}},
		{{Lo: 5, Hi: inf(1)}},
	}
	o := newFedObs()
	r, err := NewRouter(Config{Tiles: tiles, Observer: o.cb()})
	if err != nil {
		t.Fatal(err)
	}
	w0 := miniWorld(t, g, space.Interval{Lo: 0, Hi: 1}, space.Interval{Lo: 2, Hi: 3})
	w1 := miniWorld(t, g, space.Interval{Lo: 6, Hi: 7}, space.Interval{Lo: 9, Hi: 10})
	train := mkEvents(0.5, 2.5, 6.5, 9.5, 4.5, 5.5)
	for i, w := range []*workload.World{w0, w1} {
		b, err := broker.New(miniEngine(t, w, train), broker.WithWorkers(1), broker.WithObserver(r.ShardObserver(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(i, b); err != nil {
			t.Fatal(err)
		}
	}
	defer r.Close()

	id, err := r.SubscribeID(workload.Subscription{Owner: 200, Rect: space.Rect{{Lo: 4, Hi: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Refs(id)); got != 2 {
		t.Fatalf("straddler registered on %d shards, want 2", got)
	}
	if st := r.Stats(); st.CrossShardSubs != 1 {
		t.Errorf("CrossShardSubs = %d, want 1", st.CrossShardSubs)
	}
	left := workload.Event{Pub: 0, Point: space.Point{4.5}}  // shard 0's side
	right := workload.Event{Pub: 0, Point: space.Point{5.5}} // shard 1's side
	for _, ev := range []workload.Event{left, right} {
		if err := r.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "straddler deliveries", func() bool {
		return o.count(200, left) >= 1 && o.count(200, right) >= 1
	})
	time.Sleep(50 * time.Millisecond)
	if n := o.count(200, left); n != 1 {
		t.Errorf("left event delivered %d times, want 1", n)
	}
	if n := o.count(200, right); n != 1 {
		t.Errorf("right event delivered %d times, want 1", n)
	}
	if err := r.UnsubscribeID(id); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappingTilesDeduplicate: with tiles sharing an overlap zone a
// publish in the zone fans out to both shards, each of which decides
// and delivers it — the router's per-(node, global-seq) window must
// collapse the copies.
func TestOverlappingTilesDeduplicate(t *testing.T) {
	g := stockWorld(t, 825).Graph
	tiles := Partition{
		{{Lo: inf(-1), Hi: 6}},
		{{Lo: 4, Hi: inf(1)}},
	}
	o := newFedObs()
	r, err := NewRouter(Config{Tiles: tiles, Observer: o.cb()})
	if err != nil {
		t.Fatal(err)
	}
	// The overlap-zone subscription (4.5, 5.5] is baked into BOTH shard
	// worlds, exactly as tileWorld would do it. It is each world's first
	// rect, so both shards give it the same owner (node 0).
	mid := space.Interval{Lo: 4.5, Hi: 5.5}
	w0 := miniWorld(t, g, mid, space.Interval{Lo: 0, Hi: 1})
	w1 := miniWorld(t, g, mid, space.Interval{Lo: 9, Hi: 10})
	train := mkEvents(0.5, 5.0, 9.5, 4.8, 5.2)
	for i, w := range []*workload.World{w0, w1} {
		b, err := broker.New(miniEngine(t, w, train), broker.WithWorkers(1), broker.WithObserver(r.ShardObserver(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(i, b); err != nil {
			t.Fatal(err)
		}
	}
	evs := mkEvents(5.0, 4.7, 5.3, 4.9, 5.1)
	for i := range evs {
		if err := r.Publish(evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Fanout != 2*st.Published {
		t.Errorf("Fanout = %d for %d overlap publishes, want %d", st.Fanout, st.Published, 2*st.Published)
	}
	if st.Suppressed == 0 {
		t.Error("overlapping shards produced no suppressed duplicates")
	}
	for _, ev := range evs {
		// w1's owner numbering puts the mid sub at node 0 too, so both
		// shard copies target the same node: exactly one must survive.
		if n := o.count(0, ev); n != 1 {
			t.Errorf("event %v delivered %d times to overlap subscriber, want 1", ev.Point, n)
		}
	}
}

func fastHealth() health.Config {
	return health.Config{OpenTimeout: 10 * time.Second, CheckInterval: 5 * time.Millisecond}
}

// TestFencedLeaderRerouted is the regression for the stale-leader bug:
// after a standby is promoted, publishes routed to the fenced ex-leader
// fail with replicate.ErrFenced; the router must treat that as
// retryable, re-resolve to the promoted broker and re-decide — without
// losing or double-delivering anything across the handover.
func TestFencedLeaderRerouted(t *testing.T) {
	w := stockWorld(t, 831)
	train := w.Events(800, 833)
	tiles := Partition{space.FullRect(w.Dim)}
	o := newFedObs()
	var promoted atomic.Value // broker.Shard
	r, err := NewRouter(Config{
		Tiles:        tiles,
		Observer:     o.cb(),
		RetryBackoff: time.Millisecond,
		Resolve: func(int) broker.Shard {
			if s, ok := promoted.Load().(broker.Shard); ok {
				return s
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewFromWorld(w, train, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	dirL, dirF := t.TempDir(), t.TempDir()
	ldr, err := replicate.OpenLeader(dirL, e, replicate.LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health:  fastHealth(),
		Durable: durable.Options{CheckpointRecords: -1, CheckpointInterval: -1},
	}, broker.WithWorkers(2), broker.WithObserver(r.ShardObserver(0)))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ldr.Serve(ln)
	flw, err := replicate.StartFollower(replicate.FollowerConfig{
		Dir: dirF, Base: durable.BaseInfo{Hash: durable.HashBase(w.Subs), Count: int64(len(w.Subs))},
		Addr: ln.Addr().String(), Health: fastHealth(),
		ReadTimeout: 200 * time.Millisecond, Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		flw.Close()
		ldr.Close()
		ln.Close()
	})
	if err := r.Attach(0, ldr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial catch-up", flw.Synced)

	evs := w.Events(200, 835)
	acked := make([]bool, len(evs))
	for i := 0; i < 60; i++ {
		if err := r.Publish(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		acked[i] = true
	}
	// Promote with the ex-leader still up: its next shipped frames draw
	// higher-epoch replies and every subsequent decide is fenced.
	e2, err := core.NewFromWorld(w, train, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := flw.Promote(e2, broker.WithWorkers(2), broker.WithObserver(r.ShardObserver(0)))
	if err != nil {
		t.Fatal(err)
	}
	promoted.Store(broker.Shard(b2))
	for i := 60; i < len(evs); i++ {
		if err := r.Publish(evs[i]); err != nil {
			t.Fatalf("publish %d across promotion: %v", i, err)
		}
		acked[i] = true
	}
	waitFor(t, 5*time.Second, "ex-leader fenced", ldr.Fenced)
	st := r.Stats()
	if st.Retries == 0 {
		t.Error("router recorded no retries across the fence")
	}
	if st.Resolves == 0 {
		t.Error("router never re-resolved to the promoted broker")
	}
	if err := r.Close(); err != nil { // closes b2, drains its deliveries
		t.Fatal(err)
	}
	ldr.Close() // drains the ex-leader's in-flight deliveries
	checkExactlyOnce(t, w, evs, acked, o)
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Error("NewRouter accepted an empty partition")
	}
	tiles := Partition{{{Lo: 0, Hi: 5}}} // deliberately bounded: points outside have no owner
	r, err := NewRouter(Config{Tiles: tiles, MaxRetries: 1, RetryBackoff: time.Millisecond, RetryTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Publish(workload.Event{Point: space.Point{7}}); err == nil {
		t.Error("publish outside every tile succeeded")
	}
	if _, err := r.SubscribeID(workload.Subscription{Owner: 1, Rect: space.Rect{{Lo: 8, Hi: 9}}}); err == nil {
		t.Error("subscribe outside every tile succeeded")
	}
	// No shard attached: the retry loop must bottom out on ErrNoShard.
	if err := r.Publish(workload.Event{Point: space.Point{3}}); !errors.Is(err, ErrNoShard) {
		t.Errorf("publish with no shard returned %v, want ErrNoShard", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(workload.Event{Point: space.Point{3}}); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close returned %v, want ErrClosed", err)
	}
}

// TestFeedWakesOnRecord: deliveries that overtake their seq translations
// wait for the records and are woken by them. The records land 1 ms after
// a Feed starts waiting — the first one for the other waiter's seq, which
// must go back to waiting — and each copy must leave under its recorded
// global seq, counted as mapped, within a small multiple of that delay.
func TestFeedWakesOnRecord(t *testing.T) {
	var mu sync.Mutex
	got := map[topology.NodeID]int64{}
	r, err := NewRouter(Config{
		Tiles: Partition{{{Lo: 0, Hi: 1}}},
		Observer: func(n topology.NodeID, d broker.Delivery) {
			mu.Lock()
			got[n] = d.Seq
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const delay = time.Millisecond
	fed := make(chan time.Time, 2)
	for n, seq := range map[topology.NodeID]int64{3: 7, 4: 8} {
		n, seq := n, seq
		go func() {
			r.Feed(0, n, broker.Delivery{Seq: seq})
			fed <- time.Now()
		}()
	}
	m := r.maps[0]
	for {
		m.mu.Lock()
		waiting := m.waiting
		m.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(10 * time.Microsecond)
	}
	start := time.Now()
	time.Sleep(delay)
	m.record(8, 43)
	m.record(7, 42)
	for i := 0; i < 2; i++ {
		// 10× the delay is half of feedWait: a Feed that returns inside
		// it was woken by its record, not released by the deadline.
		if waited := (<-fed).Sub(start); waited > 10*delay {
			t.Fatalf("Feed returned %v after a waiter started on records that landed after %v", waited, delay)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got[3] != 42 || got[4] != 43 {
		t.Fatalf("delivered under global seqs %v, want node 3 → 42 and node 4 → 43", got)
	}
	if u := r.Stats().Unmapped; u != 0 {
		t.Fatalf("Unmapped = %d, want 0", u)
	}
}
