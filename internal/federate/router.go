package federate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/faults"
	"repro/internal/replicate"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// SlotRef names one shard-local subscription slot. Slot ints are only
// meaningful relative to their shard — two shards freely hand out the
// same slot number — which is exactly the ambiguity SubID exists to fix.
type SlotRef struct {
	Shard int
	Slot  int
}

// SubID is a federation-wide subscription identifier. It is opaque and
// never collides across shards; the router resolves it back to the
// owning (shard, slot) pairs on Unsubscribe.
type SubID int64

// Config parameterises a Router.
type Config struct {
	// Tiles is the shard partition; shard i owns Tiles[i]. Required.
	Tiles Partition

	// Observer receives every federated delivery exactly once, with
	// Delivery.Seq rewritten to the router-global publication seq.
	// Called from the shards' fan-out workers (and remote shard pumps),
	// concurrently and possibly for the same node at once, so it must be
	// safe for concurrent use; may be nil.
	Observer func(topology.NodeID, broker.Delivery)

	// Resolve, when non-nil, is asked for a replacement shard after a
	// retryable decide/apply failure (fenced, crashed, closed,
	// not-leader). Returning nil means "no replacement yet"; the router
	// backs off and asks again. Failover controllers that push the
	// promoted broker via Attach instead can leave this nil.
	Resolve func(shard int) broker.Shard

	// DedupWindow bounds the per-subscriber duplicate-suppression
	// window, in deliveries. It must exceed the number of deliveries a
	// shard can replay after a failover (journaled-but-unacked tail plus
	// in-flight fan-out). 0 means 4096.
	DedupWindow int

	// MapWindow bounds each shard's local→global seq translation table,
	// in publications. 0 means 65536.
	MapWindow int

	// MaxRetries, RetryBackoff and RetryTimeout bound the per-shard
	// retry loop around retryable failures. Zero values mean 64 retries,
	// 2ms initial backoff (doubling, capped at 100ms), 10s deadline.
	MaxRetries   int
	RetryBackoff time.Duration
	RetryTimeout time.Duration
}

// Router fans the pub-sub surface out over one broker.Shard per tile
// and merges the results back into a single exactly-once delivery
// stream. See the package comment for the protocol.
//
// Router implements transport.Backend, so a pubsub-server can serve a
// whole federation through one listener.
type Router struct {
	cfg   Config
	tiles Partition

	// shards[i] is tile i's current shard; swapped on failover via
	// Attach, read on every decide. Guarded by mu.
	mu      sync.RWMutex
	shards  []broker.Shard
	subs    map[SubID][]SlotRef
	nextSub SubID

	maps []*seqMap // per-shard local→global seq translation

	dedupMu sync.Mutex
	dedup   map[topology.NodeID]*dedupWindow

	gseq   atomic.Int64
	closed atomic.Bool
	// done closes with the router, releasing Feed calls still waiting for
	// a seq translation.
	done  chan struct{}
	stats counters
}

var _ transport.Backend = (*Router)(nil)

// NewRouter builds a router over cfg.Tiles with no shards attached yet;
// call Attach (or AttachRemote) for each tile before publishing.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Tiles.Validate(); err != nil {
		return nil, err
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 4096
	}
	if cfg.MapWindow <= 0 {
		cfg.MapWindow = 65536
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 64
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 10 * time.Second
	}
	r := &Router{
		cfg:    cfg,
		tiles:  append(Partition(nil), cfg.Tiles...),
		shards: make([]broker.Shard, len(cfg.Tiles)),
		subs:   make(map[SubID][]SlotRef),
		maps:   make([]*seqMap, len(cfg.Tiles)),
		dedup:  make(map[topology.NodeID]*dedupWindow),
		done:   make(chan struct{}),
	}
	for i := range r.maps {
		r.maps[i] = newSeqMap(cfg.MapWindow)
	}
	return r, nil
}

// NumShards returns the tile count.
func (r *Router) NumShards() int { return len(r.tiles) }

// Tile returns shard i's responsibility rectangle.
func (r *Router) Tile(i int) Partition { return Partition{r.tiles[i]} }

// Attach installs (or replaces, after a failover) tile i's shard. The
// old shard, if any, is not closed — failover controllers own that.
func (r *Router) Attach(i int, s broker.Shard) error {
	if i < 0 || i >= len(r.tiles) {
		return fmt.Errorf("federate: shard index %d out of range [0,%d)", i, len(r.tiles))
	}
	r.mu.Lock()
	r.shards[i] = s
	r.mu.Unlock()
	return nil
}

// ShardObserver returns the delivery observer to install on tile i's
// broker (broker.WithObserver / replicate promotion options). It routes
// the shard's deliveries through the federation merge.
func (r *Router) ShardObserver(i int) func(topology.NodeID, broker.Delivery) {
	return func(n topology.NodeID, d broker.Delivery) { r.Feed(i, n, d) }
}

// shard reads tile i's current shard.
func (r *Router) shard(i int) broker.Shard {
	r.mu.RLock()
	s := r.shards[i]
	r.mu.RUnlock()
	return s
}

// Retryable reports whether a shard error should trigger shard
// re-resolution and retry rather than failing the operation: fencing
// after a promotion, a not-yet-promoted standby, a simulated crash, a
// shard (or its connection) closed mid-failover.
func Retryable(err error) bool {
	return errors.Is(err, replicate.ErrFenced) ||
		errors.Is(err, replicate.ErrNotLeader) ||
		errors.Is(err, faults.ErrCrashed) ||
		errors.Is(err, broker.ErrClosed) ||
		errors.Is(err, transport.ErrConnClosed) ||
		errors.Is(err, ErrNoShard)
}

// withShard runs op against tile i's shard, retrying retryable failures
// with backoff and re-resolution until the retry budget is exhausted.
func (r *Router) withShard(i int, op func(s broker.Shard) error) error {
	deadline := time.Now().Add(r.cfg.RetryTimeout)
	backoff := r.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if r.closed.Load() {
			return ErrClosed
		}
		if s := r.shard(i); s != nil {
			err := op(s)
			if err == nil {
				return nil
			}
			if !Retryable(err) {
				return err
			}
			lastErr = err
		} else {
			lastErr = ErrNoShard
		}
		if attempt >= r.cfg.MaxRetries || !time.Now().Before(deadline) {
			return fmt.Errorf("federate: shard %d unavailable after %d attempts: %w", i, attempt+1, lastErr)
		}
		r.stats.retries.Add(1)
		if r.cfg.Resolve != nil {
			if ns := r.cfg.Resolve(i); ns != nil && ns != r.shard(i) {
				r.Attach(i, ns)
				r.stats.resolves.Add(1)
			}
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// Publish fans ev out to every shard whose tile contains the event
// point. See PublishSeq.
func (r *Router) Publish(ev workload.Event) error {
	_, err := r.PublishSeq(ev)
	return err
}

// PublishSeq publishes ev under a fresh router-global seq, fanning it
// out to every owning shard and recording each shard's local seq for
// delivery translation. The global seq is returned even on error: a
// shard may have journaled the event (and will deliver it after a
// failover replay) even when its publish call failed, and the recorded
// translation is what keeps that replay plus the router's retry from
// double delivering.
func (r *Router) PublishSeq(ev workload.Event) (int64, error) {
	if r.closed.Load() {
		return -1, ErrClosed
	}
	var owners [8]int
	own := r.tiles.Owners(owners[:0], ev.Point)
	if len(own) == 0 {
		return -1, fmt.Errorf("federate: no tile owns event point %v", ev.Point)
	}
	g := r.gseq.Add(1) - 1
	r.stats.published.Add(1)
	var firstErr error
	for _, i := range own {
		i := i
		err := r.withShard(i, func(s broker.Shard) error {
			r.stats.fanout.Add(1)
			local, derr := s.DecideSeq(ev)
			if local >= 0 {
				// Record even on error: the seq was consumed, possibly
				// journaled, and may resurface as a failover replay.
				r.maps[i].record(local, g)
			}
			return derr
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return g, firstErr
}

// Subscribe registers s on every shard whose tile intersects its
// rectangle and returns the federation-wide id as an int (satisfying
// transport.Backend); SubscribeID returns the typed form.
func (r *Router) Subscribe(s workload.Subscription) (int, error) {
	id, err := r.SubscribeID(s)
	return int(id), err
}

// SubscribeID registers s across the federation. A rectangle straddling
// a tile boundary is registered on every intersecting shard; the
// returned SubID resolves back to all of them.
func (r *Router) SubscribeID(s workload.Subscription) (SubID, error) {
	if r.closed.Load() {
		return -1, ErrClosed
	}
	var cover [8]int
	own := r.tiles.Covering(cover[:0], s.Rect)
	if len(own) == 0 {
		return -1, fmt.Errorf("federate: no tile intersects subscription rect %v", s.Rect)
	}
	refs := make([]SlotRef, 0, len(own))
	for _, i := range own {
		var slot int
		err := r.withShard(i, func(sh broker.Shard) error {
			got, aerr := sh.Apply(broker.Mutation{Subscribe: &s})
			if aerr == nil {
				slot = got
			}
			return aerr
		})
		if err != nil {
			// Roll back the shards already registered so a failed
			// subscribe leaves no half-installed straddler behind.
			for _, ref := range refs {
				ref := ref
				_ = r.withShard(ref.Shard, func(sh broker.Shard) error {
					_, uerr := sh.Apply(broker.Mutation{Slot: ref.Slot})
					return uerr
				})
			}
			return -1, err
		}
		refs = append(refs, SlotRef{Shard: i, Slot: slot})
	}
	if len(refs) > 1 {
		r.stats.crossShardSubs.Add(1)
	}
	r.mu.Lock()
	id := r.nextSub
	r.nextSub++
	r.subs[id] = refs
	r.mu.Unlock()
	return id, nil
}

// Unsubscribe cancels the subscription by federation id (the int form
// of the SubID returned by Subscribe), removing it from every shard it
// was registered on.
func (r *Router) Unsubscribe(id int) error { return r.UnsubscribeID(SubID(id)) }

// UnsubscribeID cancels the subscription on every owning shard.
func (r *Router) UnsubscribeID(id SubID) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.Lock()
	refs, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSub, id)
	}
	var firstErr error
	for _, ref := range refs {
		ref := ref
		err := r.withShard(ref.Shard, func(sh broker.Shard) error {
			_, uerr := sh.Apply(broker.Mutation{Slot: ref.Slot})
			return uerr
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Refs returns the (shard, slot) pairs behind a subscription id —
// observability for tests and operators; the slots themselves must not
// be fed back into shard APIs behind the router's back.
func (r *Router) Refs(id SubID) []SlotRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]SlotRef(nil), r.subs[id]...)
}

// feedWait bounds how long Feed waits for a missing seq translation.
// Deliveries race the recording DecideSeq return and are woken the moment
// it lands; only a replay of pre-router journal content, which is never
// recorded, waits the full budget.
const feedWait = 20 * time.Millisecond

// Feed merges one delivery from shard i into the federated stream:
// translate the shard-local seq to the router-global one, suppress
// duplicates per subscriber node, forward the survivor. It is the body
// of ShardObserver(i) and the entry point for remote shard pumps.
func (r *Router) Feed(i int, n topology.NodeID, d broker.Delivery) {
	// The broker can deliver before PublishSeq returns to the router;
	// wait for the translation to be recorded.
	g, ok := r.maps[i].await(d.Seq, feedWait, r.done)
	if !ok {
		// A replay from an incarnation predating this router: no global
		// seq exists. Dedup under a synthetic per-(shard, local-seq) key
		// (always negative, so it cannot collide with global seqs) so
		// repeated replays still collapse.
		r.stats.unmapped.Add(1)
		g = ^(int64(i)<<48 | d.Seq)
	}
	r.dedupMu.Lock()
	w := r.dedup[n]
	if w == nil {
		w = newDedupWindow(r.cfg.DedupWindow)
		r.dedup[n] = w
	}
	fresh := w.admit(g)
	r.dedupMu.Unlock()
	if !fresh {
		r.stats.suppressed.Add(1)
		return
	}
	d.Seq = g
	r.stats.delivered.Add(1)
	if r.cfg.Observer != nil {
		r.cfg.Observer(n, d)
	}
}

// Checkpoint checkpoints every attached shard.
func (r *Router) Checkpoint() error {
	var firstErr error
	for i := range r.tiles {
		if s := r.shard(i); s != nil {
			if err := s.Checkpoint(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats { return r.stats.snapshot() }

// Close marks the router closed and closes every distinct attached
// shard once. Further operations return ErrClosed.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.done)
	r.mu.Lock()
	shards := append([]broker.Shard(nil), r.shards...)
	r.mu.Unlock()
	seen := make(map[broker.Shard]bool, len(shards))
	var firstErr error
	for _, s := range shards {
		if s == nil || seen[s] {
			continue
		}
		seen[s] = true
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
