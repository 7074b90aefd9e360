// Package broker turns the Engine's per-event delivery *decisions* into
// actual message deliveries: publications flow through a sharded decision
// plane, and a fan-out worker pool hands one copy of each event to every
// destination node (group members, remainder top-ups, or unicast targets),
// accepting it on the spot — dedup, accounting and the delivery observer
// run on the fan-out worker itself.
//
// The broker exists to validate delivery *semantics* end to end — the cost
// model in internal/sim prices paths, this package checks who actually
// receives what:
//
//   - completeness: every live subscriber interested in an event receives
//     it, exactly once;
//   - single delivery: no node receives the same event twice (receiver-side
//     dedup turns at-least-once retransmission into exactly-once
//     accounting);
//   - waste: deliveries to uninterested group members are counted, and a
//     No-Loss engine produces exactly zero of them.
//
// # Snapshot decision plane
//
// Decisions are served RCU-style. The engine builds an immutable
// core.DecisionSnapshot (cloned subscription index, group tables,
// quarantine set); the broker publishes it through an atomic pointer and N
// decision workers (default GOMAXPROCS) take lock-free loads, so Decide
// throughput scales with cores while decisions stay byte-identical per
// snapshot. All engine *mutations* — subscription churn via
// Broker.Subscribe/Unsubscribe, quarantines reported by fan-out workers,
// and controller-triggered auto-refreshes — run on a single writer
// goroutine that mutates the private engine and swaps the snapshot
// atomically. Each publication captures the snapshot current at Publish
// and drains against it; a new subscriber is covered from the moment Subscribe
// returns (the swap happens before the reply), topped up by unicast until
// the next group rebuild folds it in — the paper's never-lose invariant.
//
// Pipeline shape (all stdlib, structured shutdown):
//
//	Publish() → seq assignment → publishCh → N decision workers (snapshot reads)
//	          → fanoutCh → M fan-out workers → accept (dedup, ack, Stats, observer)
//	Subscribe()/Unsubscribe()/quarantines/auto-refresh → writer goroutine
//	          → engine mutation → snapshot swap
//
// The goroutine count is fixed at the decision workers, the fan-out
// workers, the writer and (with self-healing on) the control loop; it does
// not grow with the number of subscriber nodes.
//
// With a faults.Injector attached (WithFaults), the broker layers a
// reliability protocol over the lossy fabric:
//
//   - every publication carries a sequence number (assigned at Publish, so
//     it orders events even across concurrent decision workers); each node
//     dedups on it within a sliding window;
//   - dropped attempts are retried with exponential backoff + deterministic
//     jitter, bounded per delivery (MaxRetries) and per event (RetryBudget);
//   - when the primary route exhausts its retries, the delivery degrades to
//     a unicast top-up along an alternate path computed by a Dijkstra
//     recompute with failed links removed;
//   - when even the degraded path fails — destination crashed or
//     partitioned — the delivery is abandoned and the routed group is
//     quarantined, so the decision plane falls back to unicast for its
//     members until the next Refresh.
//
// With a health.Health attached (WithHealth), the broker closes the
// remaining feedback loops:
//
//   - Publish passes through admission control — a token-bucket rate
//     limiter plus a MaxInflight semaphore over the whole pipeline — and
//     under the RejectNewest/ShedLowFanout policies returns
//     health.ErrOverloaded instead of queueing unbounded work; each
//     admitted event carries a strict one-shot release token;
//   - each destination gets a circuit breaker fed by delivery outcomes and
//     ack latencies; deliveries to an open breaker are skipped outright
//     (and the routed group quarantined) instead of burning retries on a
//     known-dead path, with jittered probes re-closing the breaker once
//     the destination recovers;
//   - a control-loop goroutine watches quarantine fraction, breaker state
//     and shed/loss counts, and — with hysteresis — asks the writer
//     goroutine to run an automatic Engine.Refresh, un-quarantining
//     recovered groups without operator intervention.
package broker

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/multicast"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ErrClosed is returned by Publish, Subscribe and Unsubscribe after Close.
var ErrClosed = errors.New("broker: publish after close")

// Delivery is one message copy arriving at a node.
type Delivery struct {
	Event workload.Event
	// Seq is the publication sequence number assigned at Publish;
	// receivers dedup on it.
	Seq    int64
	Method multicast.Method
	Group  int // -1 for unicast deliveries
	// Interested reports whether the receiving node had a matching
	// subscription (false ⇒ wasted delivery).
	Interested bool
	// Attempt is the delivery attempt that succeeded (0 = first try,
	// > 0 ⇒ the copy is a successful retransmission).
	Attempt int
	// Degraded marks a copy that arrived via the alternate-path unicast
	// top-up after the primary route exhausted its retries.
	Degraded bool

	// born is the decision-stage timestamp; accept turns it into the
	// end-to-end delivery-latency histogram.
	born time.Time
	// trace is the event's sampled lifecycle trace, nil when untraced.
	trace *telemetry.EventTrace
}

// queued is one admitted publication in flight to the decision plane.
type queued struct {
	seq int64
	ev  workload.Event
	// snap is the decision snapshot current at Publish time. Deciding
	// against it (rather than re-loading at decide time) pins the
	// never-lose contract to the Publish call: an event accepted while a
	// subscription was live is matched against a snapshot containing it,
	// even if the subscriber leaves before the queue drains.
	snap *core.DecisionSnapshot
	// tok is the event's admission token (nil without WithHealth);
	// released exactly once when the event leaves the pipeline.
	tok *health.Token
	// replay marks a recovery redelivery: the publication was already
	// journaled and counted by a previous incarnation, so the decision
	// stage skips the published/method counters for it.
	replay bool
}

// decideScratch is a decision worker's reusable per-event buffer set: the
// core decide scratch (R*-tree hits, interested nodes, remainder) plus the
// broadcast-target slice. Pooled so the decide plane allocates nothing per
// event in steady state: decideOne acquires one, the Decision it carries
// aliases its buffers, and the fan-out worker that finishes the event
// returns it to the pool. Never pooled when a decision observer is
// attached — the observer reads the Decision after the fan-out hand-off,
// which would race the next event's reuse.
type decideScratch struct {
	dec   core.DecideScratch
	nodes []topology.NodeID
}

var decideScratchPool = sync.Pool{New: func() any { return new(decideScratch) }}

// interestedIn reports whether n had a matching subscription, by binary
// search over the decision's sorted interested list — replacing a per-event
// map build on the decide hot path.
func interestedIn(d *core.Decision, n topology.NodeID) bool {
	lo, hi := 0, len(d.Interested)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.Interested[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(d.Interested) && d.Interested[lo] == n
}

// routed couples a decided event with its destinations.
type routed struct {
	seq int64
	ev  workload.Event
	d   core.Decision
	// scratch is the pooled buffer set backing d's slices (and nodes, for
	// broadcasts); the fan-out worker that retires the event returns it.
	// Nil when the decision was allocated fresh (observer attached).
	scratch *decideScratch
	// t0 stamps the decision; delivery latency is measured from here.
	t0 time.Time
	// trace is the event's sampled lifecycle trace, nil when untraced.
	trace *telemetry.EventTrace
	// tok is the admission token carried from Publish.
	tok *health.Token
	// nodes are the delivery targets beyond Remainder/Interested: the
	// routed group's members (NetworkMulticast) or every routed node
	// (Broadcast), captured at decision time from the snapshot so fan-out
	// never reads mutable state. Read-only.
	nodes []topology.NodeID
	// paths maps each destination to its primary routing path (publisher's
	// SPT); only populated under fault injection.
	paths map[topology.NodeID][]topology.NodeID
	// budget is the event's remaining retry allowance, shared across
	// destinations.
	budget *atomic.Int64
	// held collects the event's accepted copies on a replicated broker
	// until the replica has their ack records (see accept); ackTicket is
	// the highest ack ticket among them. Owned by the fan-out worker.
	held      []heldCopy
	ackTicket int64
}

// heldCopy is an accepted copy waiting for its ack to reach the replica.
type heldCopy struct {
	n  topology.NodeID
	nr *nodeRoute
	d  Delivery
}

// Stats aggregates delivery accounting. Snapshot via Broker.Stats; the
// snapshot is safe to take while the broker is running.
type Stats struct {
	Published  int64
	Multicast  int64 // events delivered via a group
	Unicast    int64 // events delivered by unicast only
	Broadcast  int64 // events flooded (DynamicMethod engines only)
	Deliveries int64 // message copies accepted at nodes (post-dedup)
	Wasted     int64 // copies delivered to uninterested nodes

	// Churn / snapshot counters.
	Subscribes    int64 // live subscriptions added via Broker.Subscribe
	Unsubscribes  int64 // live subscriptions removed via Broker.Unsubscribe
	SnapshotSwaps int64 // decision-snapshot publications since start

	// Reliability counters — all zero without fault injection.
	Retries     int64 // retransmission attempts after a dropped attempt
	Redelivered int64 // deliveries that succeeded only after ≥ 1 retry
	Deduped     int64 // duplicate copies suppressed at receivers
	Degraded    int64 // deliveries re-routed via alternate-path unicast
	Quarantined int64 // groups quarantined after persistent failures
	Offline     int64 // deliveries skipped because the node was crashed
	Lost        int64 // deliveries abandoned for live nodes (violations)

	// Overload / self-healing counters — all zero without WithHealth.
	Shed            int64 // decided events dropped by ShedLowFanout
	Rejected        int64 // publishes refused with health.ErrOverloaded
	RateLimited     int64 // rejections specifically from the token bucket
	ReleaseSpurious int64 // double-releases caught by strict admission tokens
	BreakerOpens    int64 // breaker open transitions
	BreakerSkipped  int64 // deliveries skipped on an open breaker
	Probes          int64 // half-open probe deliveries admitted
	AutoRefreshes   int64 // automatic engine refreshes triggered

	PerNode map[topology.NodeID]int64
}

// metrics caches the broker's telemetry handles so the delivery hot path
// never touches a registry map: every counter bump is one lock-free atomic
// add on a pre-resolved instrument. Stats() is a thin view over these, so
// the registry is the single source of truth for broker accounting.
type metrics struct {
	published  *telemetry.Counter
	multicast  *telemetry.Counter
	unicast    *telemetry.Counter
	broadcast  *telemetry.Counter
	deliveries *telemetry.Counter
	wasted     *telemetry.Counter

	subscribes   *telemetry.Counter
	unsubscribes *telemetry.Counter
	swaps        *telemetry.Counter
	snapVersion  *telemetry.Gauge
	// snapAge is the replaced snapshot's service lifetime at each swap, ns.
	snapAge *telemetry.Histogram

	retries     *telemetry.Counter
	redelivered *telemetry.Counter
	deduped     *telemetry.Counter
	degraded    *telemetry.Counter
	quarantined *telemetry.Counter
	offline     *telemetry.Counter
	lost        *telemetry.Counter

	// deliverLatency is decision→accept wall time per copy, ns.
	deliverLatency *telemetry.Histogram
	// backoffWait is time slept in retry backoff, ns.
	backoffWait *telemetry.Histogram
	// queueDepth samples the fan-out queue depth once per event, at the
	// decide→fan-out hand-off.
	queueDepth *telemetry.Histogram
}

func newMetrics(s *telemetry.Scope) metrics {
	return metrics{
		published:      s.Counter("published"),
		multicast:      s.Counter("multicast_events"),
		unicast:        s.Counter("unicast_events"),
		broadcast:      s.Counter("broadcast_events"),
		deliveries:     s.Counter("deliveries"),
		wasted:         s.Counter("wasted"),
		subscribes:     s.Counter("subscribes"),
		unsubscribes:   s.Counter("unsubscribes"),
		swaps:          s.Counter("snapshot_swaps"),
		snapVersion:    s.Gauge("snapshot_version"),
		snapAge:        s.Histogram("snapshot_age_ns", telemetry.LatencyBuckets()),
		retries:        s.Counter("retries"),
		redelivered:    s.Counter("redelivered"),
		deduped:        s.Counter("deduped"),
		degraded:       s.Counter("degraded"),
		quarantined:    s.Counter("quarantined"),
		offline:        s.Counter("offline"),
		lost:           s.Counter("lost"),
		deliverLatency: s.Histogram("deliver_latency_ns", telemetry.LatencyBuckets()),
		backoffWait:    s.Histogram("backoff_wait_ns", telemetry.LatencyBuckets()),
		queueDepth:     s.Histogram("queue_depth", telemetry.LinearBuckets(0, 4, 16)),
	}
}

// ReliabilityConfig tunes the retry protocol used under fault injection.
type ReliabilityConfig struct {
	// MaxRetries is the retransmission cap per delivery on the primary
	// path (default 4).
	MaxRetries int
	// LastResort is the retransmission cap on the degraded alternate path
	// (default 16) — the bounded stand-in for "retry until the peer is
	// declared dead".
	LastResort int
	// RetryBudget caps total primary-path retries per event across all
	// destinations (default 512; ≤ 0 means the default). Exhausting it
	// sends remaining failing deliveries straight to the degraded path.
	RetryBudget int64
	// BaseBackoff is the first retry's backoff (default 50µs); backoff
	// doubles per attempt up to MaxBackoff (default 2ms), with ±50%
	// deterministic jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// DedupWindow is the per-node dedup memory, in sequence numbers
	// (default 4096): a node remembers the last DedupWindow seqs and
	// treats anything older as already seen. Duplicates only arise from
	// immediate retransmission, so the window bounds dedup memory at
	// 8·DedupWindow bytes per node instead of growing for the life of
	// the broker.
	DedupWindow int
}

// Validate rejects nonsensical reliability tunings. Zero fields are legal
// (they take defaults); explicitly negative values are not, and a MaxBackoff
// below BaseBackoff would make the backoff schedule non-monotone.
func (rc ReliabilityConfig) Validate() error {
	if rc.MaxRetries < 0 {
		return fmt.Errorf("broker: MaxRetries = %d, need ≥ 0", rc.MaxRetries)
	}
	if rc.LastResort < 0 {
		return fmt.Errorf("broker: LastResort = %d, need ≥ 0", rc.LastResort)
	}
	if rc.RetryBudget < 0 {
		return fmt.Errorf("broker: RetryBudget = %d, need ≥ 0", rc.RetryBudget)
	}
	if rc.BaseBackoff < 0 {
		return fmt.Errorf("broker: BaseBackoff = %v, need ≥ 0", rc.BaseBackoff)
	}
	if rc.MaxBackoff < 0 {
		return fmt.Errorf("broker: MaxBackoff = %v, need ≥ 0", rc.MaxBackoff)
	}
	if rc.BaseBackoff > 0 && rc.MaxBackoff > 0 && rc.MaxBackoff < rc.BaseBackoff {
		return fmt.Errorf("broker: MaxBackoff %v < BaseBackoff %v", rc.MaxBackoff, rc.BaseBackoff)
	}
	if rc.DedupWindow < 0 {
		return fmt.Errorf("broker: DedupWindow = %d, need ≥ 0", rc.DedupWindow)
	}
	return nil
}

func (rc *ReliabilityConfig) setDefaults() {
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = 4
	}
	if rc.LastResort <= 0 {
		rc.LastResort = 32
	}
	if rc.RetryBudget <= 0 {
		rc.RetryBudget = 512
	}
	if rc.BaseBackoff <= 0 {
		rc.BaseBackoff = 50 * time.Microsecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 2 * time.Millisecond
	}
	if rc.DedupWindow <= 0 {
		rc.DedupWindow = 4096
	}
}

// routeTable is the immutable per-node delivery directory published
// through an atomic pointer. The writer goroutine replaces it wholesale
// (copy-on-write) when a Subscribe introduces a node that had no route at
// start, so fan-out workers read it without locks.
type routeTable struct {
	nodes map[topology.NodeID]*nodeRoute
}

// nodeRoute is one subscriber node's receiving state.
type nodeRoute struct {
	delivered atomic.Int64 // accepted copies (Stats.PerNode)
	// win is the node's dedup window: nil unless durability or fault
	// injection can produce a duplicate copy. Locked, because two fan-out
	// workers can deliver to the same node at once.
	win *lockedWindow
}

// churnReq is one Subscribe/Unsubscribe request bound for the writer.
type churnReq struct {
	sub   *workload.Subscription // non-nil ⇒ subscribe, else unsubscribe
	slot  int                    // unsubscribe target
	reply chan churnResp
}

type churnResp struct {
	slot int
	err  error
}

// Broker is the delivery fabric. Create with New, feed with Publish, stop
// with Close. Safe for concurrent Publish, Subscribe and Unsubscribe.
type Broker struct {
	engine        *core.Engine
	graph         *topology.Graph
	workers       int // fan-out workers
	decideWorkers int // decision workers; 0 = GOMAXPROCS

	inj    *faults.Injector
	rel    ReliabilityConfig
	health *health.Health

	// snap is the published decision snapshot: decision workers take
	// lock-free loads, only the writer goroutine stores.
	snap atomic.Pointer[core.DecisionSnapshot]
	// seq numbers publications at ingress, so sequence order matches
	// publish order even across concurrent decision workers.
	seq atomic.Int64
	// routes is the current per-node directory (see routeTable).
	routes atomic.Pointer[routeTable]

	publishCh    chan queued
	fanoutCh     chan routed
	quarantineCh chan int
	// refreshCh carries auto-refresh requests (the warm-iteration count)
	// from the control loop to the writer goroutine. One request may be
	// pending; requestRefresh replaces it so the newest value wins.
	refreshCh chan int
	// writerCh carries churn requests to the writer goroutine.
	writerCh   chan churnReq
	writerStop chan struct{}
	// ckptCh carries explicit Checkpoint requests to the writer goroutine.
	ckptCh chan chan error

	// dur is the durability bookkeeping (nil unless created by Open);
	// durOpts is the store tuning captured from WithDurableOptions.
	dur     *durState
	durOpts *durable.Options
	// holdAcks is set when the store replicates: accepted copies wait for
	// their ack records to reach the replica before they are observed.
	holdAcks bool

	// observer, when set, sees every accepted delivery after stats
	// accounting, on the fan-out worker that delivered it.
	observer func(topology.NodeID, Delivery)
	// decisionObs, when set, sees every decided event (with its priced
	// costs) on a decision worker, before fan-out. Shed events are not
	// reported — they never reach fan-out. With more than one decision
	// worker callbacks run concurrently and may arrive out of sequence
	// order; pin WithDecideWorkers(1) for a serial, ordered stream.
	decisionObs func(seq int64, ev workload.Event, d core.Decision, c core.Costs)

	// reg owns the broker's metrics; private unless WithTelemetry supplies
	// a shared registry. tracer is nil unless WithTracer enables tracing.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	ctr    metrics
	// decideNs holds one decide-latency histogram per decision worker
	// ("decide_w<i>_ns"), so per-worker skew is visible.
	decideNs []*telemetry.Histogram
	// quarantineSent dedups quarantine requests per group.
	quarantineSent sync.Map
	// lastSwap is the previous snapshot publication time (writer-only).
	lastSwap time.Time

	closeMu sync.RWMutex
	closed  bool

	decisionWG sync.WaitGroup
	fanoutWG   sync.WaitGroup
	writerWG   sync.WaitGroup
	closeOnce  sync.Once

	// controlStop ends the control-loop goroutine; nil without WithHealth
	// or when AutoRefresh is off.
	controlStop chan struct{}
	controlWG   sync.WaitGroup
}

// Option customises a Broker.
type Option func(*Broker)

// WithWorkers sets the fan-out worker count (default 4).
func WithWorkers(n int) Option {
	return func(b *Broker) { b.workers = n }
}

// WithDecideWorkers sets the decision worker count: 0 (the default) means
// GOMAXPROCS, 1 forces a serial decision stage. Decisions are
// byte-identical per snapshot for every worker count; only throughput and
// the interleaving of fan-out change.
func WithDecideWorkers(n int) Option {
	return func(b *Broker) { b.decideWorkers = n }
}

// WithObserver registers a callback invoked for every accepted delivery
// (after accounting and dedup). The callback runs on the fan-out workers
// and must be safe for concurrent use: it can be called concurrently,
// also for the same node, and copies of different events may reach a node
// out of sequence order. Blocking in it stalls the calling fan-out worker,
// which is how a slow subscriber pushes back on Publish.
func WithObserver(fn func(topology.NodeID, Delivery)) Option {
	return func(b *Broker) { b.observer = fn }
}

// WithFaults attaches a fault injector and enables the reliability
// protocol (sequence numbers, dedup, retries, degradation, quarantine).
func WithFaults(inj *faults.Injector) Option {
	return func(b *Broker) { b.inj = inj }
}

// WithReliability overrides the retry protocol's tuning. Only meaningful
// together with WithFaults.
func WithReliability(rc ReliabilityConfig) Option {
	return func(b *Broker) { b.rel = rc }
}

// WithTelemetry publishes the broker's metrics into a shared registry
// (scope "broker") instead of a private one, so exporters and the HTTP
// server see them. Stats() reads the same instruments either way.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(b *Broker) { b.reg = reg }
}

// WithTracer enables per-event lifecycle tracing: each sampled publication
// accumulates decide/enqueue/attempt/deliver spans into the tracer's ring.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(b *Broker) { b.tracer = tr }
}

// WithHealth attaches the overload-protection and self-healing subsystem:
// admission control on Publish, per-destination circuit breakers in the
// delivery path, and (when h's config enables AutoRefresh) the control
// loop that triggers automatic engine refreshes. The broker instruments h
// into its telemetry registry.
func WithHealth(h *health.Health) Option {
	return func(b *Broker) { b.health = h }
}

// WithDecisionObserver registers a callback invoked on the decision
// workers for every decided event with its priced delivery costs —
// the hook recovery experiments use to build cost-over-time series.
// Pricing each decision costs extra model lookups, so attach it only when
// the series is wanted. Combine with WithDecideWorkers(1) when the
// callbacks must arrive serial and in sequence order.
func WithDecisionObserver(fn func(seq int64, ev workload.Event, d core.Decision, c core.Costs)) Option {
	return func(b *Broker) { b.decisionObs = fn }
}

// New starts a broker over an engine. The engine must not be used by the
// caller until Close returns (the writer goroutine owns it).
func New(engine *core.Engine, opts ...Option) (*Broker, error) {
	if engine == nil {
		return nil, fmt.Errorf("broker: nil engine")
	}
	b := &Broker{
		engine:  engine,
		graph:   engine.Model().Graph(),
		workers: 4,
	}
	for _, opt := range opts {
		opt(b)
	}
	if b.workers < 1 {
		return nil, fmt.Errorf("broker: %d workers", b.workers)
	}
	if b.decideWorkers < 0 {
		return nil, fmt.Errorf("broker: %d decide workers", b.decideWorkers)
	}
	if b.decideWorkers == 0 {
		b.decideWorkers = runtime.GOMAXPROCS(0)
	}
	if err := b.rel.Validate(); err != nil {
		return nil, err
	}
	b.rel.setDefaults()
	if b.reg == nil {
		b.reg = telemetry.NewRegistry()
	}
	scope := b.reg.Scope("broker")
	b.ctr = newMetrics(scope)
	b.decideNs = make([]*telemetry.Histogram, b.decideWorkers)
	for i := range b.decideNs {
		b.decideNs[i] = scope.Histogram(fmt.Sprintf("decide_w%d_ns", i), telemetry.LatencyBuckets())
	}
	b.quarantineCh = make(chan int, 128)
	// Size the publish queue at least MaxInflight so that under the
	// rejecting policies an admitted event never blocks on the channel
	// send: admission is the bound, not the channel.
	queue := 64
	if b.health != nil && b.health.Admission.Capacity() > queue {
		queue = b.health.Admission.Capacity()
	}
	b.publishCh = make(chan queued, queue)
	b.fanoutCh = make(chan routed, 64)
	b.refreshCh = make(chan int, 1)
	b.writerCh = make(chan churnReq, 16)
	b.writerStop = make(chan struct{})
	b.ckptCh = make(chan chan error)
	if b.health != nil {
		b.health.Instrument(b.reg)
	}
	if b.dur != nil {
		b.initDurable()
		b.holdAcks = b.dur.store.Replicated()
	}

	// Initial snapshot and route table. Fan-out workers only ever see
	// fully populated, immutable tables.
	snap := engine.Snapshot()
	b.snap.Store(snap)
	b.ctr.snapVersion.Set(snap.Version())
	b.lastSwap = time.Now()
	rt := &routeTable{nodes: make(map[topology.NodeID]*nodeRoute, len(engine.World().SubscriberNodes))}
	for _, n := range engine.World().SubscriberNodes {
		rt.nodes[n] = b.newRoute(n)
	}
	if b.dur != nil {
		// Recovered churned subscriptions were applied to the engine before
		// New, bypassing ensureRoutes — give their owners routes now.
		for _, rec := range b.dur.subs {
			if _, ok := rt.nodes[rec.Owner]; !ok {
				rt.nodes[rec.Owner] = b.newRoute(rec.Owner)
			}
		}
	}
	b.routes.Store(rt)

	for i := 0; i < b.decideWorkers; i++ {
		b.decisionWG.Add(1)
		go b.decideLoop(i, engine.NewSPTView())
	}

	for i := 0; i < b.workers; i++ {
		b.fanoutWG.Add(1)
		go b.fanout()
	}

	b.writerWG.Add(1)
	go b.writer()

	if b.health != nil && b.health.Controller.Enabled() {
		b.controlStop = make(chan struct{})
		b.controlWG.Add(1)
		go b.controlLoop()
	}
	return b, nil
}

// Publish enqueues one event for delivery. It blocks when the pipeline is
// saturated and returns ErrClosed (instead of panicking) if the broker has
// been closed. With health attached, the event first passes admission
// control: under the RejectNewest and ShedLowFanout policies a saturated
// pipeline or an empty rate-limit bucket returns health.ErrOverloaded
// instead of blocking; a Block-policy wait interrupted by Close returns
// ErrClosed. Safe to race with Close.
func (b *Broker) Publish(ev workload.Event) error {
	_, err := b.PublishSeq(ev)
	return err
}

// PublishSeq is Publish reporting the publication sequence number the
// event consumed: deliveries of this event carry it as Delivery.Seq. The
// returned seq is -1 exactly when the event never entered the broker's
// history (closed broker, admission rejection). A non-negative seq with a
// non-nil error means the seq was consumed — and, for durable brokers,
// possibly journaled — before the failure, so a recovery replay may still
// deliver under it; federation routers record the seq even on error so
// cross-shard dedup recognises those replays.
func (b *Broker) PublishSeq(ev workload.Event) (int64, error) {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return -1, ErrClosed
	}
	var tok *health.Token
	if b.health != nil {
		// Admit while holding the close lock: Close cannot complete until
		// this Publish returns, so an admitted event always reaches the
		// pipeline and its inflight slot is always released by fan-out.
		// Close unblocks a waiting Admit (it closes admission first, before
		// taking the write lock), so this cannot deadlock shutdown.
		var err error
		tok, err = b.health.Admission.Admit()
		if err != nil {
			if errors.Is(err, health.ErrClosed) {
				return -1, ErrClosed
			}
			return -1, err
		}
	}
	seq := b.seq.Add(1) - 1
	if b.dur != nil {
		// Journal before acknowledging: a Publish that returns nil has its
		// record group-committed, so any crash after this point redelivers
		// it. The inflight entry goes in first so a concurrent checkpoint
		// rotation cannot miss the record.
		b.dur.inflight.Store(seq, ev)
		if err := b.dur.store.AppendPublish(seq, ev); err != nil {
			b.dur.inflight.Delete(seq)
			tok.Release()
			return seq, err
		}
	}
	b.publishCh <- queued{seq: seq, ev: ev, snap: b.snap.Load(), tok: tok}
	return seq, nil
}

// Subscribe registers a new subscription with the running broker and
// returns its slot id. When Subscribe returns, the subscription is part of
// the published decision snapshot: every event published afterwards that
// matches it will be delivered (by unicast top-up until the next group
// rebuild folds the subscriber into a group — never lost). A subscriber
// node that had no route gets one, with its delivery counter grown
// dynamically.
func (b *Broker) Subscribe(s workload.Subscription) (int, error) {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return 0, ErrClosed
	}
	reply := make(chan churnResp, 1)
	b.writerCh <- churnReq{sub: &s, reply: reply}
	resp := <-reply
	return resp.slot, resp.err
}

// Unsubscribe removes a live subscription by slot id. When Unsubscribe
// returns, the published snapshot no longer matches the subscription:
// events published afterwards are not delivered to it. Events decided
// published earlier may still arrive (each drains against the snapshot
// captured at its Publish).
func (b *Broker) Unsubscribe(slot int) error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	reply := make(chan churnResp, 1)
	b.writerCh <- churnReq{slot: slot, reply: reply}
	resp := <-reply
	return resp.err
}

// Close drains the pipeline and stops all goroutines. Safe to call more
// than once and concurrently with Publish; Publish calls that lose the
// race return ErrClosed. The returned error reports a failed final
// checkpoint or journal close — a durable broker that cannot persist its
// shutdown state must not exit 0 (only the first Close observes it;
// repeat calls return nil).
func (b *Broker) Close() error {
	var closeErr error
	b.closeOnce.Do(func() {
		if b.controlStop != nil {
			close(b.controlStop)
			b.controlWG.Wait()
		}
		if b.health != nil {
			// Unblock Publish calls waiting inside Admit before taking the
			// write lock they hold read-side.
			b.health.Admission.Close()
		}
		b.closeMu.Lock()
		b.closed = true
		b.closeMu.Unlock()
		close(b.publishCh)
		b.decisionWG.Wait()
		close(b.fanoutCh)
		b.fanoutWG.Wait()
		// Stop the writer after fan-out: it must stay alive to serve the
		// quarantine requests fan-out workers file. It drains pending
		// quarantines before exiting, then hands the engine back.
		close(b.writerStop)
		b.writerWG.Wait()
		if b.dur != nil {
			// Everything is quiescent: a clean-shutdown checkpoint leaves
			// nothing in the journal tail, so the next Open replays zero
			// records. Skipped when a crash point fired — the test harness
			// wants the disk exactly as the dying process left it.
			if !b.dur.store.Crashed() {
				if err := b.doCheckpoint(); err != nil && !errors.Is(err, faults.ErrCrashed) {
					closeErr = fmt.Errorf("final checkpoint: %w", err)
				}
			}
			if err := b.dur.store.Close(); err != nil && closeErr == nil {
				closeErr = fmt.Errorf("journal close: %w", err)
			}
		}
	})
	return closeErr
}

// Stats returns a snapshot of the accounting so far (call after Close for
// final numbers). It is a thin view over the telemetry registry: each field
// is an atomic load of the corresponding "broker"-scope counter, so
// successive snapshots are monotone per counter even mid-run.
//
// Across a durable restart (Open over a used directory) the cumulative
// work counters are preserved at checkpoint granularity — Published,
// Multicast, Unicast, Broadcast, Deliveries, Wasted, Subscribes,
// Unsubscribes — seeded from the last checkpoint before any new traffic
// is accepted. Recovery redeliveries do not re-increment them. Everything
// else is explicitly per-incarnation and restarts at zero: SnapshotSwaps,
// the reliability counters (Retries … Lost), the overload/self-healing
// counters, and PerNode.
func (b *Broker) Stats() Stats {
	rt := b.routes.Load()
	out := Stats{
		Published:     b.ctr.published.Value(),
		Multicast:     b.ctr.multicast.Value(),
		Unicast:       b.ctr.unicast.Value(),
		Broadcast:     b.ctr.broadcast.Value(),
		Deliveries:    b.ctr.deliveries.Value(),
		Wasted:        b.ctr.wasted.Value(),
		Subscribes:    b.ctr.subscribes.Value(),
		Unsubscribes:  b.ctr.unsubscribes.Value(),
		SnapshotSwaps: b.ctr.swaps.Value(),
		Retries:       b.ctr.retries.Value(),
		Redelivered:   b.ctr.redelivered.Value(),
		Deduped:       b.ctr.deduped.Value(),
		Degraded:      b.ctr.degraded.Value(),
		Quarantined:   b.ctr.quarantined.Value(),
		Offline:       b.ctr.offline.Value(),
		Lost:          b.ctr.lost.Value(),
		PerNode:       make(map[topology.NodeID]int64, len(rt.nodes)),
	}
	if b.health != nil {
		hc := b.health.CounterSnapshot()
		out.Shed = hc.Shed
		out.Rejected = hc.Rejected
		out.RateLimited = hc.RateLimited
		out.ReleaseSpurious = hc.ReleaseSpurious
		out.BreakerOpens = hc.BreakerOpen
		out.BreakerSkipped = hc.Skipped
		out.Probes = hc.Probes
		out.AutoRefreshes = hc.Refreshes
	}
	for n, nr := range rt.nodes {
		out.PerNode[n] = nr.delivered.Load()
	}
	return out
}

// Health exposes the attached health subsystem (nil without WithHealth).
func (b *Broker) Health() *health.Health { return b.health }

// QuarantineCount reports how many groups the published decision snapshot
// quarantines. Safe to call while the broker runs.
func (b *Broker) QuarantineCount() int { return b.snap.Load().NumQuarantined() }

// SnapshotVersion returns the published decision snapshot's build number.
func (b *Broker) SnapshotVersion() int64 { return b.snap.Load().Version() }

// DecideWorkers returns the resolved decision-worker count (never 0: the
// WithDecideWorkers(0) default resolves to GOMAXPROCS at New).
func (b *Broker) DecideWorkers() int { return b.decideWorkers }

// Telemetry exposes the broker's metrics registry — the shared one passed
// via WithTelemetry, or the private default.
func (b *Broker) Telemetry() *telemetry.Registry { return b.reg }

// decideLoop is one decision worker: it drains admitted publications and
// decides each against a lock-free load of the published snapshot, using
// its private SPT view for cost queries.
func (b *Broker) decideLoop(w int, view *multicast.SPTView) {
	defer b.decisionWG.Done()
	for q := range b.publishCh {
		b.decideOne(q, w, view)
	}
}

// decideOne routes one publication through the decision stage, against the
// snapshot captured when the event was published.
func (b *Broker) decideOne(q queued, w int, view *multicast.SPTView) {
	snap := q.snap
	trace := b.tracer.Begin(q.seq)
	t0 := time.Now()
	var sc *decideScratch
	var d core.Decision
	if b.decisionObs == nil {
		sc = decideScratchPool.Get().(*decideScratch)
		d = snap.DecideInto(q.ev, view, &sc.dec)
	} else {
		// The observer reads the Decision after the fan-out hand-off;
		// pooled buffers would be reused under it, so keep fresh slices.
		d = snap.Decide(q.ev, view)
	}
	dt := time.Since(t0)
	b.decideNs[w].ObserveDuration(dt)
	trace.Add("decide", t0, dt, -1, d.Group, 0, methodNote(d.Method))
	if !q.replay {
		// Recovery redeliveries were counted by the incarnation that
		// journaled them (preserved via checkpoint); counting them again
		// would double-book the restart.
		b.ctr.published.Add(1)
		switch d.Method {
		case multicast.NetworkMulticast:
			b.ctr.multicast.Add(1)
		case multicast.Broadcast:
			b.ctr.broadcast.Add(1)
		default:
			b.ctr.unicast.Add(1)
		}
	}
	r := routed{seq: q.seq, ev: q.ev, d: d, scratch: sc, t0: t0, trace: trace, tok: q.tok}
	switch d.Method {
	case multicast.NetworkMulticast:
		// The snapshot's group tables are immutable; share the member
		// slice instead of copying — fan-out only reads it.
		r.nodes = snap.GroupNodes(d.Group)
	case multicast.Broadcast:
		// Freeze the flood targets now so fan-out and routing paths agree
		// even if a Subscribe grows the route table in between.
		rt := b.routes.Load()
		var nodes []topology.NodeID
		if sc != nil {
			nodes = sc.nodes[:0]
		} else {
			nodes = make([]topology.NodeID, 0, len(rt.nodes))
		}
		for n := range rt.nodes {
			nodes = append(nodes, n)
		}
		if sc != nil {
			sc.nodes = nodes
		}
		r.nodes = nodes
	}
	if b.inj != nil {
		r.paths = routePaths(view, &r)
		r.budget = new(atomic.Int64)
		r.budget.Store(b.rel.RetryBudget)
	}
	if b.health != nil {
		b.health.Admission.NoteFanout(len(d.Interested))
	}
	enq := time.Now()
	b.ctr.queueDepth.Observe(float64(len(b.fanoutCh)))
	if b.health != nil {
		// Try a non-blocking hand-off first: if the fan-out stage is
		// congested and the policy sheds, drop the event here when its
		// fanout is below the running mean — the cheapest loss available.
		select {
		case b.fanoutCh <- r:
		default:
			if b.health.Admission.ShouldShed(len(d.Interested)) {
				b.health.Admission.NoteShed()
				q.tok.Release()
				if b.dur != nil {
					// A shed event never reaches fan-out; retire its
					// checkpoint carry-forward entry here.
					b.dur.inflight.Delete(q.seq)
				}
				trace.Add("shed", enq, time.Since(enq), -1, d.Group, 0, "low-fanout")
				if sc != nil {
					decideScratchPool.Put(sc)
				}
				return
			}
			b.fanoutCh <- r
		}
	} else {
		b.fanoutCh <- r
	}
	trace.Add("enqueue", enq, time.Since(enq), -1, d.Group, 0, "")
	if b.decisionObs != nil {
		b.decisionObs(r.seq, q.ev, d, snap.CostOf(q.ev, d, view))
	}
}

// writer is the single goroutine that owns the engine after New: all
// mutations — subscription churn, quarantines, auto-refreshes — land here,
// and every visible change is published as a fresh immutable snapshot that
// the decision workers pick up on their next load.
func (b *Broker) writer() {
	defer b.writerWG.Done()
	// Durable brokers checkpoint from here too: the timed cadence
	// truncates the journal whenever it holds anything, and heavy churn
	// triggers the record-count threshold between ticks.
	var ckptTick <-chan time.Time
	if b.dur != nil {
		if iv := b.dur.store.Options().CheckpointInterval; iv > 0 {
			t := time.NewTicker(iv)
			defer t.Stop()
			ckptTick = t.C
		}
	}
	for {
		select {
		case req := <-b.writerCh:
			b.handleChurn(req)
			if b.checkpointDue(false) {
				b.doCheckpoint()
			}
		case <-ckptTick:
			if b.checkpointDue(true) {
				b.doCheckpoint()
			}
		case reply := <-b.ckptCh:
			reply <- b.doCheckpoint()
		case g := <-b.quarantineCh:
			b.applyQuarantines(g)
		case wi := <-b.refreshCh:
			b.autoRefresh(wi)
		case <-b.writerStop:
			// Apply any quarantines still queued so post-Close state
			// reflects every reported failure, then hand the engine back.
			for {
				select {
				case g := <-b.quarantineCh:
					b.applyQuarantines(g)
				default:
					return
				}
			}
		}
	}
}

// handleChurn applies one churn request — plus any others already queued,
// coalesced into a single snapshot swap — and replies after the swap, so
// the caller's Subscribe/Unsubscribe return happens-after the snapshot
// covering its change is live.
func (b *Broker) handleChurn(first churnReq) {
	reqs := []churnReq{first}
	for len(reqs) < 32 {
		select {
		case r := <-b.writerCh:
			reqs = append(reqs, r)
		default:
			goto apply
		}
	}
apply:
	resps := make([]churnResp, len(reqs))
	var newOwners []topology.NodeID
	for i, r := range reqs {
		if r.sub != nil {
			slot, err := b.engine.AddSubscription(*r.sub)
			resps[i] = churnResp{slot: slot, err: err}
			if err == nil {
				b.ctr.subscribes.Inc()
				newOwners = append(newOwners, r.sub.Owner)
			}
		} else {
			err := b.engine.RemoveSubscription(r.slot)
			resps[i] = churnResp{err: err}
			if err == nil {
				b.ctr.unsubscribes.Inc()
			}
		}
	}
	if b.dur != nil {
		// Journal + group-commit the batch before the swap: replay order
		// equals swap order, and no snapshot ever covers a subscription the
		// journal could lose.
		b.journalChurn(reqs, resps)
	}
	// Routes first, snapshot second: once a decision can match the new
	// subscriber, its route must already exist.
	b.ensureRoutes(newOwners)
	b.publishSnapshot()
	for i, r := range reqs {
		r.reply <- resps[i]
	}
}

// ensureRoutes grows the route table (copy-on-write) with routes for
// owners not yet present.
func (b *Broker) ensureRoutes(owners []topology.NodeID) {
	rt := b.routes.Load()
	var nrt *routeTable
	for _, n := range owners {
		if _, ok := rt.nodes[n]; ok {
			continue
		}
		if nrt == nil {
			nrt = &routeTable{nodes: maps.Clone(rt.nodes)}
		}
		if _, ok := nrt.nodes[n]; !ok { // an owner may repeat within a batch
			nrt.nodes[n] = b.newRoute(n)
		}
	}
	if nrt != nil {
		b.routes.Store(nrt)
	}
}

// newRoute builds node n's receiving state. Its dedup window exists only
// when a duplicate can arise — durable brokers redeliver after recovery
// (their windows are seeded from it) and fault injection retransmits.
func (b *Broker) newRoute(n topology.NodeID) *nodeRoute {
	nr := &nodeRoute{}
	if b.dur != nil || b.inj != nil {
		nr.win = &lockedWindow{w: b.dur.takeRecovered(n, b.rel.DedupWindow)}
	}
	return nr
}

// publishSnapshot swaps in a fresh decision snapshot if the engine's state
// changed, recording the swap and the retired snapshot's service lifetime.
func (b *Broker) publishSnapshot() {
	s := b.engine.Snapshot()
	if s == b.snap.Load() {
		return
	}
	b.snap.Store(s)
	now := time.Now()
	b.ctr.snapAge.ObserveDuration(now.Sub(b.lastSwap))
	b.lastSwap = now
	b.ctr.swaps.Inc()
	b.ctr.snapVersion.Set(s.Version())
}

// applyQuarantines applies one quarantine request plus any others already
// queued, then publishes the (cheap, structure-sharing) snapshot swap.
// Requests referencing groups that no longer exist — an auto-refresh may
// have shrunk the group count while the request was in flight — are
// dropped.
func (b *Broker) applyQuarantines(first int) {
	g := first
	for {
		if g < b.engine.NumGroups() && !b.engine.Quarantined(g) {
			b.engine.Quarantine(g)
		}
		select {
		case g = <-b.quarantineCh:
		default:
			b.publishSnapshot()
			return
		}
	}
}

// autoRefresh runs one controller-triggered engine refresh on the writer
// goroutine.
func (b *Broker) autoRefresh(warmIters int) {
	// Fold in quarantines that raced the refresh request.
	for {
		select {
		case g := <-b.quarantineCh:
			if g < b.engine.NumGroups() && !b.engine.Quarantined(g) {
				b.engine.Quarantine(g)
			}
			continue
		default:
		}
		break
	}
	if b.engine.NumQuarantined() == 0 && !b.engine.Stale() {
		b.publishSnapshot() // nothing to rebuild; still surface drained state
		return
	}
	// Refresh compacts live slots; capture the compaction order first so
	// the durable slot→id map can follow it.
	var live []int
	if b.dur != nil {
		live = b.engine.LiveSlots()
	}
	if err := b.engine.Refresh(warmIters); err != nil {
		// Refresh can fail legitimately (e.g. zero live subscriptions);
		// leave the quarantines in place and let the loop retry later.
		b.publishSnapshot()
		return
	}
	if b.dur != nil {
		b.remapSlots(live)
	}
	// The rebuilt groups start with a clean slate: allow future failures to
	// quarantine them again.
	b.quarantineSent.Range(func(k, _ any) bool {
		b.quarantineSent.Delete(k)
		return true
	})
	b.publishSnapshot()
	b.health.NoteAutoRefresh()
}

// controlLoop is the self-healing loop: every CheckInterval it snapshots
// the health signals and, when the controller decides the system is both
// degraded and stable enough to rebuild, asks the writer goroutine to
// refresh the engine.
func (b *Broker) controlLoop() {
	defer b.controlWG.Done()
	tick := time.NewTicker(b.health.Controller.Interval())
	defer tick.Stop()
	for {
		select {
		case <-b.controlStop:
			return
		case <-tick.C:
			b.controlTick()
		}
	}
}

// controlTick gathers one Signals snapshot and forwards a refresh request
// when warranted.
func (b *Broker) controlTick() {
	hc := b.health.CounterSnapshot()
	ts := b.health.Tracker.Snapshot()
	snap := b.snap.Load()
	s := health.Signals{
		QuarantinedGroups: snap.NumQuarantined(),
		TotalGroups:       snap.NumGroups(),
		OpenBreakers:      ts.Open,
		HalfOpenBreakers:  ts.HalfOpen,
		Shed:              hc.Shed,
		Rejected:          hc.Rejected,
		Lost:              b.ctr.lost.Value(),
		Skipped:           hc.Skipped,
	}
	if b.health.Controller.Decide(s) {
		b.requestRefresh(b.health.Controller.WarmIters())
	}
}

// requestRefresh queues a refresh for the writer. refreshCh holds a single
// pending request; when one is already queued the stale value is drained
// and replaced so the latest warm-iteration count wins (a plain
// non-blocking send would silently keep the stale one).
func (b *Broker) requestRefresh(warmIters int) {
	for {
		select {
		case b.refreshCh <- warmIters:
			return
		default:
		}
		select {
		case <-b.refreshCh:
		default:
		}
	}
}

// methodNote renders a decision method for trace spans.
func methodNote(m multicast.Method) string {
	switch m {
	case multicast.NetworkMulticast:
		return "multicast"
	case multicast.Broadcast:
		return "broadcast"
	default:
		return "unicast"
	}
}

// requestQuarantine asks the writer goroutine to quarantine a group. The
// send never blocks; at-most-once per group is guaranteed by
// quarantineSent, and a full channel simply drops the request — a later
// failure will retry.
func (b *Broker) requestQuarantine(group int) {
	if group < 0 {
		return
	}
	if _, dup := b.quarantineSent.LoadOrStore(group, true); dup {
		return
	}
	b.ctr.quarantined.Add(1)
	select {
	case b.quarantineCh <- group:
	default:
		b.quarantineSent.Delete(group)
	}
}

// routePaths resolves each destination's primary routing path along the
// publisher's shortest-path tree, using the decision worker's private SPT
// view. Destinations come from the routed event itself (its frozen node
// sets), never from mutable broker state.
func routePaths(view *multicast.SPTView, r *routed) map[topology.NodeID][]topology.NodeID {
	spt := view.SPT(r.ev.Pub)
	paths := make(map[topology.NodeID][]topology.NodeID)
	add := func(n topology.NodeID) {
		if _, ok := paths[n]; !ok {
			paths[n] = spt.PathTo(n)
		}
	}
	switch r.d.Method {
	case multicast.Broadcast, multicast.NetworkMulticast:
		for _, n := range r.nodes {
			add(n)
		}
		for _, n := range r.d.Remainder {
			add(n)
		}
	default:
		for _, n := range r.d.Interested {
			add(n)
		}
	}
	return paths
}

// fanout delivers and accepts every copy of each routed event. A fully
// fanned-out event releases its admission token — the point where the
// inflight bound stops counting it.
func (b *Broker) fanout() {
	defer b.fanoutWG.Done()
	var held []heldCopy // reused across events
	for r := range b.fanoutCh {
		r.held = held
		b.fanoutOne(&r)
		if b.holdAcks {
			held = b.releaseHeld(&r)
		}
		if b.dur != nil {
			// Every copy was accepted or dropped: future checkpoints stop
			// carrying the publication's journal record forward.
			b.dur.inflight.Delete(r.seq)
		}
		r.tok.Release()
		if r.scratch != nil {
			// Every copy is accepted (Delivery holds values, not the
			// decision's slices), so the event no longer references the
			// scratch-backed buffers.
			decideScratchPool.Put(r.scratch)
		}
	}
}

// fanoutOne delivers one routed event to all its destinations.
func (b *Broker) fanoutOne(r *routed) {
	rt := b.routes.Load()
	unicast := Delivery{Event: r.ev, Seq: r.seq, Method: multicast.Unicast, Group: -1, Interested: true}
	switch r.d.Method {
	case multicast.Broadcast, multicast.NetworkMulticast:
		// A flood reaches every subscriber node captured at decision time
		// (non-subscriber nodes have no route and are represented by waste
		// accounting at the cost level, not the delivery level); a group
		// multicast reaches the group's members, then the remainder.
		d := unicast
		d.Method = r.d.Method
		if r.d.Method == multicast.NetworkMulticast {
			d.Group = r.d.Group
		}
		for _, n := range r.nodes {
			d.Interested = interestedIn(&r.d, n)
			b.deliver(rt, r, n, d)
		}
		for _, n := range r.d.Remainder {
			b.deliver(rt, r, n, unicast)
		}
	default:
		for _, n := range r.d.Interested {
			b.deliver(rt, r, n, unicast)
		}
	}
}

// deliver hands a copy to a node; unknown nodes (non-subscribers) are
// counted but have no route. Under fault injection it runs the reliability
// protocol.
func (b *Broker) deliver(rt *routeTable, r *routed, n topology.NodeID, d Delivery) {
	d.born = r.t0
	d.trace = r.trace
	nr, ok := rt.nodes[n]
	if !ok {
		// A group may reference a node that stopped subscribing between
		// refreshes; count the waste, nothing to deliver to.
		b.ctr.deliveries.Add(1)
		if !d.Interested {
			b.ctr.wasted.Add(1)
		}
		return
	}
	if b.inj == nil {
		b.accept(r, n, nr, d)
		return
	}
	b.deliverReliable(r, n, nr, d)
}

// deliverReliable runs the retry → degrade → quarantine ladder for one
// delivery over the lossy fabric.
func (b *Broker) deliverReliable(r *routed, n topology.NodeID, nr *nodeRoute, d Delivery) {
	if b.health != nil && !b.health.Tracker.AllowDest(n) {
		// Open breaker: skip the destination outright instead of burning
		// the event's retry budget on a known-dead path. The routed group
		// stays quarantined until the destination recovers and the control
		// loop rebuilds.
		b.health.NoteSkip()
		r.trace.Add("breaker-skip", time.Now(), 0, int64(n), d.Group, 0, "open")
		if d.Group >= 0 {
			b.requestQuarantine(d.Group)
		}
		return
	}
	if b.inj.NodeDown(n, r.seq) {
		// Destination crashed: nothing to retry against. The loss is
		// expected (the completeness invariant covers live nodes only), but
		// a routed group with a dead member is degraded state — quarantine
		// it so future events unicast around the corpse.
		b.ctr.offline.Add(1)
		r.trace.Add("offline", time.Now(), 0, int64(n), d.Group, 0, "node down")
		if b.health != nil {
			b.health.Tracker.ReportFailure(n)
		}
		if d.Group >= 0 {
			b.requestQuarantine(d.Group)
		}
		return
	}

	// Primary path: bounded retries with exponential backoff + jitter,
	// capped by the event's shared retry budget.
	path := r.paths[n]
	attempt := 0
	for ; attempt <= b.rel.MaxRetries; attempt++ {
		if attempt > 0 {
			if r.budget.Add(-1) < 0 {
				r.trace.Add("degrade", time.Now(), 0, int64(n), d.Group, attempt, "budget-exhausted")
				break // event budget exhausted: degrade immediately
			}
			b.ctr.retries.Add(1)
			b.backoff(r.seq, n, attempt)
		}
		if !b.inj.DropAttempt(r.seq, n, attempt, path) {
			if b.health != nil {
				b.health.Tracker.ReportPath(path, true)
			}
			b.complete(r, n, nr, d, attempt)
			return
		}
		r.trace.Add("retry", time.Now(), 0, int64(n), d.Group, attempt, "dropped")
	}
	if b.health != nil {
		// The primary path exhausted its retries: every hop shares the
		// suspicion (the broker cannot tell which one dropped the copies).
		b.health.Tracker.ReportPath(path, false)
	}

	// Degraded: recompute a route with failed links removed and unicast
	// along it. LastResort attempts stand in for "retry until the peer is
	// declared dead", so live reachable nodes essentially never lose.
	alt := routing.DijkstraAvoid(b.graph, r.ev.Pub, b.inj.Blocked(r.seq))
	apath := alt.PathTo(n)
	if apath == nil {
		// Partitioned even after removing failed links from the route
		// computation: abandon and quarantine.
		r.trace.Add("abandon", time.Now(), 0, int64(n), d.Group, attempt, "partitioned")
		b.abandon(n, d)
		return
	}
	d.Degraded = true
	d.Method = multicast.Unicast
	r.trace.Add("degrade", time.Now(), 0, int64(n), d.Group, attempt, "alternate-path")
	for la := 0; la < b.rel.LastResort; la++ {
		if la > 0 {
			b.ctr.retries.Add(1)
			b.backoff(r.seq, n, attempt+la)
		}
		if !b.inj.DropAttempt(r.seq, n, attempt+la, apath) {
			b.ctr.degraded.Add(1)
			b.complete(r, n, nr, d, attempt+la)
			return
		}
	}
	r.trace.Add("abandon", time.Now(), 0, int64(n), d.Group, attempt+b.rel.LastResort, "last-resort exhausted")
	b.abandon(n, d)
}

// complete accepts a successful (possibly retransmitted, possibly
// duplicated, possibly delayed) copy at the destination.
func (b *Broker) complete(r *routed, n topology.NodeID, nr *nodeRoute, d Delivery, attempt int) {
	d.Attempt = attempt
	if attempt > 0 {
		b.ctr.redelivered.Add(1)
	}
	if delay := b.inj.Delay(r.seq, n); delay > 0 {
		time.Sleep(delay)
	}
	b.accept(r, n, nr, d)
	if b.inj.Duplicate(r.seq, n) {
		b.accept(r, n, nr, d) // the node's dedup window suppresses the copy
	}
}

// abandon records a delivery given up on for a live node and quarantines
// the routed group.
func (b *Broker) abandon(n topology.NodeID, d Delivery) {
	b.ctr.lost.Add(1)
	if b.health != nil {
		b.health.Tracker.ReportFailure(n)
	}
	if d.Group >= 0 {
		b.requestQuarantine(d.Group)
	}
}

// backoff sleeps the exponential backoff for the given retry attempt:
// BaseBackoff·2^(attempt-1) capped at MaxBackoff, scaled by a
// deterministic jitter in [0.5, 1.5).
func (b *Broker) backoff(seq int64, n topology.NodeID, attempt int) {
	d := b.rel.BaseBackoff
	for i := 1; i < attempt && d < b.rel.MaxBackoff; i++ {
		d *= 2
	}
	if d > b.rel.MaxBackoff {
		d = b.rel.MaxBackoff
	}
	jitter := 0.5 + b.inj.Jitter(seq, n, attempt)
	wait := time.Duration(float64(d) * jitter)
	time.Sleep(wait)
	b.ctr.backoffWait.ObserveDuration(wait)
}

// accept is the receiving end of one copy, run on the fan-out worker that
// delivers it: dedup within the node's window (journalling the ack first on
// durable brokers), then observe. A replicated broker holds the copy back
// instead, until releaseHeld has the event's acks on the replica — one
// barrier per event rather than one replica round trip per copy.
func (b *Broker) accept(r *routed, n topology.NodeID, nr *nodeRoute, d Delivery) {
	if nr.win != nil {
		var ack func() error
		if b.dur != nil {
			ack = func() error {
				t, err := b.dur.store.AppendAck(n, d.Seq)
				r.ackTicket = max(r.ackTicket, t)
				return err
			}
		}
		fresh, err := nr.win.admit(d.Seq, ack)
		if err != nil {
			// Store crashed mid-ack: drop the copy unobserved — the next
			// incarnation redelivers it unless the ack reached the journal
			// first (the output-commit window; recorded for chaos oracles).
			if errors.Is(err, faults.ErrCrashed) {
				b.dur.noteLost(n, d.Seq)
			}
			return
		}
		if !fresh {
			b.ctr.deduped.Add(1)
			d.trace.Add("dedup", time.Now(), 0, int64(n), d.Group, d.Attempt, "")
			return
		}
	}
	if b.holdAcks {
		r.held = append(r.held, heldCopy{n: n, nr: nr, d: d})
		return
	}
	b.observe(n, nr, d)
}

// releaseHeld waits until the replica has every ack of r's held copies,
// then observes them; a failed barrier drops them unobserved, like a
// failed ack append. Their seqs stay in the windows: the local journal
// already holds their acks, so a restart from this directory suppresses
// them either way. It returns the emptied buffer for reuse.
func (b *Broker) releaseHeld(r *routed) []heldCopy {
	if len(r.held) == 0 {
		return r.held
	}
	err := b.dur.store.AckBarrier(r.ackTicket)
	for _, c := range r.held {
		switch {
		case err == nil:
			b.observe(c.n, c.nr, c.d)
		case errors.Is(err, faults.ErrCrashed):
			b.dur.noteLost(c.n, c.d.Seq)
		}
	}
	clear(r.held) // drop the events' references before reuse
	return r.held[:0]
}

// observe accounts one accepted copy — counters, the latency histogram,
// the breaker's success signal — and hands it to the observer.
func (b *Broker) observe(n topology.NodeID, nr *nodeRoute, d Delivery) {
	b.ctr.deliveries.Add(1)
	nr.delivered.Add(1)
	lat := time.Since(d.born)
	b.ctr.deliverLatency.ObserveDuration(lat)
	if b.health != nil {
		b.health.Tracker.ReportSuccess(n, lat)
	}
	d.trace.Add("ack", time.Now(), 0, int64(n), d.Group, d.Attempt, "")
	if !d.Interested {
		b.ctr.wasted.Add(1)
	}
	if b.observer != nil {
		b.observer(n, d)
	}
}
