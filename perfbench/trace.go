package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/rtree"
	"repro/internal/stree"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// tracer records the traced run's hook timestamps: the decision observer,
// the Dispatch wrapper, the router's publish and the shard feed wrapper.
// Everything is appended to lock-free logs and joined with the copies
// after the run, keyed by the event's seq.
type tracer struct {
	clk       clock
	decisions clog[stamp]
	dispatch  clog[dispatchRec]
	feeds     clog[int64] // feed durations, ns
	routes    clog[int64] // router publish durations, ns
}

type stamp struct{ seq, t int64 }

type dispatchRec struct {
	seq, t0, t1 int64
	node        int32
}

func (t *tracer) decided(seq int64, _ workload.Event, _ core.Decision, _ core.Costs) {
	t.decisions.add(stamp{seq: seq, t: t.clk.now()})
}

func (t *tracer) dispatched(n topology.NodeID, seq, t0, t1 int64) {
	t.dispatch.add(dispatchRec{seq: seq, t0: t0, t1: t1, node: int32(n)})
}

func (t *tracer) fed(t0, t1 int64)    { t.feeds.add(t1 - t0) }
func (t *tracer) routed(t0, t1 int64) { t.routes.add(t1 - t0) }

func (t *tracer) reset() {
	t.decisions.reset()
	t.dispatch.reset()
	t.feeds.reset()
	t.routes.reset()
}

func logValues(l *clog[int64]) []int64 {
	v := make([]int64, l.len())
	for i := range v {
		v[i] = l.at(i)
	}
	return v
}

// traceRun accumulates the traced run's metrics and oracle verdicts.
type traceRun struct {
	o    options
	s    spec
	env  *runEnv
	tr   *tracer
	in   *inputs
	mets map[string]metric
	out  outcome
}

func (t *traceRun) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	t.mets[name] = metric{Value: v, Unit: unit}
}

// absorb adds one pass's oracle verdict to the run's outcome.
func (t *traceRun) absorb(pass string, v verdict) {
	t.out.attempted += v.attempted
	t.out.failed += v.failed
	for k, n := range v.failures {
		if n > 0 {
			t.out.failures[pass+"."+k] += n
		}
	}
}

// runTraced is the traced run. It builds the workload's inputs once,
// drives the workload's own stack in an open loop twice — untraced for
// the runtime metrics, then with the span hooks — and then replays the
// event stream through the layer ladder: R*-tree stab, snapshot decide,
// in-memory broker, + journal, + replication barrier, + wire, and a
// 4-shard router. Every pass is checked against the oracle.
func runTraced(o options, s spec) (*outcome, map[string]metric, error) {
	env, cleanup, err := newEnv(o)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	t := &traceRun{o: o, s: s, env: env, tr: &tracer{clk: env.clk}, mets: map[string]metric{},
		out: outcome{failures: map[string]int64{}}}

	t0 := time.Now()
	in, err := buildInputs(s)
	if err != nil {
		return nil, nil, err
	}
	t.in = in
	t1 := time.Now()
	engines, err := buildEngines(in)
	if err != nil {
		return nil, nil, err
	}
	t.set("workload.gen_s", "s", in.genDur.Seconds())
	t.set("cluster.build_s", "s", time.Since(t1).Seconds())
	fmt.Fprintf(o.log, "  inputs %v, clustering %v\n", t1.Sub(t0).Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))

	if err := t.fullStack(engines); err != nil {
		return nil, nil, err
	}
	if err := t.ladder(engines); err != nil {
		return nil, nil, err
	}
	return &t.out, t.mets, nil
}

// openPass drives a fresh stack over the workload's engines with the open
// loop for half the run length, and the subscribe phase when asked, and
// returns the driver after the oracle check.
func (t *traceRun) openPass(engines []*core.Engine, tr *tracer, name string, subscribe bool) (*driver, verdict, passCost, error) {
	t.env.sink.reset()
	st, err := startStack(t.s.kind, t.in, engines, t.env, tr, name)
	if err != nil {
		return nil, verdict{}, passCost{}, err
	}
	n := int(t.s.rate*t.o.seconds/2) + 1
	evs := t.in.world.Events(n+1, t.o.seed*16+seedStream)
	d := &driver{env: t.env, st: st, evs: evs, exp: expectedNodes(t.in.world, evs), pubs: make([]pubRec, len(evs))}
	if _, err := d.prime(); err != nil {
		st.stop()
		return nil, verdict{}, passCost{}, err
	}
	runtime.GC()
	d.steal = startSteal(t.env.clk, nil)
	cost := passCost{before: readRuntime(), cpu: cpuTime()}
	stopSampling := sampleGoroutines(&cost.goroutines)
	start := d.openLoop(1, len(evs), t.s.window, t.s.rate, nil)
	d.openWins = split(start, start+int64(float64(len(evs)-1)*float64(time.Second)/t.s.rate), statWindows)
	stopSampling()
	cost.cpu = cpuTime() - cost.cpu
	cost.after = readRuntime()
	if subscribe && t.s.subOps > 0 {
		subs, err := phaseSubs(t.in, t.s, t.o.seed)
		if err != nil {
			d.steal.stop()
			st.stop()
			return nil, verdict{}, passCost{}, err
		}
		d.drain(100*time.Millisecond, 10*time.Second)
		runtime.GC()
		a := t.env.clk.now()
		d.subscribePhase(subs, rand.New(rand.NewSource(t.o.seed*16+seedChurn)))
		d.subWins = split(a, t.env.clk.now(), statWindows)
	}
	d.steal.stop()
	d.drain(300*time.Millisecond, 10*time.Second)
	if err := st.stop(); err != nil {
		return nil, verdict{}, passCost{}, fmt.Errorf("stopping %s: %w", name, err)
	}
	v := check(d.pubs, d.exp, &t.env.sink.copies, d.ops, true)
	t.absorb(name, v)
	return d, v, cost, nil
}

// passCost is what the process spent over an open loop.
type passCost struct {
	before, after runtimeSample
	cpu           int64 // process CPU, ns
	goroutines    int   // peak
}

// fullStack runs the workload's own stack untraced — the open loop and
// the subscribe phase — and then traced, and reports the runtime metrics,
// the stack's tail and publish latencies, the tracing overhead and the
// span tree.
func (t *traceRun) fullStack(engines []*core.Engine) error {
	d, plain, cost, err := t.openPass(engines, nil, "untraced", true)
	if err != nil {
		return err
	}
	rt0, rt1, cpu, goroutines := cost.before, cost.after, cost.cpu, cost.goroutines
	events := float64(len(d.evs))
	t.set("runtime.gc_cycles_per_kevent", "count", float64(rt1.gcCycles-rt0.gcCycles)/events*1000)
	t.set("runtime.gc_pause_p99_us", "us", pauseQuantile(rt0.pauses, rt1.pauses, 0.99)*1e6)
	t.set("runtime.allocs_per_event", "count", float64(rt1.allocs-rt0.allocs)/events)
	t.set("runtime.goroutines", "count", float64(goroutines))
	t.set("process.cpu_us_per_event", "us", float64(cpu)/events/1e3)
	t.set("bench.gen_late_p99_us", "us", quantile(d.genLate, 0.99)/1e3)
	lat := loadLatencies(d, plain)
	t.set("stack.deliver_p99_us", "us", lat.deliverP99)
	t.set("stack.publish_p50_us", "us", lat.publishP50)
	t.set("stack.publish_p99_us", "us", lat.publishP99)
	t.set("stack.subscribe_p99_us", "us", lat.subscribeP99)

	t.tr.reset()
	dt, traced, _, err := t.openPass(engines, t.tr, "traced", false)
	if err != nil {
		return err
	}
	plainMean, tracedMean := mean(plain.deliver), mean(traced.deliver)
	t.set("bench.trace_overhead_frac", "ratio", (tracedMean-plainMean)/plainMean)
	return t.spans(dt)
}

// span is one interval of an event's blocking path.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spans builds each traced event's blocking path — the hooks its last
// expected copy crossed — writes the span dump, and reports the mean self
// time of each span and how much of the mean publish→deliver time they
// account for.
func (t *traceRun) spans(d *driver) error {
	decided := map[int64]int64{}
	for i := 0; i < t.tr.decisions.len(); i++ {
		s := t.tr.decisions.at(i)
		decided[s.seq] = s.t
	}
	type nodeSeq struct {
		node int32
		seq  int64
	}
	dispatch := map[nodeSeq]dispatchRec{}
	for i := 0; i < t.tr.dispatch.len(); i++ {
		r := t.tr.dispatch.at(i)
		dispatch[nodeSeq{r.node, r.seq}] = r
	}
	last := map[int64]copyRec{} // seq → last expected copy
	idxOf := map[int64]int{}
	for i, p := range d.pubs {
		if p.done && !p.err {
			idxOf[p.seq] = i
		}
	}
	for k := 0; k < t.env.sink.copies.len(); k++ {
		c := t.env.sink.copies.at(k)
		i, ok := idxOf[c.seq]
		if !ok || !contains(d.exp[i], c.node) {
			continue
		}
		if l, ok := last[c.seq]; !ok || c.t > l.t {
			last[c.seq] = c
		}
	}

	path, err := os.Create(filepath.Join(t.o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", t.s.name, t.o.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(path)
	enc := json.NewEncoder(bw)
	self := map[string]float64{}
	var order []string
	var rootSum float64
	var n int
	for i, p := range d.pubs {
		c, ok := last[p.seq]
		if !p.done || p.err || !ok {
			continue
		}
		root := span{Name: "deliver", Start: p.sched, End: c.t}
		kids := []span{{Name: "bench.generator", Start: p.sched, End: p.issue}}
		switch {
		case t.s.kind == federated:
			kids = append(kids, span{Name: "federate.route_decide_feed", Start: p.issue, End: c.t})
		default:
			dt, ok := decided[p.seq]
			if !ok {
				continue
			}
			kids = append(kids, span{Name: "broker.admit_decide", Start: p.issue, End: dt})
			if r, ok := dispatch[nodeSeq{c.node, c.seq}]; ok {
				kids = append(kids,
					span{Name: "broker.fanout", Start: dt, End: r.t0},
					span{Name: "transport.dispatch", Start: r.t0, End: r.t1},
					span{Name: "transport.wire_recv", Start: r.t1, End: c.t})
			} else {
				kids = append(kids, span{Name: "broker.fanout", Start: dt, End: c.t})
			}
		}
		covered := int64(0)
		for k := range kids {
			kids[k].Parent = root.Name
			if kids[k].End < kids[k].Start {
				kids[k].End = kids[k].Start // hooks can fire out of order; clamp
			}
			dur := float64(kids[k].End - kids[k].Start)
			if _, seen := self[kids[k].Name]; !seen {
				order = append(order, kids[k].Name)
			}
			self[kids[k].Name] += dur
			covered += kids[k].End - kids[k].Start
		}
		rootSelf := float64(root.End-root.Start) - float64(covered)
		if _, seen := self["deliver(self)"]; !seen {
			order = append(order, "deliver(self)")
		}
		self["deliver(self)"] += rootSelf
		rootSum += float64(root.End - root.Start)
		n++
		if n <= 2000 {
			enc.Encode(struct {
				Seq   int64  `json:"seq"`
				Event int    `json:"event"`
				Spans []span `json:"spans"`
			}{p.seq, i, append([]span{root}, kids...)})
		}
	}
	if err := bw.Flush(); err != nil {
		path.Close()
		return err
	}
	if err := path.Close(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("traced run produced no complete span trees")
	}
	var pathSum float64
	fmt.Fprintf(t.o.log, "  blocking path over %d traced events (mean publish→deliver %.1f us):\n", n, rootSum/float64(n)/1e3)
	for _, name := range order {
		m := self[name] / float64(n)
		if name != "deliver(self)" {
			pathSum += m
		}
		fmt.Fprintf(t.o.log, "    %-28s self %10.1f us\n", name, m/1e3)
	}
	t.set("trace.deliver_mean_us", "us", rootSum/float64(n)/1e3)
	t.set("trace.path_coverage_frac", "ratio", pathSum/(rootSum/float64(n)))
	return nil
}

func contains(sorted []int32, n int32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= n })
	return i < len(sorted) && sorted[i] == n
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	gcCycles, allocs uint64
	pauses           *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	r := runtimeSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		r.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return r
}

// pauseQuantile is the q-quantile, in seconds, of the GC pauses between
// two readings (the upper edge of the bucket it falls in).
func pauseQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range diff {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range diff {
		cum += c
		if cum >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// sampleGoroutines records the peak goroutine count every 50 ms until the
// returned stop function is called; stop waits for the sampler to exit.
func sampleGoroutines(peak *int) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > *peak {
				*peak = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// ladder replays the workload's stream through each layer: alone for the
// stab and the decide, then cumulatively through the serving stack.
func (t *traceRun) ladder(engines []*core.Engine) error {
	w := t.in.world
	evs := w.Events(2000, t.o.seed*16+seedStream)
	exp := expectedNodes(w, evs)
	if err := t.stabRung(w, evs); err != nil {
		return err
	}
	// The serving rungs need one engine over the whole world. A wire or
	// federated workload's engines are not it (the wire subscriber adds
	// ownership rectangles), so those cluster a fresh one.
	full := engines[0]
	if t.s.kind == wireStack || t.s.kind == federated {
		fe, err := core.NewFromWorld(w, t.in.train, t.in.cfg)
		if err != nil {
			return fmt.Errorf("cluster ladder engine: %w", err)
		}
		full = fe
	}
	t.decideRung(full, evs)
	return t.servingRungs(full, engines, evs, exp)
}

// stabRung times the R*-tree stab over the live subscriptions, with the
// S-tree and the brute-force scan as reference points on the same events.
func (t *traceRun) stabRung(w *workload.World, evs []workload.Event) error {
	rt := rtree.New(w.Dim)
	st := stree.New(w.Dim)
	for i, s := range w.Subs {
		if err := rt.Insert(s.Rect, i); err != nil {
			return err
		}
		if err := st.Insert(s.Rect, i); err != nil {
			return err
		}
	}
	br := matching.NewBrute(w)
	clk := t.env.clk
	var hits int
	buf := make([]int, 0, 1024)
	for _, ev := range evs { // warm
		buf = rt.SearchPointAppend(ev.Point, buf[:0])
	}
	rtNs := make([]int64, len(evs))
	stNs := make([]int64, len(evs))
	brNs := make([]int64, len(evs))
	for i, ev := range evs {
		a := clk.now()
		buf = rt.SearchPointAppend(ev.Point, buf[:0])
		b := clk.now()
		sh := st.SearchPoint(ev.Point)
		c := clk.now()
		bh := br.Match(ev.Point)
		e := clk.now()
		rtNs[i], stNs[i], brNs[i] = b-a, c-b, e-c
		hits += len(buf)
		if len(sh) != len(buf) || len(bh) != len(buf) {
			t.out.failures["stab.index_disagrees"]++
			t.out.failed++
		}
		t.out.attempted++
	}
	t.set("rtree.stab_p50_ns", "ns", quantile(rtNs, 0.5))
	t.set("rtree.stab_p99_ns", "ns", quantile(rtNs, 0.99))
	t.set("rtree.hits_per_event", "count", float64(hits)/float64(len(evs)))
	t.set("stree.stab_p50_ns", "ns", quantile(stNs, 0.5))
	t.set("matching.brute_p50_ns", "ns", quantile(brNs, 0.5))
	t.set("ladder.stab_p50_us", "us", quantile(rtNs, 0.5)/1e3)
	t.set("ladder.stab_p99_us", "us", quantile(rtNs, 0.99)/1e3)
	return nil
}

// decideRung times the warm snapshot decide on one goroutine, and its
// throughput on one and on two goroutines, each with its own view and
// scratch: the plane's own scaling, without the broker around it.
func (t *traceRun) decideRung(e *core.Engine, evs []workload.Event) {
	snap := e.Snapshot()
	view := e.NewSPTView()
	var sc core.DecideScratch
	for _, ev := range evs { // warm the shortest-path-tree cache
		snap.DecideInto(ev, view, &sc)
	}
	clk := t.env.clk
	ns := make([]int64, len(evs))
	var mcast, interested, remainder int
	for i, ev := range evs {
		a := clk.now()
		d := snap.DecideInto(ev, view, &sc)
		ns[i] = clk.now() - a
		if d.Group >= 0 {
			mcast++
		}
		interested += len(d.Interested)
		remainder += len(d.Remainder)
	}
	n := float64(len(evs))
	t.set("core.decide_p50_ns", "ns", quantile(ns, 0.5))
	t.set("core.decide_p99_ns", "ns", quantile(ns, 0.99))
	t.set("core.multicast_frac", "ratio", float64(mcast)/n)
	t.set("core.interested_per_event", "count", float64(interested)/n)
	t.set("core.remainder_per_event", "count", float64(remainder)/n)
	t.set("ladder.decide_p50_us", "us", quantile(ns, 0.5)/1e3)
	t.set("ladder.decide_p99_us", "us", quantile(ns, 0.99)/1e3)
	for _, workers := range []int{1, 2} {
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int, v *multicast.SPTView) {
				defer wg.Done()
				var sc core.DecideScratch
				for rep := 0; rep < 2; rep++ {
					for i := k; i < len(evs); i += workers {
						snap.DecideInto(evs[i], v, &sc)
					}
				}
			}(k, e.NewSPTView())
		}
		wg.Wait()
		t.set(fmt.Sprintf("core.decide_w%d_eps", workers), "events/s", 2*n/time.Since(start).Seconds())
	}
}

// rungResult is one serving rung's window-1 replay.
type rungResult struct {
	lat, pub  []int64 // publish→last expected copy, publish call, ns
	d         *driver
	st        *stack
	events    int // completed measured events
	published int // every event the rung published, warm-up included
}

// rung replays evs through st one event at a time (each publish waits for
// its last expected copy) for at most dur, stops st and checks the copies.
func (t *traceRun) rung(name string, st *stack, evs []workload.Event, exp [][]int32, dur time.Duration) (*rungResult, error) {
	d := &driver{env: t.env, st: st, evs: evs, exp: exp, pubs: make([]pubRec, len(evs))}
	seq0, err := d.prime()
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("%s rung: %w", name, err)
	}
	tr := newTracker(seq0+1, len(evs)+8, 1)
	t.env.sink.tracker.Store(tr)
	d.closedLoop(tr, 1, min(len(evs), 17), 1, time.Second, phaseWarm)
	d.closedLoop(tr, 17, len(evs), 1, dur, phaseClosed)
	t.env.sink.tracker.Store(nil)
	d.drain(200*time.Millisecond, 10*time.Second)
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stopping %s rung: %w", name, err)
	}
	t.absorb(name, check(d.pubs, exp, &t.env.sink.copies, nil, true))
	r := &rungResult{d: d, st: st}
	for _, p := range d.pubs {
		if p.done {
			r.published++
		}
		if p.phase == phaseClosed && p.done && !p.err && p.complete > 0 {
			r.lat = append(r.lat, p.complete-p.issue)
			r.pub = append(r.pub, p.ret-p.issue)
			r.events++
		}
	}
	fmt.Fprintf(t.o.log, "  ladder %-9s p50 %9.1f us  p99 %9.1f us  (%d events)\n", name, quantile(r.lat, 0.5)/1e3, quantile(r.lat, 0.99)/1e3, r.events)
	t.set("ladder."+name+"_p50_us", "us", quantile(r.lat, 0.5)/1e3)
	t.set("ladder."+name+"_p99_us", "us", quantile(r.lat, 0.99)/1e3)
	return r, nil
}

// servingRungs runs the cumulative serving rungs over one engine: the
// in-memory broker, + journal, + replication barrier, + wire; and the
// 4-shard router over in-memory shards.
func (t *traceRun) servingRungs(e *core.Engine, engines []*core.Engine, evs []workload.Event, exp [][]int32) error {
	dur := time.Duration(t.o.seconds / 10 * float64(time.Second))
	env := t.env

	// In-memory broker, with the decision hook for the decided and
	// fan-out splits.
	env.sink.reset()
	t.tr.reset()
	st, err := startInproc(e, env, t.tr)
	if err != nil {
		return err
	}
	mem, err := t.rung("broker", st, evs, exp, dur)
	if err != nil {
		return err
	}
	t.brokerMetrics(mem)
	if err := t.brokerScaling(e, evs, exp); err != nil {
		return err
	}

	// + journal: a durable broker with fsync, no follower.
	env.sink.reset()
	dir := filepath.Join(env.tmp, "ladder-journal")
	reg := telemetry.NewRegistry()
	b, err := broker.Open(dir, e, brokerOptions(env, reg, nil, env.observe)...)
	if err != nil {
		return fmt.Errorf("journal rung: %w", err)
	}
	jr, err := t.rung("journal", &stack{publish: b.PublishSeq, stop: b.Close, reg: reg}, evs, exp, dur)
	if err != nil {
		return err
	}
	ds := reg.Snapshot()["durable"].Counters
	ev := float64(jr.published)
	t.set("durable.appends_per_event", "count", float64(ds["journal_appends"])/ev)
	t.set("durable.appends_per_fsync", "ratio", float64(ds["journal_appends"])/math.Max(1, float64(ds["journal_fsyncs"])))
	t.set("durable.bytes_per_event", "B", float64(ds["journal_append_bytes"])/ev)
	t.set("durable.publish_delta_p50_us", "us", (quantile(jr.pub, 0.5)-quantile(mem.pub, 0.5))/1e3)
	rs := time.Now()
	rb, err := broker.Open(dir, e)
	if err != nil {
		return fmt.Errorf("recovering the journal rung: %w", err)
	}
	t.set("durable.recover_ms", "ms", float64(time.Since(rs).Microseconds())/1e3)
	if err := rb.Close(); err != nil {
		return err
	}

	// + replication barrier: leader and follower, both with fsync.
	env.sink.reset()
	st, err = startDurable(e, t.in.world, env, nil, "ladder-replicate")
	if err != nil {
		return err
	}
	ldr := st.leader
	rr, err := t.rung("replicate", st, evs, exp, dur)
	if err != nil {
		return err
	}
	ls := ldr.Stats()
	t.set("replicate.barrier_delta_p50_us", "us", (quantile(rr.lat, 0.5)-quantile(jr.lat, 0.5))/1e3)
	t.set("replicate.barrier_delta_p99_us", "us", (quantile(rr.lat, 0.99)-quantile(jr.lat, 0.99))/1e3)
	t.set("replicate.shipped_per_event", "count", float64(ls.RecordsShipped)/float64(rr.published))
	t.set("replicate.solo_drops", "count", float64(ls.SoloDrops))
	t.set("replicate.resyncs", "count", float64(ls.Resyncs))

	// + wire: the replicated leader's broker behind transport.Server.
	env.sink.reset()
	t.tr.reset()
	st, err = startWireDurable(e, t.in.world, env, t.tr)
	if err != nil {
		return err
	}
	wr, err := t.rung("wire", st, evs, exp, dur)
	if err != nil {
		return err
	}
	t.wireMetrics(wr)

	// 4-shard router over in-memory shards.
	tiles := t.in.tiles
	if tiles == nil {
		if tiles, err = federate.Derive(t.in.world, t.in.train, 4); err != nil {
			return err
		}
	}
	shards := engines
	if t.in.tiles == nil {
		if shards, err = buildEngines(&inputs{world: t.in.world, train: t.in.train, tiles: tiles, cfg: t.in.cfg}); err != nil {
			return err
		}
	}
	env.sink.reset()
	t.tr.reset()
	st, err = startFederated(shards, tiles, env, t.tr)
	if err != nil {
		return err
	}
	fr, err := t.rung("router", st, evs, exp, dur)
	if err != nil {
		return err
	}
	fs := fr.st.router.Stats()
	t.set("federate.publish_p50_ns", "ns", quantile(logValues(&t.tr.routes), 0.5))
	feeds := logValues(&t.tr.feeds)
	t.set("federate.feed_p50_ns", "ns", quantile(feeds, 0.5))
	t.set("federate.feed_p99_ns", "ns", quantile(feeds, 0.99))
	t.set("federate.fanout_per_event", "count", float64(fs.Fanout)/math.Max(1, float64(fs.Published)))
	t.set("federate.suppressed_frac", "ratio", float64(fs.Suppressed)/math.Max(1, float64(fs.Delivered+fs.Suppressed)))
	t.set("federate.retries", "count", float64(fs.Retries))
	return nil
}

// brokerMetrics splits the in-memory rung's latency at the decision hook.
func (t *traceRun) brokerMetrics(r *rungResult) {
	decided := map[int64]int64{}
	for i := 0; i < t.tr.decisions.len(); i++ {
		s := t.tr.decisions.at(i)
		decided[s.seq] = s.t
	}
	var toDecide, fanout []int64
	bySeq := map[int64]*pubRec{}
	for i := range r.d.pubs {
		p := &r.d.pubs[i]
		if p.phase == phaseClosed && p.done && !p.err {
			bySeq[p.seq] = p
			if dt, ok := decided[p.seq]; ok {
				toDecide = append(toDecide, dt-p.issue)
			}
		}
	}
	var copies int64
	for k := 0; k < t.env.sink.copies.len(); k++ {
		c := t.env.sink.copies.at(k)
		if _, ok := bySeq[c.seq]; !ok {
			continue
		}
		copies++
		if dt, ok := decided[c.seq]; ok {
			fanout = append(fanout, c.t-dt)
		}
	}
	stats := r.st.reg.Snapshot()["broker"].Counters
	t.set("broker.publish_p50_ns", "ns", quantile(r.pub, 0.5))
	t.set("broker.publish_p99_ns", "ns", quantile(r.pub, 0.99))
	t.set("broker.decided_p50_us", "us", quantile(toDecide, 0.5)/1e3)
	t.set("broker.fanout_p50_us", "us", quantile(fanout, 0.5)/1e3)
	t.set("broker.fanout_p99_us", "us", quantile(fanout, 0.99)/1e3)
	t.set("broker.copies_per_event", "count", float64(copies)/math.Max(1, float64(len(bySeq))))
	t.set("broker.snapshot_swaps", "count", float64(stats["snapshot_swaps"]))
}

// brokerScaling measures the in-memory broker's closed-loop throughput
// with one and with two decide workers, and with a telemetry.Tracer
// sampling every event, for about a tenth of the run length each.
func (t *traceRun) brokerScaling(e *core.Engine, evs []workload.Event, exp [][]int32) error {
	dur := time.Duration(t.o.seconds / 10 * float64(time.Second))
	pass := func(name string, workers int, tracer *telemetry.Tracer) (float64, error) {
		env := *t.env
		env.decideWorkers, env.tracer = workers, tracer
		env.sink = &sink{clk: t.env.clk}
		st, err := startInproc(e, &env, nil)
		if err != nil {
			return 0, err
		}
		// The closed loop reuses the stream as many times as it needs:
		// each pass is a fresh broker, so seqs never repeat within one.
		n := int(t.s.capacity*dur.Seconds()*1.5) + 4*t.s.window
		pe, px := make([]workload.Event, n), make([][]int32, n)
		for i := range pe {
			pe[i], px[i] = evs[i%len(evs)], exp[i%len(evs)]
		}
		d := &driver{env: &env, st: st, evs: pe, exp: px, pubs: make([]pubRec, n)}
		seq0, err := d.prime()
		if err != nil {
			st.stop()
			return 0, err
		}
		tr := newTracker(seq0+1, n+t.s.window, t.s.window)
		env.sink.tracker.Store(tr)
		done, el := d.closedLoop(tr, 1, n, t.s.window, dur, phaseClosed)
		env.sink.tracker.Store(nil)
		d.drain(200*time.Millisecond, 10*time.Second)
		if err := st.stop(); err != nil {
			return 0, err
		}
		t.absorb(name, check(d.pubs, px, &env.sink.copies, nil, true))
		return float64(done) / el.Seconds(), nil
	}
	w1, err := pass("broker-w1", 1, nil)
	if err != nil {
		return err
	}
	w2, err := pass("broker-w2", 2, nil)
	if err != nil {
		return err
	}
	// Sample every event so the tracer's whole cost shows.
	tracer, err := telemetry.NewTracer(telemetry.TracerConfig{Capacity: 1024, SampleRate: 1, Seed: 1})
	if err != nil {
		return err
	}
	traced, err := pass("broker-tracer", 0, tracer)
	if err != nil {
		return err
	}
	plain := w2 // the default decide-worker count is GOMAXPROCS
	if runtime.GOMAXPROCS(0) != 2 {
		if plain, err = pass("broker-plain", 0, nil); err != nil {
			return err
		}
	}
	t.set("broker.closed_w1_eps", "events/s", w1)
	t.set("broker.closed_w2_eps", "events/s", w2)
	t.set("telemetry.tracer_cost_frac", "ratio", 1-traced/plain)
	return nil
}

// wireMetrics reports the wire rung's Dispatch timings and the transport's
// own counters.
func (t *traceRun) wireMetrics(r *rungResult) {
	var disp []int64
	for i := 0; i < t.tr.dispatch.len(); i++ {
		d := t.tr.dispatch.at(i)
		disp = append(disp, d.t1-d.t0)
	}
	type nodeSeq struct {
		node int32
		seq  int64
	}
	end := make(map[nodeSeq]int64, len(disp))
	for i := 0; i < t.tr.dispatch.len(); i++ {
		d := t.tr.dispatch.at(i)
		end[nodeSeq{d.node, d.seq}] = d.t1
	}
	var lag []int64
	for k := 0; k < t.env.sink.copies.len(); k++ {
		c := t.env.sink.copies.at(k)
		if t1, ok := end[nodeSeq{c.node, c.seq}]; ok {
			lag = append(lag, c.t-t1)
		}
	}
	snap := r.st.reg.Snapshot()["wire"]
	sent := float64(snap.Counters["deliveries_sent"])
	t.set("transport.dispatch_p50_ns", "ns", quantile(disp, 0.5))
	t.set("transport.dispatch_p99_ns", "ns", quantile(disp, 0.99))
	t.set("transport.recv_lag_p50_us", "us", quantile(lag, 0.5)/1e3)
	t.set("transport.deliveries_per_frame", "count", snap.Histograms["deliver_batch_size"].Mean)
	t.set("transport.bytes_per_delivery", "B", float64(snap.Counters["bytes_out"])/math.Max(1, sent))
	t.set("transport.credit_stalls", "count", float64(snap.Counters["credit_stalls"]))
	t.set("transport.dispatch_stalls", "count", float64(snap.Counters["dispatch_stalls"]))
}
