package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/workload"
)

// outcome is the oracle's verdict as a run reports it.
type outcome struct {
	attempted, failed int64
	failures          map[string]int64
}

func newEnv(o options) (*runEnv, func(), error) {
	tmp, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, nil, err
	}
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return nil, nil, err
	}
	env := &runEnv{clk: clock{epoch: time.Now()}, sink: &sink{}, tmp: tmp}
	env.sink.clk = env.clk
	return env, func() { os.RemoveAll(tmp) }, nil
}

// cycles is how many times an untraced run alternates a closed-loop
// slice, an open-loop slice and a batch of subscribe calls. The hypervisor
// of a shared host stole from 0 to 40% of the CPU in spells of about half
// a minute; spread over the whole run, every metric has windows outside
// such spells, and calm keeps those.
const cycles = 8

// sliceWindows is how many windows each loop slice is split into.
const sliceWindows = 3

// loadRun is one pass of the load phases over a started stack.
type loadRun struct {
	d          *driver
	v          verdict
	throughput float64
	// closedRates are the closed loop's completion rates per window.
	closedRates []float64
	closedN     int // closed-loop events completed
	openN       int // open-loop events
	// memMiB is the process's peak resident set until the load ended,
	// not counting the copy log (see stealLog). The oracle's check runs
	// after it: it too grows with the copies a run completed.
	memMiB float64
}

// runLoad drives a started stack through a warm-up and then cycles cycles
// of a closed-loop slice, an open-loop slice (with churn where the
// workload has it) and a batch of subscribe calls, stops it, and checks
// every copy against the oracle.
func runLoad(o options, s spec, env *runEnv, in *inputs, st *stack) (*loadRun, error) {
	setupPeak := peakRSSMiB()
	p := sizePool(s, o.seconds)
	evs := in.world.Events(p.total(), o.seed*16+seedStream)
	oracleWorld, strict := in.world, true
	var churnSet []int
	if s.churnEvery > 0 {
		churnSet = churnPlan(in.world, s.churnSet, o.seed*16+seedChurn)
		var err error
		if oracleWorld, err = stableWorld(in.world, churnSet); err != nil {
			st.stop()
			return nil, err
		}
		strict = false
	}
	var subs []workload.Subscription
	if s.subOps > 0 {
		var err error
		if subs, err = phaseSubs(in, s, o.seed); err != nil {
			st.stop()
			return nil, err
		}
	}
	d := &driver{env: env, st: st, evs: evs, exp: expectedNodes(oracleWorld, evs), pubs: make([]pubRec, len(evs))}
	warm, closed, _ := phaseDurations(o.seconds)
	closed /= cycles
	perOpen := openSlice(s, o.seconds)

	seq0, err := d.prime()
	if err != nil {
		st.stop()
		return nil, err
	}
	d.steal = startSteal(env.clk, &env.sink.copies)
	tr := newTracker(seq0+1, len(evs)+s.window, s.window)
	env.sink.tracker.Store(tr)
	d.closedLoop(tr, 1, p.warm, s.window, warm, phaseWarm)
	var churn func(int64, int)
	if s.churnEvery > 0 {
		churn = d.churnLoop(in.world, churnSet, s.churnEvery, s.rate)
	}
	rng := rand.New(rand.NewSource(o.seed*16 + seedChurn))
	lr := &loadRun{d: d}
	next := p.warm
	for c := 0; c < cycles; c++ {
		// Collect the previous slices' garbage off the clock.
		runtime.GC()
		env.sink.tracker.Store(tr)
		a := env.clk.now()
		n, _ := d.closedLoop(tr, next, len(evs)-(cycles-c)*perOpen, s.window, closed, phaseClosed)
		env.sink.tracker.Store(nil)
		lr.closedN += int(n)
		d.closedWins = append(d.closedWins, split(a, a+int64(closed), sliceWindows)...)
		for next < len(evs) && d.pubs[next].done {
			next++
		}

		runtime.GC()
		var sliceChurn func(int64)
		if churn != nil {
			ops := (perOpen / s.churnEvery) &^ 1 // even: every removal is re-added
			sliceChurn = func(start int64) { churn(start, ops) }
		}
		start := d.openLoop(next, next+perOpen, s.window, s.rate, sliceChurn)
		d.openWins = append(d.openWins, split(start, start+int64(float64(perOpen)*float64(time.Second)/s.rate), sliceWindows)...)
		next += perOpen
		lr.openN += perOpen

		if batch := subs[c*len(subs)/cycles : (c+1)*len(subs)/cycles]; len(batch) > 0 {
			d.drain(20*time.Millisecond, 10*time.Second)
			runtime.GC()
			a := env.clk.now()
			d.subscribePhase(batch, rng)
			d.subWins = append(d.subWins, interval{a, env.clk.now()})
		}
	}
	d.drain(300*time.Millisecond, 10*time.Second)
	d.steal.stop()
	lr.memMiB = max(setupPeak, d.steal.memPeak)
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stopping the stack: %w", err)
	}
	lr.throughput, lr.closedRates = windowedRate(d.pubs, d.closedWins, d.steal)
	lr.v = check(d.pubs, d.exp, &env.sink.copies, d.ops, strict)
	for _, e := range d.opErrs {
		fmt.Fprintln(o.log, "  subscribe/unsubscribe error:", e)
	}
	if st.router != nil {
		// Unmapped copies left Router.Feed under a synthetic seq: the
		// cause the oracle's unknown_seq failures point at.
		rs := st.router.Stats()
		fmt.Fprintf(o.log, "  router: published %d, fan-out %d, delivered %d, suppressed %d, unmapped %d\n",
			rs.Published, rs.Fanout, rs.Delivered, rs.Suppressed, rs.Unmapped)
	}
	return lr, nil
}

// windowedRate counts the closed-loop events completed in each window and
// returns the completions in the calm windows (see calm) per second of
// the time the hypervisor left the machine in them — each window's length
// less its stolen share — with each window's rate.
func windowedRate(pubs []pubRec, wins []interval, steal *stealLog) (float64, []float64) {
	counts := make([]int, len(wins))
	for _, p := range pubs {
		if p.phase != phaseClosed || p.complete == 0 {
			continue
		}
		k := sort.Search(len(wins), func(k int) bool { return wins[k].b > p.complete })
		if k < len(wins) && p.complete >= wins[k].a {
			counts[k]++
		}
	}
	rates := make([]float64, len(wins))
	shares := make([]float64, len(wins))
	secs := make([]float64, len(wins))
	for k, c := range counts {
		shares[k] = steal.share(wins[k].a, wins[k].b)
		secs[k] = float64(wins[k].b-wins[k].a) / 1e9 * (1 - shares[k])
		rates[k] = float64(c) / secs[k]
	}
	var n, t float64
	for k, ok := range calm(shares) {
		if ok {
			n, t = n+float64(counts[k]), t+secs[k]
		}
	}
	return n / t, rates
}

// stableWorld is the world without the churned subscriptions: the
// population every durable-churn event must reach in full.
func stableWorld(w *workload.World, churned []int) (*workload.World, error) {
	skip := make(map[int]bool, len(churned))
	for _, c := range churned {
		skip[c] = true
	}
	var subs []workload.Subscription
	for i, s := range w.Subs {
		if !skip[i] {
			subs = append(subs, s)
		}
	}
	return workload.NewCustomWorld(w.Graph, w.Axes, subs)
}

// phaseSubs are the fresh subscriptions the subscribe phase adds and
// removes: a seeded stock population on the same network.
func phaseSubs(in *inputs, s spec, seed int64) ([]workload.Subscription, error) {
	w, err := workload.NewStockWorld(in.world.Graph, workload.StockConfig{
		NumSubscriptions: max(1, s.subOps/2),
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         1,
		Seed:             seed*16 + seedChurn,
	})
	if err != nil {
		return nil, err
	}
	return w.Subs, nil
}

// latencies are a load pass's windowed latency figures, in µs.
type latencies struct {
	deliverP50, deliverP99     float64 // open loop: due time → interested copy
	publishP50, publishP99     float64 // open loop: publish call → return
	subscribeP50, subscribeP99 float64 // subscribe and unsubscribe calls
	// callP50 are the Subscribe and the Unsubscribe calls' own medians.
	callP50 [2]float64
}

func loadLatencies(d *driver, v verdict) latencies {
	var pub, pubAt []int64
	for _, r := range d.pubs {
		if r.done && r.phase == phaseOpen && !r.err {
			pub = append(pub, r.ret-r.issue)
			pubAt = append(pubAt, r.sched)
		}
	}
	deliverAt := make([]int64, len(v.deliverIdx))
	for k, i := range v.deliverIdx {
		deliverAt[k] = d.pubs[i].sched
	}
	// Subscribe and Unsubscribe cost differently; the p50 of their mixture
	// sits between the two modes and jumps between them from run to run,
	// so subscribeP50 is the mean of the two calls' own medians.
	var all, allAt []int64
	var only, onlyAt [2][]int64 // [0] subscribe, [1] unsubscribe
	for _, op := range d.ops {
		if op.err {
			continue
		}
		k := 0
		if op.unsub {
			k = 1
		}
		all, allAt = append(all, op.dur), append(allAt, op.at)
		only[k], onlyAt[k] = append(only[k], op.dur), append(onlyAt[k], op.at)
	}
	var callP50 [2]float64
	for k := range callP50 {
		callP50[k] = windowed(only[k], onlyAt[k], 0.50, d.subWins, d.steal) / 1e3
	}
	return latencies{
		deliverP50:   windowed(v.deliver, deliverAt, 0.50, d.openWins, d.steal) / 1e3,
		deliverP99:   windowed(v.deliver, deliverAt, 0.99, d.openWins, d.steal) / 1e3,
		publishP50:   windowed(pub, pubAt, 0.50, d.openWins, d.steal) / 1e3,
		publishP99:   windowed(pub, pubAt, 0.99, d.openWins, d.steal) / 1e3,
		subscribeP50: (callP50[0] + callP50[1]) / 2,
		subscribeP99: windowed(all, allAt, 0.99, d.subWins, d.steal) / 1e3,
		callP50:      callP50,
	}
}

// runEndToEnd is the untraced run: it reports every end-to-end metric. The
// tail and publish latencies do not repeat within a usable bound on a
// shared 2-core host, so they are printed here and reported, unbounded, by
// the traced run as stack.* metrics.
func runEndToEnd(o options, s spec) (*outcome, map[string]metric, error) {
	env, cleanup, err := newEnv(o)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	in, st, setup, err := setUp(s, env)
	if err != nil {
		return nil, nil, err
	}
	lr, err := runLoad(o, s, env, in, st)
	if err != nil {
		return nil, nil, err
	}
	imp, waste, err := quality(st, in)
	if err != nil {
		return nil, nil, fmt.Errorf("quality: %w", err)
	}
	d, v := lr.d, lr.v
	lat := loadLatencies(d, v)
	fmt.Fprintf(o.log, "  samples: closed %d events, open %d events (%d copies), %d subscribe ops; %d copies, %d flagged wasted\n",
		lr.closedN, lr.openN, len(v.deliver), len(d.ops), v.copies, v.wasted)
	fmt.Fprintf(o.log, "  closed-loop windows (events/s of unstolen CPU time): %.0f\n", lr.closedRates)
	fmt.Fprintf(o.log, "  subscribe p50 %.1f us, unsubscribe p50 %.1f us\n", lat.callP50[0], lat.callP50[1])
	fmt.Fprintf(o.log, "  tails (not bounded): deliver p99 %.1f us, publish p50 %.1f us, p99 %.1f us, subscribe p99 %.1f us\n",
		lat.deliverP99, lat.publishP50, lat.publishP99, lat.subscribeP99)
	if late := quantile(d.genLate, 0.99); late > 1e6 {
		fmt.Fprintf(o.log, "  warning: open-loop generator p99 lateness %.2f ms\n", late/1e6)
	}
	mets := map[string]metric{
		"setup_s":          {setup, "s"},
		"throughput_eps":   {lr.throughput, "events/s"},
		"deliver_p50_us":   {lat.deliverP50, "us"},
		"subscribe_p50_us": {lat.subscribeP50, "us"},
		"improvement_pct":  {imp, "%"},
		"waste_frac":       {waste, "ratio"},
		"mem_mb":           {lr.memMiB, "MiB"},
	}
	return &outcome{attempted: v.attempted, failed: v.failed, failures: v.failures}, mets, nil
}
