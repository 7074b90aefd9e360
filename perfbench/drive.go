package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matching"
	"repro/internal/workload"
)

// Phases of a publish record.
const (
	phaseWarm uint8 = iota
	phaseClosed
	phaseOpen
)

// pubRec is one publish as the load generator saw it. Each event index is
// published at most once, so workers write their own records without
// locking.
type pubRec struct {
	seq   int64
	sched int64 // when it was due (open loop) or issued (closed loop)
	issue int64
	ret   int64
	// complete is when the closed loop saw every expected copy arrive.
	complete int64
	done     bool // the publish was attempted
	err      bool
	timeout  bool // closed loop: its copies did not all arrive in time
	phase    uint8
}

// opRec is one timed subscribe or unsubscribe.
type opRec struct {
	at, dur int64
	err     bool
	unsub   bool
}

// driver runs the load phases against one stack.
type driver struct {
	env  *runEnv
	st   *stack
	evs  []workload.Event
	exp  [][]int32 // oracle: interested nodes per event
	pubs []pubRec
	ops  []opRec
	// genLate holds how late the open-loop generator handed out each event.
	genLate []int64
	// opErrs keeps the first few subscribe/unsubscribe errors for the log.
	opErrs []string
	// steal samples the hypervisor's stolen CPU over the measured phases.
	steal *stealLog
	// closedWins, openWins and subWins are the windows of time the
	// closed-loop, open-loop and subscribe figures are taken over.
	closedWins, openWins, subWins []interval
}

// pool sizes the event stream of a run: warm-up, closed and open loops.
type pool struct{ warm, closed, open int }

func (p pool) total() int { return p.warm + p.closed + p.open }

// phaseDurations splits the measured time: a warm-up, then the closed and
// the open loop's shares, each spread over the cycles.
func phaseDurations(seconds float64) (warm, closed, open time.Duration) {
	s := time.Duration(seconds * float64(time.Second))
	return min(500*time.Millisecond, s/10), s * 2 / 5, s * 3 / 5
}

// openSlice is the number of events in each cycle's open-loop slice.
func openSlice(s spec, seconds float64) int {
	_, _, open := phaseDurations(seconds)
	return int(s.rate*open.Seconds()/cycles) + 1
}

func sizePool(s spec, seconds float64) pool {
	warm, closed, _ := phaseDurations(seconds)
	return pool{
		warm:   max(4*s.window, int(s.capacity*warm.Seconds()*1.5)),
		closed: max(cycles*4*s.window, int(s.capacity*closed.Seconds()*1.5)),
		open:   cycles * openSlice(s, seconds),
	}
}

// expectedNodes runs the brute-force oracle over every event in parallel:
// for each event, the distinct nodes owning a matching subscription.
func expectedNodes(w *workload.World, evs []workload.Event) [][]int32 {
	br := matching.NewBrute(w)
	exp := make([][]int32, len(evs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(evs); i += workers {
				nodes := matching.InterestedNodes(w, br.Match(evs[i].Point))
				e := make([]int32, len(nodes))
				for j, n := range nodes {
					e[j] = int32(n)
				}
				exp[i] = e
			}
		}(k)
	}
	wg.Wait()
	return exp
}

// prime publishes the first event on its own and returns the stack's first
// seq, so the closed-loop tracker can index by seq.
func (d *driver) prime() (int64, error) {
	rec := &d.pubs[0]
	rec.done, rec.phase = true, phaseWarm
	rec.issue = d.env.clk.now()
	rec.sched = rec.issue
	seq, err := d.st.publish(d.evs[0])
	rec.ret, rec.seq = d.env.clk.now(), seq
	if err != nil {
		rec.err = true
		return 0, fmt.Errorf("first publish: %w", err)
	}
	return seq, nil
}

// closedLoop keeps window publishes in flight over events [lo, hi): each
// worker publishes, waits until every interested copy of its event
// arrived, and takes the next. It stops taking events after dur and
// returns how many events completed and the time until the last worker
// finished.
func (d *driver) closedLoop(tr *tracker, lo, hi, window int, dur time.Duration, phase uint8) (int64, time.Duration) {
	var next atomic.Int64
	next.Store(int64(lo))
	var completed atomic.Int64
	start := d.env.clk.now()
	deadline := start + int64(dur)
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d.env.clk.now() < deadline {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				rec := &d.pubs[i]
				rec.done, rec.phase = true, phase
				rec.issue = d.env.clk.now()
				rec.sched = rec.issue
				seq, err := d.st.publish(d.evs[i])
				rec.ret, rec.seq = d.env.clk.now(), seq
				if err != nil {
					rec.err = true
					continue
				}
				if !tr.await(seq, w, len(d.exp[i]), 5*time.Second) {
					rec.timeout = true
					continue
				}
				rec.complete = d.env.clk.now()
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return completed.Load(), time.Duration(d.env.clk.now() - start)
}

// openLoop hands events [lo, hi) to window publishers at a fixed rate,
// each due at start + k/rate whether or not earlier ones finished, and
// returns start. When churn is set it runs beside the publishes on its own
// schedule.
func (d *driver) openLoop(lo, hi, window int, rate float64, churn func(start int64)) int64 {
	jobs := make(chan int, window) // the in-flight window
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rec := &d.pubs[i]
				rec.issue = d.env.clk.now()
				seq, err := d.st.publish(d.evs[i])
				rec.ret, rec.seq = d.env.clk.now(), seq
				rec.err = err != nil
			}
		}()
	}
	start := d.env.clk.now() + int64(time.Millisecond)
	churnDone := make(chan struct{})
	if churn != nil {
		go func() { defer close(churnDone); churn(start) }()
	} else {
		close(churnDone)
	}
	interval := float64(time.Second) / rate
	d.genLate = make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		due := start + int64(float64(i-lo)*interval)
		if wait := due - d.env.clk.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		rec := &d.pubs[i]
		rec.done, rec.phase, rec.sched = true, phaseOpen, due
		jobs <- i
		d.genLate = append(d.genLate, d.env.clk.now()-due)
	}
	close(jobs)
	wg.Wait()
	<-churnDone
	return start
}

// timeOp runs one subscribe or unsubscribe and records its duration.
func (d *driver) timeOp(unsub bool, f func() error) {
	t0 := d.env.clk.now()
	err := f()
	d.ops = append(d.ops, opRec{at: t0, dur: d.env.clk.now() - t0, err: err != nil, unsub: unsub})
	if err != nil && len(d.opErrs) < 5 {
		d.opErrs = append(d.opErrs, err.Error())
	}
}

// churnPlan picks, deterministically from the seed, the base subscriptions
// the durable-churn open loop removes and re-adds.
func churnPlan(w *workload.World, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(len(w.Subs))[:min(n, len(w.Subs))]
}

// churnLoop alternates unsubscribing and re-subscribing the churn set in a
// fixed order, one op every `every` open-loop publish intervals. Each call
// of the returned function makes ops ops from start on and carries the
// order on from the previous call; with ops even it ends with every
// churned subscription live again. Calls must not overlap.
func (d *driver) churnLoop(w *workload.World, set []int, every int, rate float64) func(start int64, ops int) {
	slots := make(map[int]int, len(set))
	for _, c := range set {
		slots[c] = c // base subscriptions keep their world index as slot
	}
	interval := float64(every) * float64(time.Second) / rate
	j := 0
	return func(start int64, ops int) {
		for k := 0; k < ops; k, j = k+1, j+1 {
			due := start + int64(float64(k)*interval)
			if wait := due - d.env.clk.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			c := set[(j/2)%len(set)]
			if j%2 == 0 {
				d.timeOp(true, func() error { return d.st.unsubscribe(slots[c]) })
			} else {
				d.timeOp(false, func() error {
					slot, err := d.st.subscribe(w.Subs[c])
					slots[c] = slot
					return err
				})
			}
		}
	}
}

// subscribePhase subscribes and then unsubscribes each of subs, timing
// every call, one call at a time, with no publishes in flight. Each call
// waits a random gap of up to a millisecond drawn from rng first:
// back-to-back calls lock onto the phase of periodic work such as the
// wire's flush timer, and which phase a run locks onto moved its median by
// half.
func (d *driver) subscribePhase(subs []workload.Subscription, rng *rand.Rand) {
	gap := func() { time.Sleep(time.Duration(rng.Int63n(int64(time.Millisecond)))) }
	for _, s := range subs {
		var slot int
		var err error
		gap()
		d.timeOp(false, func() error {
			slot, err = d.st.subscribe(s)
			return err
		})
		if err == nil {
			gap()
			d.timeOp(true, func() error { return d.st.unsubscribe(slot) })
		}
	}
}

// drain waits until no copy has arrived for quiet, or until limit.
func (d *driver) drain(quiet, limit time.Duration) {
	end := time.Now().Add(limit)
	last, since := d.env.sink.copies.len(), time.Now()
	for time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
		if n := d.env.sink.copies.len(); n != last {
			last, since = n, time.Now()
		} else if time.Since(since) >= quiet {
			return
		}
	}
}
