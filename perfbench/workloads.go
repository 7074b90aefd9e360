package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/topology"
	"repro/internal/workload"
)

// stackKind names the serving stack a workload drives.
type stackKind int

const (
	inproc stackKind = iota
	wireStack
	durablePair
	federated
)

// spec fixes everything a workload does except the seed and run length.
type spec struct {
	name string
	kind stackKind
	subs int
	// groups and budget are the clustering's K and hyper-cell budget.
	groups, budget int
	// capacity is a little above the closed-loop capacity the seed commit
	// reached on a 2-core host, in events/s; it sizes the pre-generated
	// event pool. rate is the open-loop rate, a fifth to a quarter of the
	// capacity: at half of it the in-process generator and the stack
	// share two cores and queueing made the tails differ by 3x between
	// runs.
	capacity, rate float64
	// window is the in-flight publish window of both loops. Over the
	// wire the closed loop's rate moved from run to run of the same code
	// by 0.03 of its median (distance between the quartiles of 6 runs)
	// with 4 in flight, 4.1k–4.3k events/s, and by 0.125 with 12 in
	// flight, 4.7k–5.6k; 8, 24 and 64 in flight were as unsteady. With
	// 4 the loop waits on the wire's round trips instead of filling both
	// cores, whose speed a shared host varies. In-process, 8 in flight
	// starved the decide workers (1.7k–2.0k against 2.5k with 64).
	window int
	// churnEvery is the open-loop churn ratio: one subscribe or
	// unsubscribe per churnEvery publishes (durable-churn only).
	churnEvery int
	// churnSet is the number of base subscriptions the churn cycles.
	churnSet int
	// subOps is the number of subscribe/unsubscribe calls timed after
	// the delivery phases on workloads without open-loop churn.
	subOps int
}

var specs = []spec{
	{name: "serve-wire", kind: wireStack, subs: 1000, groups: 100, budget: 6000,
		capacity: 4500, rate: 1000, window: 4, subOps: 2000},
	{name: "match-heavy", kind: inproc, subs: 20000, groups: 100, budget: 6000,
		capacity: 2300, rate: 500, window: 64, subOps: 1200},
	{name: "durable-churn", kind: durablePair, subs: 1000, groups: 100, budget: 6000,
		capacity: 700, rate: 100, window: 64, churnEvery: 4, churnSet: 50},
	{name: "federate-4", kind: federated, subs: 1000, groups: 100, budget: 6000,
		capacity: 6200, rate: 1500, window: 64, subOps: 1000},
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// workloadByName returns the named spec, shrunk by scale (1 leaves it as
// the benchmark defines it; smoke runs use a small scale).
func workloadByName(name string, scale float64) (spec, bool) {
	for _, s := range specs {
		if s.name != name {
			continue
		}
		if scale > 0 && scale < 1 {
			shrink := func(v int, min int) int {
				return max(min, int(math.Round(float64(v)*scale)))
			}
			s.subs = shrink(s.subs, 120)
			s.groups = shrink(s.groups, 10)
			s.budget = shrink(s.budget, 300)
			s.capacity = math.Max(200, s.capacity*scale)
			s.rate = math.Max(100, s.rate*scale)
			s.subOps = shrink(s.subOps, 20)
			s.churnSet = shrink(s.churnSet, 10)
		}
		return s, true
	}
	return spec{}, false
}

// worldSeed fixes every workload's world — the Eval600 network, the
// subscription population, the clustering's training sample and the
// quality probe — so that runs with different seeds measure the same
// system. The run's seed draws everything the load consists of: the event
// streams, the churn order and the subscribe phase's subscriptions.
const worldSeed = 1

// Seed offsets: each input is drawn from its own stream of the seed, so
// changing one stream's length never shifts another.
const (
	seedTopology = iota
	seedSubs
	seedTrain
	seedStream
	seedProbe
	seedChurn
)

// inputs are the seeded inputs of one run.
type inputs struct {
	world  *workload.World
	train  []workload.Event
	tiles  federate.Partition // federated stacks only
	cfg    core.Config
	genDur time.Duration
}

// buildInputs generates the world, the training sample and (for a
// federated stack) the tile partition.
func buildInputs(s spec) (*inputs, error) {
	start := time.Now()
	topo := topology.Eval600
	topo.Seed = worldSeed*16 + seedTopology
	g, err := topology.Generate(topo)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: s.subs,
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         1,
		Seed:             worldSeed*16 + seedSubs,
	})
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	in := &inputs{
		world: w,
		train: w.Events(2000, worldSeed*16+seedTrain),
		cfg: core.Config{
			Groups:     s.groups,
			CellBudget: s.budget,
			Algorithm:  &cluster.KMeans{Variant: cluster.Forgy},
		},
	}
	if s.kind == federated {
		if in.tiles, err = federate.Derive(w, in.train, 4); err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
	}
	in.genDur = time.Since(start)
	return in, nil
}

// buildEngines clusters the world: one engine, or one per tile.
func buildEngines(in *inputs) ([]*core.Engine, error) {
	if in.tiles == nil {
		e, err := core.NewFromWorld(in.world, in.train, in.cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		return []*core.Engine{e}, nil
	}
	engines := make([]*core.Engine, len(in.tiles))
	for i, tile := range in.tiles {
		tw, err := federate.TileWorld(in.world, tile)
		if err != nil {
			return nil, fmt.Errorf("tile %d: %w", i, err)
		}
		if engines[i], err = core.NewFromWorld(tw, in.train, in.cfg); err != nil {
			return nil, fmt.Errorf("cluster tile %d: %w", i, err)
		}
	}
	return engines, nil
}

// setupReps is how many times a run sets its stack up; setup_s is the
// median.
const setupReps = 3

// setUp builds the inputs and starts the workload's stack setupReps times,
// keeping the last stack and closing the others, and returns the median
// seconds a set-up took.
func setUp(s spec, env *runEnv) (*inputs, *stack, float64, error) {
	var (
		in   *inputs
		st   *stack
		reps []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, nil, 0, fmt.Errorf("closing set-up %d: %w", rep, err)
			}
			env.sink.reset()
		}
		start := time.Now()
		var err error
		if in, err = buildInputs(s); err != nil {
			return nil, nil, 0, err
		}
		engines, err := buildEngines(in)
		if err != nil {
			return nil, nil, 0, err
		}
		if st, err = startStack(s.kind, in, engines, env, nil, fmt.Sprintf("setup%d", rep)); err != nil {
			return nil, nil, 0, err
		}
		reps = append(reps, time.Since(start).Seconds())
	}
	slices.Sort(reps)
	return in, st, reps[len(reps)/2], nil
}
