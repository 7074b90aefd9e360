package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/sim"
	"repro/internal/workload"
)

// probeEvents is the size of the stream the clustering quality is priced
// over. The stream is part of the fixed world, not of the run's load, so
// improvement_pct and waste_frac change only when the end-of-run decision
// snapshots do.
const probeEvents = 2000

// quality prices the stack's end-of-run decision snapshots, off the clock,
// over a fixed probe stream. It returns the paper's improvement
// percentage — (unicast − cost)/(unicast − ideal) with network-multicast
// costs, as sim.Improvement defines it — and the share of planned copies
// that go to nodes with no matching live subscription. Call it after the
// stack has stopped: it reads the engines.
func quality(st *stack, in *inputs) (improvement, waste float64, err error) {
	live, err := liveWorld(st, in)
	if err != nil {
		return 0, 0, err
	}
	probe := in.world.Events(probeEvents, worldSeed*16+seedProbe)
	rt, err := matching.NewRTree(live)
	if err != nil {
		return 0, 0, err
	}
	base, err := sim.MeasureBaselines(multicast.NewModel(live.Graph), live, rt, probe)
	if err != nil {
		return 0, 0, err
	}
	exp := expectedNodes(live, probe)

	type plane struct {
		snap *core.DecisionSnapshot
		view *multicast.SPTView
	}
	planes := make([]plane, len(st.engines))
	for i, e := range st.engines {
		planes[i] = plane{snap: e.Snapshot(), view: e.NewSPTView()}
	}
	var (
		sc           core.DecideScratch
		owners       []int
		cost         float64
		copies, lost int64
	)
	for i, ev := range probe {
		owners = owners[:0]
		if st.tiles == nil {
			owners = append(owners, 0)
		} else {
			owners = st.tiles.Owners(owners, ev.Point)
		}
		sent := map[int32]bool{}
		for _, o := range owners {
			p := planes[o]
			d := p.snap.DecideInto(ev, p.view, &sc)
			cost += p.snap.CostOf(ev, d, p.view).Network
			if d.Group >= 0 {
				for _, n := range p.snap.GroupNodes(d.Group) {
					sent[int32(n)] = true
				}
				for _, n := range d.Remainder {
					sent[int32(n)] = true
				}
			} else {
				for _, n := range d.Interested {
					sent[int32(n)] = true
				}
			}
		}
		want := map[int32]bool{}
		for _, n := range exp[i] {
			want[n] = true
			if !sent[n] {
				lost++
			}
		}
		for n := range sent {
			copies++
			if !want[n] {
				waste++
			}
		}
	}
	if lost > 0 {
		return 0, 0, fmt.Errorf("end-of-run snapshot misses %d interested copies of the probe stream", lost)
	}
	if copies == 0 {
		return 0, 0, fmt.Errorf("probe stream planned no copies")
	}
	return sim.Improvement(base, cost/float64(len(probe))), waste / float64(copies), nil
}

// liveWorld is the subscription population live at the end of the run:
// the engines' live slots, without the wire subscriber's ownership
// rectangles. A federated stack's net churn is zero, so its population is
// the generated one.
func liveWorld(st *stack, in *inputs) (*workload.World, error) {
	if st.tiles != nil {
		return in.world, nil
	}
	e := st.engines[0]
	all := e.World().Subs
	var subs []workload.Subscription
	for _, slot := range e.LiveSlots() {
		if !isOwnerRect(all[slot].Rect) {
			subs = append(subs, all[slot])
		}
	}
	return workload.NewCustomWorld(in.world.Graph, in.world.Axes, subs)
}
