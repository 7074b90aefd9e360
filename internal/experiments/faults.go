package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// FaultPoint is one row of the fault sweep: delivery-fabric statistics
// under one per-attempt drop probability, alongside the cost model's
// predicted retransmission overhead (sim.ExpectedTransmissions) and the
// overhead the broker actually paid.
type FaultPoint struct {
	DropProb  float64
	Stats     broker.Stats
	Predicted float64 // expected transmissions per delivery, closed form
	Observed  float64 // 1 + Retries/Deliveries, measured
	Delivered float64 // fraction of interested deliveries completed

	// Delivery-latency distribution (decide → accept at the node), read from the
	// broker's deliver_latency_ns histogram. Retries and degradations push
	// the tail far beyond the mean — see EXPERIMENTS.md.
	LatencyMean time.Duration
	LatencyP50  time.Duration
	LatencyP99  time.Duration
}

// FaultSweepConfig parameterises the fault sweep.
type FaultSweepConfig struct {
	DropProbs  []float64 // per-attempt end-to-end drop probabilities
	Groups     int       // engine multicast groups K (default 60)
	CellBudget int       // clustering cell budget (default 2000)
	Retries    int       // broker MaxRetries and pricing bound (default 4)
	FaultSeed  int64     // injector seed (events reuse env.Eval)
}

func (c *FaultSweepConfig) setDefaults() {
	if len(c.DropProbs) == 0 {
		c.DropProbs = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if c.Groups == 0 {
		c.Groups = 60
	}
	if c.CellBudget == 0 {
		c.CellBudget = 2000
	}
	if c.Retries == 0 {
		c.Retries = 4
	}
}

// RunFaultSweep replays the evaluation events through a live broker with
// an increasingly lossy fault injector and reports how the reliability
// protocol holds up: retry volume, degraded deliveries, dedup hits and the
// measured retransmission overhead against the truncated-geometric
// prediction. Every point rebuilds the engine so quarantines from one
// profile cannot leak into the next.
func RunFaultSweep(env *StockEnv, cfg FaultSweepConfig) ([]FaultPoint, error) {
	cfg.setDefaults()
	pts := make([]FaultPoint, 0, len(cfg.DropProbs))
	for _, p := range cfg.DropProbs {
		engine, err := core.NewFromWorld(env.World, env.Train, core.Config{
			Groups:     cfg.Groups,
			CellBudget: cfg.CellBudget,
			Algorithm:  &cluster.KMeans{Variant: cluster.Forgy},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep engine: %w", err)
		}
		inj, err := faults.New(faults.Config{Seed: cfg.FaultSeed, DropProb: p})
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep injector: %w", err)
		}
		b, err := broker.New(engine,
			broker.WithFaults(inj),
			broker.WithReliability(broker.ReliabilityConfig{MaxRetries: cfg.Retries}))
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep broker: %w", err)
		}
		for _, ev := range env.Eval {
			if err := b.Publish(ev); err != nil {
				b.Close()
				return nil, fmt.Errorf("experiments: fault sweep publish: %w", err)
			}
		}
		b.Close()
		st := b.Stats()

		pt := FaultPoint{
			DropProb:  p,
			Stats:     st,
			Predicted: sim.ExpectedTransmissions(p, cfg.Retries),
		}
		if st.Deliveries > 0 {
			pt.Observed = 1 + float64(st.Retries)/float64(st.Deliveries)
		}
		if want := st.Deliveries + st.Lost + st.Offline; want > 0 {
			pt.Delivered = float64(st.Deliveries) / float64(want)
		}
		if hs, ok := b.Telemetry().Snapshot()["broker"].Histograms["deliver_latency_ns"]; ok {
			pt.LatencyMean = time.Duration(hs.Mean)
			pt.LatencyP50 = time.Duration(hs.P50)
			pt.LatencyP99 = time.Duration(hs.P99)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// RenderFaultSweep writes the fault sweep as an aligned text table.
func RenderFaultSweep(w io.Writer, title string, pts []FaultPoint) error {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "drop %\tdelivered %\tretries\tredelivered\tdegraded\tdeduped\tlost\toverhead\tpredicted\tlat p50\tlat p99")
	for _, p := range pts {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%v\t%v\n",
			p.DropProb*100, p.Delivered*100, p.Stats.Retries, p.Stats.Redelivered,
			p.Stats.Degraded, p.Stats.Deduped, p.Stats.Lost, p.Observed, p.Predicted,
			p.LatencyP50.Round(time.Microsecond), p.LatencyP99.Round(time.Microsecond))
	}
	return tw.Flush()
}

// RenderFaultSweepCSV writes the fault sweep as CSV.
func RenderFaultSweepCSV(w io.Writer, pts []FaultPoint) error {
	if _, err := fmt.Fprintln(w, "drop_prob,delivered,retries,redelivered,degraded,deduped,quarantined,lost,observed_overhead,predicted_overhead,lat_mean_ns,lat_p50_ns,lat_p99_ns"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%.3f,%.4f,%d,%d,%d,%d,%d,%d,%.4f,%.4f,%d,%d,%d\n",
			p.DropProb, p.Delivered, p.Stats.Retries, p.Stats.Redelivered,
			p.Stats.Degraded, p.Stats.Deduped, p.Stats.Quarantined, p.Stats.Lost,
			p.Observed, p.Predicted,
			p.LatencyMean.Nanoseconds(), p.LatencyP50.Nanoseconds(), p.LatencyP99.Nanoseconds()); err != nil {
			return err
		}
	}
	return nil
}
