package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSmokeEveryWorkload runs each workload — the ones BENCHMARK.json
// lists and durable-churn, which it leaves out as unsteady — at a small
// scale, untraced and traced, and checks that the oracle passes and that
// exactly the metrics BENCHMARK.json names are emitted, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloadByName(w.Name, 1); !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not define", w.Name)
		}
	}
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			w, traced := w.name, traced
			t.Run(w+map[bool]string{false: "/e2e", true: "/trace"}[traced], func(t *testing.T) {
				rec, err := run(options{workload: w, seed: 1, seconds: 1, trace: traced, scale: 0.1, out: t.TempDir(), log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
					t.Errorf("oracle: attempted %d failed %d %v", rec.Result.Attempted, rec.Result.Failed, rec.Failures)
				}
				got := rec.Result.Metrics
				for _, m := range want {
					g, ok := got[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
				}
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
			})
		}
	}
}
