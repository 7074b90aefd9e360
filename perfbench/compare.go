package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares the result records in two directories — a base and
// a change — workload by workload: the median of each metric on both
// sides, and for end-to-end metrics whether the change is worse than the
// base by more than the metric's bound in BENCHMARK.json. It refuses, with
// exit status 2, to compare records from different hosts. It exits 1 when
// a bound is exceeded.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE_DIR CHANGE_DIR")
		return 2
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if len(base) == 0 || len(change) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: no result records found")
		return 2
	}
	ref := base[0].Host
	for _, r := range append(base, change...) {
		if !sameHost(ref, r.Host) {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different hosts:\n  %+v\n  %+v\n", ref, r.Host)
			return 2
		}
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err == nil {
			for _, m := range bf.EndToEnd {
				bounds[m.Name], better[m.Name] = m.Bound, m.Better
			}
		}
	}
	exit := 0
	bm, cm := medians(base), medians(change)
	for _, key := range sortedKeys(cm) {
		b, ok := bm[key]
		if !ok {
			continue
		}
		fmt.Printf("%s\n", key)
		for _, name := range sortedKeys(cm[key]) {
			bv, ok := b[name]
			if !ok {
				continue
			}
			cv := cm[key][name]
			delta := (cv - bv) / bv
			verdict := ""
			if bound, ok := bounds[name]; ok {
				worse := delta
				if better[name] == "higher" {
					worse = -delta
				}
				verdict = "ok"
				if worse > bound {
					verdict = fmt.Sprintf("WORSE than bound %.2f", bound)
					exit = 1
				}
			}
			fmt.Printf("  %-34s %14.4f -> %14.4f  %+7.2f%%  %s\n", name, bv, cv, 100*delta, verdict)
		}
	}
	return exit
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-seed*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// medians groups records by workload and mode and takes each metric's
// median over the group's runs.
func medians(recs []record) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range recs {
		key := r.Workload + " e2e"
		if r.Trace {
			key = r.Workload + " trace"
		}
		if vals[key] == nil {
			vals[key] = map[string][]float64{}
		}
		for n, m := range r.Result.Metrics {
			vals[key][n] = append(vals[key][n], m.Value)
		}
	}
	out := map[string]map[string]float64{}
	for key, ms := range vals {
		out[key] = map[string]float64{}
		for n, v := range ms {
			sort.Float64s(v)
			mid := len(v) / 2
			if len(v)%2 == 0 {
				out[key][n] = (v[mid-1] + v[mid]) / 2
			} else {
				out[key][n] = v[mid]
			}
		}
	}
	return out
}
