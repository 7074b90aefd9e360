// Command perfbench is the repository's benchmark. One run builds the §5.1
// stock world on the Eval600 network, clusters it (Forgy, K=100), starts
// one of four serving stacks and drives it for a fixed time with a load
// drawn from the seed:
//
//	serve-wire     in-memory broker behind the loopback wire transport
//	match-heavy    in-memory broker over 20,000 subscriptions, no wire
//	durable-churn  replicated durable leader/follower pair with churn
//	federate-4     four in-memory shards behind a federation router
//
// Every delivered copy is checked against the brute-force matcher. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with -trace 0, the
// per-layer metrics (from the layer ladder and a traced run) with -trace 1.
//
// Run it from the repository root through run.sh, which builds this
// package first:
//
//	bash perfbench/run.sh --workload serve-wire --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare OLD_DIR NEW_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run keeps on disk: the result plus the host it ran on
// and the failures by kind, for compare and for reading after the fact.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// stole during the run.
	StealFrac float64          `json:"steal_frac"`
	Failures  map[string]int64 `json:"failures"`
	Result    result           `json:"result"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // shrinks populations and rates for smoke tests; 1 is the benchmark
	out      string  // directory for result records and span dumps
	log      io.Writer
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the event streams, churn order and subscribe-phase subscriptions")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the layer ladder and the traced run and prints per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for result records and span dumps")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	o.log = os.Stderr

	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := saveRecord(o.out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its record.
func run(o options) (*record, error) {
	spec, ok := workloadByName(o.workload, o.scale)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rec := &record{Workload: spec.name, Seed: o.seed, Trace: o.trace, Host: fingerprint()}
	fmt.Fprintf(o.log, "perfbench: %s seed=%d seconds=%g trace=%v on %s (%d cpus, GOMAXPROCS %d, %s)\n",
		spec.name, o.seed, o.seconds, o.trace, rec.Host.CPU, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion)
	var (
		out  *outcome
		err  error
		mets map[string]metric
	)
	steal0, total0 := cpuTicks()
	if o.trace {
		out, mets, err = runTraced(o, spec)
	} else {
		out, mets, err = runEndToEnd(o, spec)
	}
	if err != nil {
		return nil, err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rec.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	rec.Failures = out.failures
	rec.Result = result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   mets,
	}
	printReport(o.log, rec)
	return rec, nil
}

func printReport(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  CPU stolen by the hypervisor during the run: %.1f%%\n", 100*rec.StealFrac)
	fmt.Fprintf(w, "  attempted %d, failed %d", rec.Result.Attempted, rec.Result.Failed)
	for _, k := range sortedKeys(rec.Failures) {
		if rec.Failures[k] > 0 {
			fmt.Fprintf(w, ", %s %d", k, rec.Failures[k])
		}
	}
	fmt.Fprintln(w)
}

func saveRecord(dir string, rec *record) error {
	mode := "e2e"
	if rec.Trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", rec.Workload, rec.Seed, mode))
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
