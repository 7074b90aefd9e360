package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host fingerprints the machine and the code a result came from. Results
// from different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Commit is the source tree's content digest: the benchmark runs from
	// checkouts that are not git repositories, so it hashes the Go sources
	// and module files under the current directory instead.
	Commit string `json:"commit"`
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceDigest("."),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}

// sameHost reports whether two results may be compared: everything but
// the commit must match.
func sameHost(a, b host) bool {
	a.Commit, b.Commit = "", ""
	return a == b
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		n := d.Name()
		if !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		sum.Write([]byte(p))
		sum.Write(raw)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssMiB is the process's current resident set in MiB, 0 if unknown.
func rssMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTicks reads the machine's CPU time from /proc/stat: the ticks stolen
// by the hypervisor and the total. On a shared host, stolen time is the
// largest source of run-to-run spread in latency.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			continue
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user + system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile is the nearest-rank q-quantile of v, sorting v in place.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return float64(v[max(0, min(i, len(v)-1))])
}

// statWindows is how many equal windows of time a traced run's open loop
// is split into.
const statWindows = 9

// interval is [a, b) of run time, in ns.
type interval struct{ a, b int64 }

// split cuts [a, b) into n equal intervals.
func split(a, b int64, n int) []interval {
	out := make([]interval, n)
	for i := range out {
		out[i] = interval{a + (b-a)*int64(i)/int64(n), a + (b-a)*int64(i+1)/int64(n)}
	}
	return out
}

// windowed returns the q-quantile of the samples vals whose timestamps at
// fall in the calm windows (see calm) of wins. Windows without samples do
// not count.
func windowed(vals, at []int64, q float64, wins []interval, steal *stealLog) float64 {
	buckets := make([][]int64, len(wins))
	for i, v := range vals {
		k := sort.Search(len(wins), func(k int) bool { return wins[k].b > at[i] })
		if k < len(wins) && at[i] >= wins[k].a {
			buckets[k] = append(buckets[k], v)
		}
	}
	var used [][]int64
	var shares []float64
	for k, b := range buckets {
		if len(b) > 0 {
			used = append(used, b)
			shares = append(shares, steal.share(wins[k].a, wins[k].b))
		}
	}
	var pooled []int64
	for k, ok := range calm(shares) {
		if ok {
			pooled = append(pooled, used[k]...)
		}
	}
	return quantile(pooled, q)
}

// calmShare is the stolen share of CPU time up to which a window counts
// as calm whatever the other windows lost.
const calmShare = 0.02

// calm marks the windows, given the share of CPU time the hypervisor stole
// in each, whose figures a run reports: those that lost at most calmShare,
// or, if fewer than a quarter did, the quarter that lost least. On a
// shared host the hypervisor stole from 0 to 40% of the CPU in spells of
// about half a minute, and a window inside such a spell measures the
// neighbours, not the program.
func calm(shares []float64) []bool {
	if len(shares) == 0 {
		return nil
	}
	limit := slices.Clone(shares)
	slices.Sort(limit)
	cut := max(calmShare, limit[(len(limit)-1)/4])
	ok := make([]bool, len(shares))
	for i, s := range shares {
		ok[i] = s <= cut
	}
	return ok
}

// stealLog samples the machine's CPU counters while a run measures, so
// that windows in which the hypervisor stole CPU time can be told apart.
//
// Given the copy log, it also tracks the largest resident set seen less
// the log's size: the log grows with the copies a run happened to
// complete, and is the benchmark's memory, not the program's.
type stealLog struct {
	clk    clock
	copies *clog[copyRec] // nil: no memory tracking
	mu     sync.Mutex
	at     []int64 // run clock, ns
	tick   [][2]uint64
	// memPeak is the largest resident set sampled less the copy log, MiB.
	memPeak float64
	done    chan struct{}
	wg      sync.WaitGroup
}

// startSteal samples every 50 ms until stop is called; stop waits for the
// sampler to exit.
func startSteal(clk clock, copies *clog[copyRec]) *stealLog {
	l := &stealLog{clk: clk, copies: copies, done: make(chan struct{})}
	l.sample()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.done:
				l.sample()
				return
			case <-tick.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) sample() {
	steal, total := cpuTicks()
	mem := 0.0
	if l.copies != nil {
		mem = rssMiB() - l.copies.bytes()/(1<<20)
	}
	l.mu.Lock()
	l.at = append(l.at, l.clk.now())
	l.tick = append(l.tick, [2]uint64{steal, total})
	l.memPeak = max(l.memPeak, mem)
	l.mu.Unlock()
}

func (l *stealLog) stop() {
	close(l.done)
	l.wg.Wait()
}

// share is the stolen share of CPU time between run times a and b, from
// the samples around them; 0 without samples. A nil log reads 0.
func (l *stealLog) share(a, b int64) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.at) < 2 {
		return 0
	}
	i := max(0, sort.Search(len(l.at), func(i int) bool { return l.at[i] > a })-1)
	j := min(len(l.at)-1, sort.Search(len(l.at), func(i int) bool { return l.at[i] >= b }))
	if j <= i {
		return 0
	}
	total := l.tick[j][1] - l.tick[i][1]
	if total == 0 {
		return 0
	}
	return float64(l.tick[j][0]-l.tick[i][0]) / float64(total)
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}
