GO ?= go

.PHONY: all build test tier1 race chaos chaos-recovery chaos-wire chaos-replicate chaos-federate bench bench-json bench-baseline bench-decide bench-decide-n bench-recovery bench-wire bench-replicate bench-federate bench-smoke bench-1m bench-1m-smoke alloc-regression vet staticcheck fmt

# Label recorded next to a bench-baseline entry in BENCH_cluster.json.
BENCH_LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo local)

all: build tier1

build:
	$(GO) build ./...

# tier1 is the CI gate: vet, staticcheck (when installed), the
# zero-allocation regressions and the race-enabled short suite (the heavy
# chaos scenario is skipped under -short so this stays fast).
tier1: vet staticcheck alloc-regression
	$(GO) test -race -short ./...

# alloc-regression pins the decide path, the small-frame read loop and the
# wire server's per-copy dispatch lookup at zero allocations per operation
# via testing.AllocsPerRun. It must run without the race detector (shadow
# allocations would inflate the counts), which is why it is a separate
# tier1 prerequisite rather than part of the race suite.
alloc-regression:
	$(GO) test -count=1 -run 'TestDecidePathZeroAllocs|TestReadFrameZeroCopySmall|TestDispatchZeroAllocs' ./internal/broker/ ./internal/wire/ ./internal/transport/

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is a
# no-op otherwise, so tier1 never depends on tooling the container lacks.
# CI installs a pinned version, making the check mandatory there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the full fault-injection and self-healing suite twice under
# the race detector, including the heavy recovery scenarios skipped by
# tier1's -short.
chaos:
	$(GO) test -race -count=2 ./internal/broker/ ./internal/faults/ ./internal/health/ ./internal/durable/

# chaos-recovery is the crash–restart subset: every durability and
# crash-matrix scenario, twice, under the race detector. CI runs it as
# its own job so a dedup/journal race is named by the job that fails.
chaos-recovery:
	$(GO) test -race -count=2 -run 'Durable|CrashRestart' ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-json writes the tier-1 benchmarks as machine-readable go-test JSON
# (one event per line) for trend tracking across commits.
bench-json:
	mkdir -p results
	$(GO) test -json -bench=. -benchmem -run=^$$ . > results/bench.json

# bench-baseline re-runs the clustering perf-trajectory benchmarks
# (n=1200 hyper-cells, 6000 subscribers) with -count=3 and appends a
# labelled entry to BENCH_cluster.json, with speedups computed against
# the file's first (pre-optimisation) entry. Override the label with
# BENCH_LABEL=mylabel.
bench-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkPairwiseExact$$|BenchmarkForgy$$|BenchmarkMacQueen$$|BenchmarkMSTCluster$$|BenchmarkPairwiseApprox$$' \
		-benchmem -count=3 ./internal/cluster/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)"

# bench-decide measures the snapshot decision plane's publish→decide
# throughput at 1, 2 and 4 workers and appends a labelled entry to
# BENCH_cluster.json. Worker scaling only shows on multi-core hosts;
# the recorded GOMAXPROCS qualifies each entry.
bench-decide:
	$(GO) test -run '^$$' -bench 'BenchmarkPublishDecide$$' -benchmem -count=3 ./internal/broker/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-decide"

# bench-recovery measures the durability layer — journal append throughput
# (buffered and per-record fsync) and cold-recovery time over a
# 10k-subscription checkpoint plus a 1k-record journal tail — and appends
# a labelled entry to BENCH_cluster.json.
bench-recovery:
	$(GO) test -run '^$$' -bench 'BenchmarkJournalAppend|BenchmarkColdRecovery' -benchmem -count=3 ./internal/durable/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-recovery"

# bench-wire measures loopback publish→deliver throughput over the TCP
# wire transport next to the identical pipeline in-process (framing, CRCs,
# credit accounting and coalesced flushes vs a direct observer call) and
# appends a labelled entry to BENCH_cluster.json — the wire-overhead row.
bench-wire:
	$(GO) test -run '^$$' -bench 'PublishDeliver' -benchmem -count=3 ./internal/transport/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-wire"

# bench-decide-n re-runs the decision-plane benchmarks under an explicit
# GOMAXPROCS=$(MP) override (default 4) and records them as a separate
# row. On hosts with fewer cores the override oversubscribes the CPU; the
# entry's gomaxprocs field qualifies the numbers.
MP ?= 4
bench-decide-n:
	export GOMAXPROCS=$(MP); $(GO) test -run '^$$' -bench 'BenchmarkPublishDecide$$' -benchmem -count=3 ./internal/broker/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-decide-p$(MP)"

# chaos-wire runs the transport suite — loopback e2e, credit exhaustion,
# graceful drain, protocol edges, and the conn-fault chaos scenario with
# forced reconnects — twice under the race detector.
chaos-wire:
	$(GO) test -race -count=2 ./internal/transport/ ./internal/wire/ ./internal/faults/

# chaos-replicate runs the replicated-pair suite — journal shipping,
# catch-up, fencing, and the failover chaos matrix (crashes mid-ship,
# mid-catch-up, mid-failover) proving exactly-once across the handover —
# twice under the race detector.
chaos-replicate:
	$(GO) test -race -count=2 ./internal/replicate/

# chaos-federate runs the federation suite — partition derivation, the
# cross-shard exactly-once router tests (boundary straddlers, overlap
# dedup, fenced-leader rerouting, remote shards over the wire) and the
# chaos matrix where a replicated shard pair fails over mid-fan-out under
# concurrent churn — twice under the race detector.
chaos-federate:
	$(GO) test -race -count=2 ./internal/federate/

# bench-federate measures end-to-end publish→deliver latency (p50/p99)
# through the federation router at 1 shard vs 4 shards and appends a
# labelled entry to BENCH_cluster.json — the fan-out/merge overhead row.
bench-federate:
	$(GO) test -run '^$$' -bench 'BenchmarkFederatePublishDeliver' -count=3 ./internal/federate/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-federate"

# bench-replicate measures the replicated publish barrier (dual-fsync
# p50/p99 lag) and the full failover time (kill → detection → promotion →
# first delivery) and appends a labelled entry to BENCH_cluster.json.
bench-replicate:
	$(GO) test -run '^$$' -bench 'ReplicationLag|Failover' -count=3 ./internal/replicate/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-replicate"

# bench-1m measures the decide plane at 1,048,576 subscribers (one per
# stub node of an 8×32×64×64 transit–stub network) across 1, 2 and 4
# decide workers, and appends a labelled entry to BENCH_cluster.json.
# Setup (topology, R*-tree, clustering) takes about a minute and is cached
# across worker counts and -count repetitions; the explicit -timeout keeps
# a wedged run from eating the default 10-minute budget silently.
bench-1m:
	$(GO) test -run '^$$' -bench 'BenchmarkPublishDecide1M' -benchmem -count=2 -benchtime=2000x -timeout 30m ./internal/broker/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_cluster.json -label "$(BENCH_LABEL)-1m"

# bench-1m-smoke is the CI-scale run: -short drops the world to 65,536
# subscribers, proving the million-subscriber path builds and decides
# without paying the full setup.
bench-1m-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPublishDecide1M' -short -benchmem -benchtime=200x -timeout 10m ./internal/broker/

# bench-smoke compiles and runs every benchmark in the repo exactly once —
# a cheap CI guard that benchmarks keep building and don't panic. -short
# keeps scale-aware benchmarks (the 1M decide world) at their reduced size.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -short ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .
