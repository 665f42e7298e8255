# Targets mirror .github/workflows/ci.yml so local runs and CI stay in
# lockstep: `make ci` is exactly what the workflow runs.

GO ?= go

.PHONY: all build test race fuzz-smoke fuzz bench bench-contended bench-batch bench-run bench-adaptive bench-contig bench-serve bench-reclaim bench-numa bench-defrag bench-tier bench-compare bench-pairs docs lint vet fmt ci clean

all: build test

build:
	$(GO) build ./...
	$(GO) build ./cmd/... ./examples/...

# Shuffled tests, then the experiment replay (the round-robin churn
# driver keeps scale, reclaim and adaptive deterministic) and the PostMark
# golden and allocation bound, and the event scheduler's golden and order
# tests, repeated.
test:
	$(GO) test -shuffle=on ./...
	$(GO) test -count=3 -run 'Determinism|ScaleBatch|AdaptivePolicy' ./internal/experiments
	$(GO) test -count=3 -run 'PostMarkGolden|PostMarkAllocs' ./internal/workloads
	$(GO) test -count=3 -run 'GoldenSchedule|ScheduleOrder|OOODuplicate' ./internal/vnet ./internal/netstack

# Race detector, then the migration-exclusion races repeated.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Migrat|TierConcurrent|ShardLockFollows|DaemonRace' ./internal/sfbuf

# Run the checked-in fuzz seed corpus as unit tests (what CI smokes).
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/sfbuf ./internal/tlb ./internal/pmap ./internal/vnet

# Actually fuzz the vectored sharded engine for a minute.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBatchOps -fuzztime 60s ./internal/sfbuf

# Short smoke run: every benchmark once, so they cannot bit-rot, with
# allocs/op recorded.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Full-length contention benchmark (the sharded-vs-global comparison).
bench-contended:
	$(GO) test -run '^$$' -bench BenchmarkAllocContended -benchtime 500000x -benchmem .

# Vectored batch economy: locks/page and shootdown rounds/page, batch=16
# against the single-page baseline.
bench-batch:
	$(GO) test -run '^$$' -bench BenchmarkAllocBatch -benchtime 200000x .

# Contiguous-run economy: walks/page and shootdown rounds/page, run=16
# against the scattered batch + per-page translation baseline.
bench-run:
	$(GO) test -run '^$$' -bench BenchmarkAllocRun -benchtime 200000x .

# Adaptive-contiguity economy: the per-consumer policy vs the static
# run/batch pins on the streaming and reuse-churn workloads.
bench-adaptive:
	$(GO) test -run '^$$' -bench BenchmarkAllocAdaptive -benchtime 100000x .

# Buddy-allocator promotion recovery: contiguous extents and superpage
# promotions after a fragmentation-churn warmup, vs the LIFO pool.
bench-contig:
	$(GO) test -run '^$$' -bench BenchmarkAllocContig -benchtime 100000x .

# Virtual-internet serving macro-benchmark: the five-way send-window
# sweep (adaptive vs fixed pins vs the global-lock cache), then the
# serve economy acceptance criterion at the canonical thousand-
# connection scale.  docs/SERVING.md documents the workload and metrics.
bench-serve:
	$(GO) test -run '^$$' -bench BenchmarkServe -benchtime 1x -benchmem .
	$(GO) test -run TestServeEconomy -v -timeout 600s ./internal/experiments

# Background-reclaim economy: first-alloc-after-idle tail latency (p99 and
# p999), daemon vs on-demand reclaim, plus the steady-state no-cost check.
bench-reclaim:
	$(GO) test -run '^$$' -bench BenchmarkReclaim -benchtime 1x .
	$(GO) test -run TestReclaimEconomy -v -timeout 300s ./internal/experiments

# NUMA economy: socket-homed vs hash-striped mapping state on the
# modeled two- and four-package machines — cross-package lock
# acquisitions and teardown IPIs per op, at no cycle regression.
bench-numa:
	$(GO) test -run '^$$' -bench BenchmarkAllocNUMA -benchtime 1x .
	$(GO) test -run TestNUMAEconomy -v -timeout 300s ./internal/experiments

# Defragmentation-by-migration economy: contiguous extents and superpage
# promotions on the shaped ~70%-occupancy pool that defeats plain buddy
# coalescing, migration on vs. off, plus the steady-state acceptance
# criterion (>= 50% contiguous service at <= 10% cycle overhead).
bench-defrag:
	$(GO) test -run '^$$' -bench BenchmarkAllocDefrag -benchtime 32x .
	$(GO) test -run TestDefragEconomy -v -timeout 300s ./internal/experiments

# Tiered-placement economy: zipfian serving with consumer-hinted
# promotion vs the tier-oblivious baseline on the same fast/slow split
# (criterion: hinted <= 2/3 of oblivious cyc/page on zipf, within 10%
# on the uniform adversarial control).
bench-tier:
	$(GO) test -run '^$$' -bench BenchmarkAllocTier -benchtime 32x .
	$(GO) test -run TestTierEconomy -v -timeout 300s ./internal/experiments

# The repo benchmark (bench/) at -quick size on the merge-base and on
# this checkout: fails when any exact (simulated) metric differs, prints
# the host verdicts as information.  See scripts/benchcompare.sh.
bench-compare:
	bash ./scripts/benchcompare.sh

# The paired-run protocol behind a host-time gain claim: BASE and this
# checkout built once, PAIRS alternating runs of one WORKLOAD, medians,
# quartiles and wins printed; fails unless the gain rule is met.  See
# scripts/benchpairs.sh.
BASE ?= HEAD~1
WORKLOAD ?= churn
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	bash ./scripts/benchpairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# Documentation gate: package comments on every package, docs links
# resolve.  Mirrors the CI docs step.
docs:
	sh ./scripts/checkdocs.sh

lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

ci: build lint docs test race fuzz-smoke bench

clean:
	$(GO) clean ./...
