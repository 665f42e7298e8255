# Targets mirror .github/workflows/ci.yml so local runs and CI stay in
# lockstep: `make ci` is exactly what the workflow runs.

GO ?= go

.PHONY: all build test race fuzz-smoke fuzz bench bench-compare bench-pairs reach docs lint vet fmt ci clean

all: build test

build:
	$(GO) build ./...
	$(GO) build ./cmd/... ./examples/...

# Shuffled tests (every Test*Economy gate included), then the results
# ledger (all 25 experiments replay exactly) and the consumer goldens,
# the experiment replay (the round-robin churn driver keeps scale,
# reclaim and adaptive deterministic), the PostMark golden and
# allocation bound, and the event scheduler's golden and order tests,
# repeated.
test:
	$(GO) test -shuffle=on ./...
	$(GO) test -count=3 -run 'Ledger|ExtentConsumersGolden' . ./internal/experiments
	$(GO) test -count=3 -run 'Determinism|ScaleBatch|AdaptivePolicy' ./internal/experiments
	$(GO) test -count=3 -run 'PostMarkGolden|PostMarkAllocs' ./internal/workloads
	$(GO) test -count=3 -run 'GoldenSchedule|ScheduleOrder|OOODuplicate' ./internal/vnet ./internal/netstack

# Race detector, then the daemon race and the same-CPU shootdown-queue
# flush race repeated.  The
# experiments package alone takes about 110 s under -race on two vCPUs, so
# the timeout is twice go test's 10-minute default.
race:
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=10 -run 'DaemonRace|SameCPUFlushRace' ./internal/sfbuf ./internal/smp

# Run the checked-in fuzz seed corpus as unit tests (what CI smokes).
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/sfbuf ./internal/tlb ./internal/pmap ./internal/smp ./internal/vnet ./internal/vm

# Actually fuzz the vectored sharded engine for a minute.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBatchOps -fuzztime 60s ./internal/sfbuf

# Short smoke run: every benchmark once, so they cannot bit-rot, with
# allocs/op recorded.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# The repo benchmark (bench/) at -quick size, merge-base vs checkout:
# fails when any exact (simulated) metric differs.  See scripts/benchcompare.sh.
bench-compare:
	bash ./scripts/benchcompare.sh

# The paired-run protocol behind a host-time gain claim: PAIRS alternating
# runs of one WORKLOAD, BASE vs checkout.  See scripts/benchpairs.sh.
BASE ?= HEAD~1
WORKLOAD ?= churn
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	bash ./scripts/benchpairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# Reach audit: fails on a core function no test runs unless
# scripts/reach.allow names it with a reason, and on one no experiment
# runs unless scripts/reach.exp.allow does.  See scripts/reach.sh.
reach:
	bash ./scripts/reach.sh

# Documentation gate: package comments, docs links and the make targets
# and commands the docs name.  Mirrors the CI docs step.
docs:
	sh ./scripts/checkdocs.sh

lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

ci: build lint docs test race fuzz-smoke bench reach bench-compare

clean:
	$(GO) clean ./...
