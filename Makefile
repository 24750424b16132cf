# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race test-bench vet check examples bench bench-json bench-diff bench-parallel smoke-bench profile figures cover fuzz fuzz-short soak clean

all: build vet test

# The default verification gate: build, vet, tests, and the race detector
# over the parallel harness and routing tables.
check: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The test suite, failing when a top-level test reports SKIP: a test that
# skips on every run covers nothing. SKIP_ALLOWED lists the opt-in tests
# (TestAdversarialSoak runs under RMCAST_SOAK=1, `make soak`); skipped fuzz
# seeds and subtests are input filters and stay allowed. The run is verbose
# so skips are visible; the filter drops the per-test progress lines.
SKIP_ALLOWED := TestAdversarialSoak

test:
	@{ $(GO) test -v ./... 2>&1; echo "go-test-exit: $$?"; } | awk -v allowed=" $(SKIP_ALLOWED) " '\
		/^go-test-exit: / { status = $$2; next } \
		/^--- SKIP: / && !index(allowed, " " $$3 " ") { skipped = skipped " " $$3 } \
		/^=== |^ *--- PASS|^PASS$$/ { next } \
		{ print } \
		END { if (skipped != "") { print "FAIL: top-level tests skipped:" skipped; if (!status) status = 1 } exit status }'

test-race:
	$(GO) test -race ./...

# The benchmark harness (bench/) is its own module, so the root build and
# tests never compile it; vet and test it here so an API change that breaks
# the harness fails CI instead of the benchmark run.
test-bench:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Run every examples/* program — the README's entry points — and fail on the
# first non-zero exit. Their output goes to /dev/null; run one by hand
# (`go run ./examples/quickstart`) to read it.
examples:
	@for e in examples/*/; do \
		echo "$(GO) run ./$$e"; \
		$(GO) run ./$$e > /dev/null || exit 1; \
	done

# One short benchmark pass over every suite (full runs: drop -benchtime).
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 1x ./...

# Same pass in machine-readable form, recorded per day so the perf
# trajectory is tracked across PRs (see EXPERIMENTS.md "Performance").
# Three whole suite passes appended to one file (NOT -count 3, which runs
# a benchmark's repeats back-to-back so one burst of CPU steal poisons
# them all): bench-diff keeps each cell's minimum across samples that are
# minutes apart, which is robust to time-correlated steal on a shared host.
bench-json:
	{ for i in 1 2 3; do $(GO) test -run xxx -bench . -benchmem -benchtime 3x -json ./...; done; } > BENCH_$$(date +%Y-%m-%d).json

# Compare the two newest `go test -json` captures (BENCH_<date>*.json, not
# the BENCH_PARALLEL_* scaling JSON), newest by the date in the file name:
# a checkout gives every file one mtime. Fails when a tracked benchmark (the
# Figure-5 macro benchmarks and the batch planner) regressed > 10% in ns/op
# or allocs/op.
bench-diff:
	@files="$$(ls BENCH_[0-9]*.json 2>/dev/null | LC_ALL=C sort | tail -2)"; \
	set -- $$files; \
	if [ $$# -lt 2 ]; then echo "bench-diff: need two BENCH_<date>.json captures (run 'make bench-json')"; exit 1; fi; \
	echo "comparing $$1 (old) -> $$2 (new)"; \
	$(GO) run ./cmd/benchdiff "$$1" "$$2"

# Cheap CI perf gate: one iteration of the n=50 macro benchmarks plus the
# allocation-budget tests, so a perf-hostile change fails fast without
# burning CI minutes on the full sweep. The n=1000 scaling cell also runs
# the O(N²) scan baseline and cross-verifies the fast path against it, and
# -simworkers adds a sharded simulation whose digest must match its serial
# twin exactly (the sweep exits nonzero on divergence). Each robustness axis
# (chaos, churn, adversarial) runs once through figures.
smoke-bench:
	$(GO) test -run TestAllocs -count=1 ./internal/sim
	$(GO) test -run xxx -bench 'BenchmarkFigure5/n=50$$' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkCoopRecovery/n=100/chaos' -benchmem -benchtime 1x .
	$(GO) run ./cmd/rmsim -scaling -sizes 1000 -simworkers 4
	$(GO) run ./cmd/rmsim -scaling -sizes 1000 -simworkers 4 -domainsize 64
	$(GO) run ./cmd/figures -fig chaos -packets 15
	$(GO) run ./cmd/figures -fig churn -packets 15
	$(GO) run ./cmd/figures -fig adversarial -packets 15
	$(GO) test -run xxx -bench 'BenchmarkFailover$$' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkStrategyService/readers=4/churn=2000$$' -benchmem -benchtime 1x ./internal/strategysvc

# Wall-clock serial-vs-sharded capture for the conservative parallel engine:
# every scaling cell runs one serial and one sharded RP simulation (digest
# equality enforced) and records both times as JSON for EXPERIMENTS.md.
# Override PARALLEL_SIZES / SIMWORKERS to probe other points; set
# DOMAINSIZE to run the sharded half in hierarchical-domain mode (e.g.
# `make bench-parallel PARALLEL_SIZES=200000,1000000 DOMAINSIZE=65536`
# for the million-client tier).
PARALLEL_SIZES ?= 1000,5000,20000,50000
SIMWORKERS ?= 8
DOMAINSIZE ?= 0
bench-parallel:
	$(GO) run ./cmd/rmsim -scaling -sizes $(PARALLEL_SIZES) -simworkers $(SIMWORKERS) -domainsize $(DOMAINSIZE) -json \
		| tee BENCH_PARALLEL_$$(date +%Y-%m-%d).json

# CPU+heap profile of a representative run; inspect with `go tool pprof`.
profile:
	$(GO) run ./cmd/rmsim -routers 200 -protocol all -parallel 1 \
		-cpuprofile cpu.out -memprofile mem.out
	@echo "view: $(GO) tool pprof cpu.out   /   $(GO) tool pprof mem.out"

# Regenerate the paper's figures and the ablation tables.
figures:
	$(GO) run ./cmd/figures

cover:
	$(GO) test -cover ./...

# Every fuzz target, as package:Name. `fuzz` runs each for 30 s and
# `fuzz-short` (CI) for 5 s; names are anchored because -fuzz must match
# exactly one target.
FUZZ_TARGETS := \
	./internal/core:FuzzEvalAny \
	./internal/core:FuzzCondLossProb \
	./internal/core:FuzzRosterChurn \
	./internal/core:FuzzFastPathEquivalence \
	./internal/fault:FuzzSchedule \
	./internal/experiment:FuzzMutator \
	./internal/experiment:FuzzRunPath \
	./internal/protocol:FuzzDetectProgram \
	./internal/protocol:FuzzRecoveries \
	./internal/protocol:FuzzDedupCache \
	./internal/protocol/coop:FuzzCoopDecode \
	./internal/protocol/rpproto:FuzzElection \
	./internal/sim:FuzzCalendar \
	./internal/sim:FuzzSortArrivals
FUZZTIME_fuzz := 30s
FUZZTIME_fuzz-short := 5s

fuzz fuzz-short:
	@for t in $(FUZZ_TARGETS); do \
		echo "$(GO) test -fuzz ^$${t#*:}\$$ -fuzztime $(FUZZTIME_$@) $${t%%:*}"; \
		$(GO) test -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME_$@) $${t%%:*} || exit 1; \
	done

# Long-haul adversarial soak: the full default mutation sweep at production
# scale plus max-intensity mutation layered over mid-severity chaos, strict
# invariant oracle on throughout. Minutes, not CI seconds.
soak:
	RMCAST_SOAK=1 $(GO) test -run TestAdversarialSoak -v -timeout 30m ./internal/experiment

clean:
	$(GO) clean ./...
