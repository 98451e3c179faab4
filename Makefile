GO ?= go
GOFMT ?= gofmt
BENCHTIME ?= 1s
FUZZTIME ?= 5s
LOADTEST_DURATION ?= 5s
LOADTEST_WARMUP ?= 2s
BENCHDIFF_BASE ?= origin/main
BENCHDIFF_COUNT ?= 5
BENCHDIFF_THRESHOLD ?= 0.15
BENCHDIFF_BENCHES = BenchmarkSubmitHandler|BenchmarkJobsHandler|BenchmarkJobHandler|BenchmarkPlanEpoch|BenchmarkPlanStages|BenchmarkStagedDegradation
BENCHDIFF_PKGS = ./internal/server/ ./internal/online/ ./internal/core/ ./internal/model/

.PHONY: all build test race vet fmtcheck bench benchdiff race-smoke fuzz loadtest loadtest-fleet verify corund clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmtcheck fails (listing the offenders) if any file needs gofmt.
fmtcheck:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench runs the planning benchmarks of the policy engine, the served
# hcs+ epoch (profile -> model -> plan -> simulate), its planning
# stages (partition, greedy, refine), the staged interpolation's miss
# path and the append/recovery benchmarks of the state journal (no
# tests, with allocation stats). BENCHTIME=1x gives a quick smoke run.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) \
		./internal/policy/ ./internal/online/ ./internal/core/ \
		./internal/model/ ./internal/journal/

# benchdiff is the bench-regression gate: it checks out the merge base
# of BENCHDIFF_BASE into a throwaway git worktree, runs the tier-1
# serving-path microbenches, the served hcs+ epoch benchmark, its
# planning stages and the staged interpolation's miss path there and
# at HEAD (BENCHDIFF_COUNT repetitions each, medians compared), and
# fails on a >BENCHDIFF_THRESHOLD regression in ns/op or B/op via the
# in-repo cmd/benchdiff (a dependency-free benchstat stand-in). A
# benchmark the baseline lacks is skipped, so a new one gates from the
# next change on.
benchdiff:
	@set -e; \
	base="$$(git merge-base HEAD $(BENCHDIFF_BASE) 2>/dev/null || git rev-parse HEAD~1)"; \
	tmp="$$(mktemp -d)"; \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	echo "benchdiff: baseline $$base"; \
	git worktree add --detach "$$tmp/base" "$$base" >/dev/null; \
	( cd "$$tmp/base" && $(GO) test -run='^$$' -bench='$(BENCHDIFF_BENCHES)' \
		-benchmem -count=$(BENCHDIFF_COUNT) $(BENCHDIFF_PKGS) ) > "$$tmp/old.txt"; \
	$(GO) test -run='^$$' -bench='$(BENCHDIFF_BENCHES)' \
		-benchmem -count=$(BENCHDIFF_COUNT) $(BENCHDIFF_PKGS) > "$$tmp/new.txt"; \
	$(GO) run ./cmd/benchdiff -old "$$tmp/old.txt" -new "$$tmp/new.txt" \
		-threshold $(BENCHDIFF_THRESHOLD) -metrics "ns/op,B/op"

# race-smoke drives a short corunbench closed loop against a race-
# instrumented in-process daemon — the serving path's concurrency
# smoke test for CI.
race-smoke:
	$(GO) run -race ./cmd/corunbench -mode closed -concurrency 8 \
		-duration 2s -warmup 500ms \
		-tenants 'team-a=3:high,team-b=2,batch=1:low' \
		-tenant-weights 'team-a=3,team-b=1,batch=0' -max-batch 8 \
		-out /dev/null

# fuzz smoke-runs every fuzz target for FUZZTIME each (go test takes
# one -fuzz pattern per invocation, hence one line per target).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/policy/
	$(GO) test -run='^$$' -fuzz=FuzzPairTimes -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzArbitrate -fuzztime=$(FUZZTIME) ./internal/memsys/
	$(GO) test -run='^$$' -fuzz=FuzzJobSpecJSON -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzAdmissionSpec -fuzztime=$(FUZZTIME) ./internal/admission/

# loadtest drives a self-hosted corund end-to-end with cmd/corunbench
# (closed loop, journaling to a temp dir, a three-tenant mix against
# WFQ weights and a bounded batch) and writes the canonical
# BENCH_10.json report: throughput, per-endpoint and per-tenant latency
# quantiles, server-side counter deltas (including the per-plane watts,
# temperature, and binding_constraint of the domain model), paired
# journal micro-benchmarks, and the committed optimization evidence
# from bench/optimizations_9.json. Concurrency 32 (up from 4) exercises
# the sharded table and lets the journal writer goroutine coalesce
# submitters into shared fsyncs — at concurrency 4 there is almost
# nothing to batch.
#
# -tmax 45 makes the run a thermal-throttle scenario: at the 15 W cap
# the heatsink steadies near 52-54 C, so a 45 C trip point reliably
# fires mid-epoch and the report's binding_constraint reads "thermal"
# (the power cap alone would read "package"). That keeps the thermal
# path exercised end-to-end on every CI run, not just in unit tests.
#
# The shape below measures the *serving path*, so everything else is
# kept off the critical core (the CI host has one):
#   -policy random   a 64-job epoch costs ~55us/job instead of
#                    hcs+'s ~130us/job (BenchmarkPlanEpoch and the
#                    same epoch under random, measured back to back
#                    on a 2-vCPU Xeon); on a 1-CPU host hcs+ planning
#                    competes for the core and the bench measures the
#                    planner, not the serving path. Planning runs off
#                    the request path either way (see DESIGN 2h).
#   -max-batch 64    drain headroom: epochs/s x batch must exceed the
#                    accept rate or the queue bound backpressures.
#   -max-queue 16384 absorbs the burstier accepted stream.
#   GOGC=800         the closed loop is allocation-bound at this rate;
#                    default GOGC spends ~25% of the core in GC.
loadtest:
	GOGC=800 $(GO) run ./cmd/corunbench -mode closed -concurrency 32 \
		-duration $(LOADTEST_DURATION) -warmup $(LOADTEST_WARMUP) \
		-policy random -max-batch 64 -max-queue 16384 -tmax 45 \
		-tenants 'team-a=3:high,team-b=2,batch=1:low' \
		-tenant-weights 'team-a=3,team-b=1,batch=0' \
		-microbench -notes bench/optimizations_9.json -out BENCH_10.json

# loadtest-fleet drives a self-hosted 3-node fleet behind the
# in-process coordinator with the same mixed-tenant workload, three
# times the single-node concurrency (so each node sees the loadtest
# share), plus a paired single-node baseline at the per-node share, and
# writes BENCH_8.json: fleet throughput, per-node routed/placement
# counts and power shares, the worst one-sided fraction, and the
# speedup against the embedded baseline.
# The mix weights dwt2d (the one CPU-preferred program at max
# frequency) up to half the stream, so the workload genuinely mixes
# CPU- and GPU-preferred jobs and the per-node one-sided fractions
# measure the placer rather than the calibration table's GPU skew.
loadtest-fleet:
	$(GO) run ./cmd/corunbench -fleet 3 -baseline \
		-mode closed -concurrency 12 \
		-duration $(LOADTEST_DURATION) -warmup $(LOADTEST_WARMUP) \
		-mix 'dwt2d=7,streamcluster=1,cfd=1,hotspot=1,srad=1,lud=1,leukocyte=1,heartwall=1' \
		-tenants 'team-a=3:high,team-b=2,batch=1:low' \
		-tenant-weights 'team-a=3,team-b=1,batch=0' -max-batch 8 \
		-out BENCH_8.json

# verify is the tier-1 gate: everything must be gofmt-clean, compile,
# vet clean, and pass the full test suite under the race detector.
verify: fmtcheck
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

corund:
	$(GO) build -o bin/corund ./cmd/corund

clean:
	rm -rf bin
