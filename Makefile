# Tier-1 verification gate. `make check` is what CI (and the roadmap) runs.

GO ?= go

.PHONY: check fmt vet build test race bench bench-alloc bench-smoke bench-ab check-kernels check-metrics check-subscribe check-trace

check: fmt vet build test race check-kernels check-metrics check-subscribe check-trace bench-alloc
	-@$(MAKE) --no-print-directory bench-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/telemetry ./internal/runtime ./internal/stream ./internal/pisa ./internal/query ./internal/emitter

# The benchmark: the harness (bench/README.md), four workloads, ~3.5 min,
# record in bench/out/record.json. The paper-figure benchmarks are
# `go test -bench 'Table3|Fig|Ablation|RefinementUpdate' -benchmem .`
bench:
	$(GO) run ./bench

# Column-kernel gate, under the race detector: the shared kernels
# (internal/query, with internal/tuple's columns and selections and
# internal/keytab's bulk probe) against their scalar definitions, a batch's
# header-field columns against Packet.Field and the flat rule set against a
# map; then each
# of their two callers against its reference — the stream executor against
# the per-tuple interpreter over generated op chains and adversarial window
# sizes, every batched switch walk against frame-at-a-time Process; then the
# boundary between the two, batch hand-off against the wire codec's round
# trip; once, the sharded runtime against the scalar oracle (inline and at
# 2/8 workers); and planner training, which runs the kernels over one batch of
# extracted columns per window, against the reference trainer that profiles
# every level and edge separately over bare packets. View batches, their prescreen masks and their field
# columns are shared read-only across shards while each shard's emitter
# adopts them into its own scratch; the race detector is what proves
# "read-only" (`make race` runs the whole of the packages that hold them).
check-kernels:
	$(GO) test -race -count=1 -run 'TestLevelShift' ./internal/fields
	$(GO) test -race -count=1 -run 'Kernels|TestContainsKeyBatch|TestColumnKinds|TestFieldColumns|TestFieldSet|TestU64Set' ./internal/query
	$(GO) test -race -count=1 -run 'TestAppendKeyCols|TestSelections|TestColumnPool' ./internal/tuple
	$(GO) test -race -count=1 -run 'TestLookupBulk' ./internal/keytab
	$(GO) test -race -count=1 -run 'TestBatched' ./internal/stream
	$(GO) test -race -count=1 -run 'TestBatchedWalksMatchProcess|TestShuntMaskClearedAcrossBatchLengths|TestFieldColumnsClearedAcrossBatchLengths|TestDynFilterProbesThePublishedSet|TestShardsShareColumns' ./internal/pisa
	$(GO) test -race -count=1 -run 'TestMirrorBatchMatchesWire' ./internal/emitter
	$(GO) test -race -count=1 -run 'TestShardedMatchesSequential' ./internal/runtime
	$(GO) test -race -count=1 -run 'TestTrainMatchesReference|TestTrainLadderHasNoSelfEdge' ./internal/planner

# Metric-naming lint: instruments a full deployment (runtime + flight
# recorder) into one registry and runs telemetry.Registry.Lint over every
# family (sonata_ prefix, counter/gauge/histogram suffix rules, HELP text).
check-metrics:
	$(GO) test -run 'TestMetricsLint|TestLint' ./internal/runtime ./internal/telemetry

# Subscription delivery gate, under the race detector: the differential test
# proves concurrent subscribers observe the one-shard runtime's per-window
# result sequence bit-identically at 1/2/8 workers, and the backpressure test
# proves a stalled consumer is evicted without delaying window close.
check-subscribe:
	$(GO) test -race -run 'TestSubscribe|TestPublishNeverBlocks|TestOnChange|TestSample|TestTargetDefined|TestDialOut' ./internal/subscribe

# Trace-tree gate, under the race detector: the ring/rotation test hammers
# eight single-writer lanes against concurrent window closes, and the
# runtime-level differential test proves retained span-tree structure is
# identical at 1/2/8 workers (plus the latency-triggered retention check).
check-trace:
	$(GO) test -race ./internal/tracez
	$(GO) test -race -run 'TestTraceTree|TestLatencyTriggered' ./internal/runtime

# Gating allocation budget: TestAllocBudget pins each hot path's allocs/op
# against alloc_budget.json (zero for every path but the runtime's whole
# window close, which allocates its report and refinement rule sets, and
# planner training, whose ceiling is its measured count);
# the -benchmem run prints the same paths' current numbers for the log.
# Allocation counts are deterministic (training's to within a few, from map
# hashing), so unlike bench-smoke this gate is not subject to perf noise and
# does fail `make check`.
bench-alloc:
	$(GO) test -run TestAllocBudget -benchtime 100x -benchmem \
		-bench 'BenchmarkSwitchProcess$$|BenchmarkSwitchProcessViewsProbed$$|BenchmarkPrescreenEval$$|BenchmarkMirrorBatchIngest$$|BenchmarkEmitterRoundTrip$$|BenchmarkKeytabSteadyState$$|BenchmarkEngineJoinClose$$|BenchmarkRuntimeWindowClose$$|BenchmarkPlannerTrain$$' .

# Quick perf regression probe: the benchmark harness (bench/README.md) at
# smoke size — all four workloads, plain and traced, ~30 s — leaving the
# record in bench/out/record.json, which CI uploads. Non-gating in `make
# check` (perf noise must not fail CI); for a before/after verdict run
# `go run ./bench` on both commits and `go run ./bench -compare old new`.
bench-smoke:
	$(GO) run ./bench -quick

# Before/after verdict for a performance change: `make bench-ab BASE=<rev>
# [PAIRS=10] [SECONDS=8]` unpacks BASE with `git archive` into a temporary
# directory, builds both harnesses, makes PAIRS full records per side
# (`-seed i`, alternating which side runs first) and ends with `go run
# ./bench -compare base1,...,baseN new1,...,newN`. About 2.5 minutes per pair
# at the defaults; the records stay in bench/out/ab/. Non-gating, like
# bench-smoke.
PAIRS ?= 10
SECONDS ?= 8
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [PAIRS=10] [SECONDS=8]"; exit 2; }
	./scripts/bench-ab.sh "$(BASE)" "$(PAIRS)" "$(SECONDS)"
