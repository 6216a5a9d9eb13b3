# Tier-1 verification gate. `make check` is what CI (and the roadmap) runs.

GO ?= go

.PHONY: check fmt vet build test race bench bench-alloc bench-smoke bench-ab check-kernels check-metrics check-subscribe check-trace check-eval check-examples check-fuzz

check: fmt vet build test race check-kernels check-metrics check-subscribe check-trace check-eval check-examples check-fuzz bench-alloc
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

# The flight recorder is here too: Snapshot serves HTTP readers while the
# close path commits. So are the drivers: the data-plane server's view batch
# is shared between Process and the serving goroutine.
race:
	$(GO) test -race ./internal/telemetry ./internal/runtime ./internal/stream ./internal/pisa ./internal/query ./internal/emitter ./internal/flightrec ./internal/drivers

# The benchmark: the harness (bench/README.md), four workloads, ~3.5 min,
# record in bench/out/record.json. The paper-figure benchmarks are
# `go test -bench 'Table3|Fig|Ablation|RefinementUpdate' -benchmem .`
bench:
	$(GO) run ./bench

# Column-kernel gate, under the race detector: the shared kernels
# (internal/query, with internal/tuple's columns and selections and
# internal/keytab's one-pass column probe, against a map model) against
# their scalar definitions, a batch's
# header-field columns against Packet.Field and the flat rule set against a
# map; then each
# of their two callers against its reference — the stream executor against
# the per-tuple interpreter the stream tests keep (interp_ref_test.go) over
# generated op chains entered by tuples and by packets and adversarial
# window sizes, every batched switch walk against the frame-at-a-time walk
# the pisa tests keep, and the register probe — column hashing and packing,
# the chain walk, the dump — against the model bank over random sequences and
# the FuzzRegisterBank seeds, its batch pass (fused hash-and-pack kernels, the
# inline chain-0 hit) against the column-at-a-time, row-by-row probe the pisa
# tests keep, bit for bit, and the switch's resource model — first-fit
# placement under the per-stage limits and register sizing under the per-op
# budget — against hand-placed programs; then the boundary between the two,
# batch hand-off against the wire codec's round trip the emitter tests keep
# — all three
# again over the small-scale eleven-query plan, the wire side's engine
# batched; once, the sharded runtime at 2/8 workers against one shard
# and the runtime's vantage-point switches against the standalone
# network-wide fabric loop they replaced (2 and 4 vantage points at 1 and 2
# workers); planner training, which runs the kernels over one batch of
# extracted columns per window, against the reference trainer that profiles
# every level and edge separately over bare packets, and at GOMAXPROCS 1
# against 4, whose query workers share only the read-only batches; and plan
# selection, which prices each refinement edge once and keeps, sorts and
# builds only each mode's cheapest 48 candidates, against the reference
# selector that builds and prices every (path, cut-tier) combination — equal
# candidates, order included, and equal plans — its bounded per-mode
# selection against sorting every proxy, ties at the 48th place included,
# and Sonata's plan against every restricted
# mode's, never costlier, on random switches and on every small-scale Fig. 8
# configuration; on the same switches, the swap search that improves on
# Sonata's incumbent — moves of one or two queries tried through Place,
# largest saving first, after a prune that drops a move whose summed
# footprint exceeds the switch's totals or a pipeline longer than its
# stages — against brute force: its choice
# places and costs no more than the incumbent, and where it ends short of
# its cap no cheaper one- or two-query move places, unpruned, so the prune
# drops nothing that places, and from the All-SP choice on one- to
# four-stage switches, where the best candidates fill every stage, so a
# stage prune that dropped one of them fails; each plan's levels against its switch program — every
# level side the program instance at its position, in order, and nothing
# else in the program, which the runtime's shard assembly relies on — for
# all eleven queries on every Fig. 8 configuration and the default switch in
# every mode; and pisa.Program.Place, which places every program plan
# selection builds, against the first-fit placer it replaced plus Validate
# over those switches' trial programs — the same programs accepted, in the
# same stages. View batches, their prescreen masks and their field
# columns are shared read-only across shards while each shard's emitter
# adopts them into its own scratch; the race detector is what proves
# "read-only" (`make race` runs the whole of the packages that hold them).
check-kernels:
	$(GO) test -race -count=1 -run 'TestLevelShift' ./internal/fields
	$(GO) test -race -count=1 -run 'Kernels|TestContainsKeyBatch|TestColumnKinds|TestFieldColumns|TestFieldSet|TestU64Set' ./internal/query
	$(GO) test -race -count=1 -run 'TestSelections|TestColumnPool' ./internal/tuple
	$(GO) test -race -count=1 -run 'TestUpsertRowsAgainstMap' ./internal/keytab
	$(GO) test -race -count=1 -run 'TestBatched' ./internal/stream
	$(GO) test -race -count=1 -run 'TestBatchedWalksMatchProcess|TestShuntMaskClearedAcrossBatchLengths|TestFieldColumnsClearedAcrossBatchLengths|TestDynFilterProbesThePublishedSet|TestShardsShareColumns|TestRegisterBankMatchesModel|FuzzRegisterBank|TestFoldRowsMatchesReference|TestPlaceFirstFit|TestRegisterSize' ./internal/pisa
	$(GO) test -race -count=1 -run 'TestMirrorBatchMatchesWire' ./internal/emitter
	$(GO) test -race -count=1 -run 'TestShardedMatchesSequential|TestVantagePointsMatchFabric' ./internal/runtime
	$(GO) test -race -count=1 -run 'TestTrainMatchesReference|TestTrainLadderHasNoSelfEdge|TestTrainSameAtAnyWorkerCount|TestKeptProxiesAreEachModesCheapest|TestPathCandidatesMatchReference|TestPlanMatchesReference|TestCutTiersAndPathsAreDistinct|TestPlansAlwaysFitRandomSwitches|TestSonataDominatesFig8Configs|TestSwapSearchIsPairwiseOptimal|TestSwapSearchFromAllSPOnShallowSwitches|TestLevelsAreProgramInstances|TestPlaceMatchesReferencePlacer' ./internal/planner

# Metric-naming lint: instruments a full deployment (runtime + flight
# recorder) into one registry and runs telemetry.Registry.Lint over every
# family (sonata_ prefix, counter/gauge/histogram suffix rules, HELP text).
# Then the exposition's grouping (TestPrometheusFamiliesAreGroups): families
# registered interleaved still render as one group each under one HELP and
# one TYPE line, which the text format requires. Then the observer golden:
# /metrics, /debug/queries and the retained trace
# trees of a fully observed small-scale run at 1 and 2 workers, byte-equal to
# internal/runtime/testdata (every series advances from the WindowReport at
# window close, so a dropped or doubled count shows here).
check-metrics:
	$(GO) test -run 'TestMetricsLint|TestLint|TestPrometheusFamiliesAreGroups|TestObserverGolden' ./internal/runtime ./internal/telemetry

# Subscription delivery gate: the whole package under the race detector. The
# differential test proves concurrent subscribers, dial-in and dial-out alike,
# observe the one-shard runtime's per-window result sequence bit-identically
# at 1/2/8 workers; the backpressure tests prove a stalled consumer is evicted
# without delaying window close and pin drop-oldest's counts exactly with a
# writer holding a window in hand; and the dial-out tests race the redialing
# transport's writer against Close.
check-subscribe:
	$(GO) test -race ./internal/subscribe

# Trace-tree gate, under the race detector: the tracer test races window
# closes, each handing over a tree written into one reused slice, against the
# /debug/trace handler, Trees, Has and Stats, and the runtime-level
# differential test proves the span trees built at close are identical at
# 1/2/8 workers and on the streaming path (plus the latency-triggered
# retention check).
check-trace:
	$(GO) test -race ./internal/tracez
	$(GO) test -race -run 'TestTraceTree|TestLatencyTriggered' ./internal/runtime

# Figure gate, under the race detector: Table 3 and Fig. 5, 7a, 7b and 8 at
# small scale must hash to their recorded TSV digests. Fig. 7a, 7b and 8 run
# up to four experiments at once, and -race at GOMAXPROCS=4 shows that those
# runs share only the workload's read-only frame cache and the cached
# training (~25 s).
check-eval:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSmallScaleFiguresGolden' ./internal/eval

# Example gate: every walkthrough under examples/ and a small cmd/sonata
# replay run to a zero exit, examples/adaptive must report at least one
# collision-triggered re-plan (Runtime.Replan), and examples/distributed must
# print examples/distributed/testdata/output.txt byte for byte — ~6 s.
check-examples:
	@for ex in examples/*/; do \
		echo "go run ./$$ex"; out="$$($(GO) run ./$$ex)" || exit 1; \
		case $$ex in *adaptive*) echo "$$out" | grep -Eq '^re-plans: [1-9]' || \
			{ echo "$$out"; echo "examples/adaptive reported no re-plan"; exit 1; };; esac; \
		case $$ex in *distributed*) printf '%s\n' "$$out" | diff -u $${ex}testdata/output.txt - || \
			{ echo "examples/distributed diverged from its golden output"; exit 1; };; esac; \
	done
	$(GO) run ./cmd/sonata -pkts 20000 -windows 4 -workers 2 > /dev/null

# Fuzz smoke: ten seconds of arbitrary MsgInstall bodies against the
# data-plane server (FuzzDataPlaneInstall), then ten of arbitrary
# MsgEndWindow replies whose register dumps reach the emitter and the engine
# (FuzzWindowDataDumps), each seeded from internal/drivers/testdata/fuzz,
# then ten of arbitrary MsgSubscribe bodies through the subscription
# server's HandleConn (FuzzSubscribeRequest) and ten of arbitrary MsgNotify
# bodies through DecodeUpdate, the subscriber side's decoder, against
# re-encoding (FuzzDecodeUpdate), seeded from
# internal/subscribe/testdata/fuzz, then ten of arbitrary capture files
# through pcap.Reader (FuzzPcapReader), ten of arbitrary bank shapes and
# update streams through the register probe against the model bank
# (FuzzRegisterBank), ten of arbitrary byte streams through netproto's frame
# reader, each frame read against re-sending it (FuzzRecvRaw), and ten of
# arbitrary frames through the header and DNS parsers, every registered
# field read from both and from the adopted header parse (FuzzParse), each
# seeded from its package's testdata/fuzz; any panic or divergence fails the
# gate. FuzzRegisterBank's minimization is capped:
# uncapped, shrinking one new input can take the whole ten seconds.
check-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDataPlaneInstall -fuzztime 10s ./internal/drivers
	$(GO) test -run '^$$' -fuzz FuzzWindowDataDumps -fuzztime 10s ./internal/drivers
	$(GO) test -run '^$$' -fuzz FuzzSubscribeRequest -fuzztime 10s ./internal/subscribe
	$(GO) test -run '^$$' -fuzz FuzzDecodeUpdate -fuzztime 10s ./internal/subscribe
	$(GO) test -run '^$$' -fuzz FuzzPcapReader -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz FuzzRegisterBank -fuzztime 10s -fuzzminimizetime 200x ./internal/pisa
	$(GO) test -run '^$$' -fuzz FuzzRecvRaw -fuzztime 10s ./internal/netproto
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/packet

# Gating allocation budget: TestAllocBudget (and, for the register probe
# beyond L2, internal/pisa's TestRegisterBankProbeAllocBudget) pins each hot
# path's allocs/op against alloc_budget.json (zero for every path but the runtime's whole
# window close, which allocates its report and refinement rule sets, and
# planner training and plan selection, whose ceilings are their measured
# counts);
# the -benchmem run prints the same paths' current numbers for the log, plan
# selection at the paper's menu too, which no budget reads.
# Allocation counts are deterministic (training's to within a few, from map
# hashing), so unlike bench-smoke this gate is not subject to perf noise and
# does fail `make check`.
bench-alloc:
	$(GO) test -run TestAllocBudget -benchtime 100x -benchmem \
		-bench 'BenchmarkSwitchProcessViewsDeployed$$|BenchmarkPrescreenEval$$|BenchmarkMirrorBatchIngest$$|BenchmarkEmitterRoundTrip$$|BenchmarkKeytabSteadyState$$|BenchmarkEngineJoinClose$$|BenchmarkRuntimeWindowClose$$|BenchmarkPlannerTrain$$|BenchmarkPlanQueries$$' .
	$(GO) test -run TestRegisterBankProbeAllocBudget -benchtime 1000x -benchmem \
		-bench 'BenchmarkRegisterBankProbe$$' ./internal/pisa

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
