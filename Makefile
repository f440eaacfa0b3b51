GO ?= go

.PHONY: build vet lint test tier1 race bench bench-proxy bench-whatif bench-speculation bench-e2e bench-e2e-smoke chaos cluster property resume readpath durable simcost collectcost fuzz whatif speculate verify

build:
	$(GO) build ./...

# vet also holds the tree to gofmt: any file gofmt would rewrite fails the
# target. It is a check — nothing is rewritten — and "." covers bench/e2e (a
# module of its own, which go vet ./... does not enter) as well.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet; staticcheck runs when the binary is on PATH
# (CI installs it, bare dev machines skip cleanly rather than failing).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not on PATH; skipping"; fi

test:
	$(GO) test ./...

# ROADMAP's tier 1, uncached, with its wall time: the number "halve tier-1"
# is measured by.
tier1:
	@start=$$(date +%s); $(GO) build ./... && $(GO) test -count=1 ./... || exit 1; \
	echo "tier-1 (go build ./... && go test -count=1 ./...): $$(( $$(date +%s) - start )) s wall"

# The broker, durable log, and live monitor are all concurrency-heavy; run
# the whole tree under the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Pass-by-reference data plane: scheduler control-path bytes for a 16x64MB
# gather, direct relay vs proxy refs (BENCH_proxystore.json is checked in;
# the proxy lane's control-B/op must stay >= 10x below direct).
bench-proxy:
	$(GO) test -run '^$$' -bench 'BenchmarkProxyTransfer' -benchtime 3x ./internal/dask/ \
		| $(GO) run ./tools/benchjson > BENCH_proxystore.json
	cat BENCH_proxystore.json

# Seeded, deterministic fault-injection and recovery suites, race-enabled:
# the chaos plan parser/controller, the scheduler crash-recovery tests
# (including the crash-vs-baseline property test and the kill x -speculate
# regression: a hedge candidate on a dead, not yet evicted worker, on both
# data planes), the end-to-end degraded sessions in core/perfrecup/live, and
# the command lines that used to abort the process.
chaos:
	$(GO) test -race -run 'TestParse|TestArm|TestEmptyPlan|TestWorkerCrash|TestLostKey|TestWorkerRestart|TestRepeatedCrash|TestCrash|TestHedgeOnDeadWorkerLosesNoTask|TestEmptyHolderSnapshotSurrenders|TestChaos|TestRecoveryTimeline|TestAggregatorRecovery' \
		./internal/chaos/ ./internal/dask/ ./internal/core/ ./internal/perfrecup/ ./internal/live/
	$(GO) test -race -run 'TestCmdRunSurvivesKillWithSpeculation' ./cmd/taskprov/

# The sharded, replicated cluster suites, race-enabled: placement, quorum
# replication, failover/fencing (a remote replica member included), and the
# end-to-end cluster sessions (broker kill mid-workflow, zero acknowledged
# loss, deterministic failover timeline). The log service's
# contract lives here too, in the one package that can build every
# deployment: the conformance table over broker, cluster and a Remote to
# each, and the wire golden — named on a line of their own, uncached, so a
# rename cannot drop them from the gate.
cluster:
	$(GO) test -race ./internal/mofka/cluster/
	$(GO) test -race -count=1 -run 'TestServiceConformance|TestWireGolden|TestRemoteMember' ./internal/mofka/cluster/
	$(GO) test -race -run 'TestCluster' ./internal/core/

# Property push, race-enabled: random DAGs through the scheduler (exactly
# once, dependency order, determinism), random kill/restart schedules under
# the proxy data plane (holder/refcount/quiescence invariants), the chaos
# directives crossed two at a time with hedging on
# (TestRandomDAGsSurvivePairedFaultsWithSpeculation, which fails if no trial
# puts a hedge candidate on a dead, unevicted worker), and a source pick that
# does not depend on map order.
property:
	$(GO) test -race -run 'TestRandomDAG|TestSourcePickIndependentOfHolderOrder' ./internal/dask/ ./internal/core/

# Run-resumption gate, race-enabled: kill -9 of the whole session at three
# points of a seeded run (plus random DAGs at random kill points, plus the
# paper workloads), resumed from the durable provenance log — merged outputs
# and graph results must be identical to an uninterrupted run, with no task
# re-executed whose output was still resolvable.
resume:
	$(GO) test -race -run 'TestResume|TestSchedulerKillAtTask|TestSessionClose|TestRandomDAGsSurviveSchedulerKill' ./internal/core/
	$(GO) test -count=1 -run 'TestResumeEquivalence' ./internal/workloads/

# Read-path gate: the allocation budget of a post-mortem open and a live
# replay (per event of a seeded imageprocessing data dir; not under -race,
# which allocates on its own), typed ingest against the map API over every
# event of the seeded runs, and — race-enabled — the post-mortem-open suite
# against its serial reference (standalone and cluster dirs, torn, corrupt,
# lagging, killed; each segment opened once), one cursor-store rewrite per
# CommitBatch, the malformed-event regressions and frontier reconstruction
# against the reference open.
readpath:
	$(GO) test -count=1 -run 'TestReadPathAllocationBudget|TestTypedIngestMatchesMapIngest' ./internal/workloads/
	$(GO) test -race -run 'TestPostMortemOpen|TestCommitBatchRewritesCursorStoreOnce' ./internal/mofka/ ./internal/mofka/cluster/
	$(GO) test -race -run 'FuzzIngest|TestReplayReportsMalformedEvent|TestRemoteTailerReportsMalformedEventOnce|TestMonitorSkipsMalformedEvent' ./internal/live/
	$(GO) test -race -run 'TestReconstructDeterministicAndEqualsReferenceOpen' ./internal/resume/

# Durable write-path gate, race-enabled and uncached: the commit contract
# behind a held or failing fsync (nothing visible, counted or acknowledged
# before an fsync covering it returned; a failed fsync poisons the log and
# leaves no duplicated frame; a quorum append's replica fsyncs overlap), eight
# concurrent pushers on one durable partition, one seeded session storing the
# same bytes under every fsync policy (standalone and clustered, healthy and
# with a faulty log), no goroutine left behind by a crashed durable session,
# and the WAL recovery corpus. The allocation pins of the lean writer run
# without -race, which allocates on its own.
durable:
	$(GO) test -race -count=1 -run 'TestCommitWaitsForFsync|TestFailedFsyncPoisonsLog|TestQuorumAppendOverlapsReplicaFsyncs|TestConcurrentPushBatchKeepsOrder|FuzzWALRecover' ./internal/mofka/wal/
	$(GO) test -race -count=1 -run 'TestSyncPolicyLeavesSameBytes|TestCrashedSessionsLeaveNoGoroutines' ./internal/core/
	$(GO) test -count=1 -run 'TestOpenDurableBrokerAllocatesLittle|TestAppendBatchAllocatesNothing' ./internal/mofka/wal/

# Simulator host-cost gate, uncached and not under -race (which allocates on
# its own): a simulated message costs no malloc — a recycled kernel timer, a
# transfer through its latency hop and the receiving NIC, the free-keys
# broadcast — a process started on a kernel with an idle one costs its body
# closure, a collection-off imageprocessing session stays inside its mallocs
# per task, a stale resume of a finished process panics by name, the kernel
# against its sort-by-(time, sequence) model with recycled and owned events
# interleaved, and a striped PFS operation submits in stripe order. Then one
# iteration of each kernel benchmark, so a signature change cannot leave them
# uncompiled.
simcost:
	$(GO) test -count=1 -run 'TestKernelAllocBudget|TestProcAllocBudget|TestProcStaleResumePanics|TestKernelOrderProperty|TestKernelCloseUnwindsParkedProcs|TestSharedServerGoldenTrace' ./internal/sim/
	$(GO) test -count=1 -run 'TestTransferAllocatesNothing' ./internal/platform/
	$(GO) test -count=1 -run 'TestStripedFanoutSubmitsInStripeOrder' ./internal/pfs/
	$(GO) test -count=1 -run 'TestFreeKeysBroadcastAllocatesNothing' ./internal/dask/
	$(GO) test -count=1 -run 'TestSimOnlyAllocBudget' ./internal/workloads/
	$(GO) test -run '^$$' -bench 'BenchmarkProcSwitch|BenchmarkKernelEventThroughput|BenchmarkSharedServer' -benchtime 1x ./internal/sim/

# Collection host-cost gate, uncached and not under -race (which allocates on
# its own): the collector's mallocs per event, the recovery warning of a
# producer that drains during the final Flush shipped whatever the map order,
# the broker's one admission pass — no malloc per event on a sample of every
# topic, Partition.Append of a default batch at its pinned count, the whole
# batch refused for one invalid event, encoding/json's stored form for what is
# not in it, and the pass against json.Valid over its seed corpus. Then one
# iteration of the admission benchmark, so it cannot go uncompiled.
collectcost:
	$(GO) test -count=1 -run 'TestCollectorAllocationBudget|TestFlushShipsRecoveryWarning' ./internal/core/
	$(GO) test -count=1 -run 'TestAdmissionReadsAndAllocatesPerBatch|TestAppendRejectsInvalidMetadata|TestAppendStoresCompactedMetadata|FuzzAdmission' ./internal/mofka/
	$(GO) test -run '^$$' -bench 'BenchmarkAdmit' -benchtime 1x ./internal/mofka/

# What-if validation: self-replay of the unchanged scenario on the seeded
# ImageProcessing and xgboost runs must predict the measured makespan within
# +/-10%, the critical path must attribute >=95% of it to named categories,
# and the report must render byte-identically across live/WAL/post-mortem
# loads.
whatif:
	$(GO) test -count=1 -run 'TestSelfReplayValidation|TestCriticalPathAttribution' ./internal/whatif/
	$(GO) test -count=1 -run 'TestCritPathGoldenDeterminism|TestCriticalPathLane' ./internal/perfrecup/ ./internal/live/

# Critical-path and replay cost on a 20k-task DAG, recorded as JSON
# (BENCH_whatif.json is checked in; regenerate after perf work).
bench-whatif:
	$(GO) test -run '^$$' -bench 'BenchmarkCriticalPath|BenchmarkWhatIfReplay|BenchmarkSlack' -benchmem ./internal/whatif/ \
		| $(GO) run ./tools/benchjson > BENCH_whatif.json
	cat BENCH_whatif.json

# Gray-failure acceptance gate, race-enabled: the brownout grammar and its
# arm paths, the hedged-execution acceptance run (speculation must recover
# >=40% of the makespan a factor-8 brownout costs, with exactly one execution
# record per key and the proxy footprint back at baseline), random DAGs under
# brownouts and kills (both data planes, and the chaos directives two at a
# time), the hedge-on-a-dead-worker regression, heartbeat-jitter desync, and
# the speculation views/lanes.
speculate:
	$(GO) test -race -run 'TestParseEveryDirective|TestUnknownDirectiveListsAll|TestParseSlowNetErrors|TestArmSlowdowns|TestArmLinkFaults' ./internal/chaos/
	$(GO) test -race -run 'TestBrownoutSpeculationAcceptance|TestHeartbeatJitterDesynchronizesMultiRestart' ./internal/core/
	$(GO) test -race -run 'TestRandomDAGsSurviveBrownoutsWithSpeculation|TestRandomDAGsSurvivePairedFaultsWithSpeculation|TestHedgeOnDeadWorkerLosesNoTask' ./internal/dask/
	$(GO) test -race -run 'TestAggregatorSpeculationLane|TestStragglerDetectorAdvisor' ./internal/live/
	$(GO) test -race -run 'TestSpeculationTimeline' ./internal/perfrecup/

# The brownout acceptance scenario's makespans (hedging off vs on), recorded
# as JSON for tracking across changes (BENCH_speculation.json is checked in;
# the speculated lane's makespan-s must stay well below browned-out's).
bench-speculation:
	$(GO) test -run '^$$' -bench 'BenchmarkBrownoutSpeculation' -benchtime 1x ./internal/core/ \
		| $(GO) run ./tools/benchjson > BENCH_speculation.json
	cat BENCH_speculation.json

# Fuzzing: replay the checked-in seed corpora, then fuzz live for a short
# burst each. WAL crash recovery: arbitrary segment bytes must never panic
# recovery and must keep exactly the valid frame prefix. Event codec:
# arbitrary bytes into every typed decoder must never panic, must be accepted
# exactly when encoding/json accepts them, decode to what Parse over a decoded
# map gives, and re-encode to bytes that decode to the same record. Live
# ingest: for any topic and bytes, the typed entry point and the map API both
# reject or leave equal snapshots. Chaos specs: no spec panics the parser, and
# an accepted plan arms against a small cluster without panicking. Darshan
# logs and Mercury TCP frames: arbitrary bytes never panic the reader, cost
# memory in proportion to the bytes that arrived (no count or length prefix is
# an allocation size), and what is accepted re-encodes to the same bytes.
# Broker admission: the one pass accepts exactly what json.Valid accepts and
# calls stored exactly what json.Compact + json.HTMLEscape leave alone, the
# envelope around it splits back, and splitEnvelope never panics and re-frames
# what it accepts. Data dir sidecars (checkpoint.json, attempts.json,
# cluster.json): loading them and reconstructing a resume state over them
# never panics or spins on a number the file supplied.
fuzz:
	$(GO) test -run 'FuzzWALRecover' ./internal/mofka/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzWALRecover' -fuzztime 20s ./internal/mofka/wal/
	$(GO) test -run 'FuzzCodec' ./internal/provenance/
	$(GO) test -run '^$$' -fuzz 'FuzzCodec' -fuzztime 20s ./internal/provenance/
	$(GO) test -run 'FuzzIngest' ./internal/live/
	$(GO) test -run '^$$' -fuzz 'FuzzIngest' -fuzztime 20s ./internal/live/
	$(GO) test -run 'FuzzServe' ./internal/mofka/
	$(GO) test -run '^$$' -fuzz 'FuzzServe' -fuzztime 20s ./internal/mofka/
	$(GO) test -run 'FuzzAdmission' ./internal/mofka/
	$(GO) test -run '^$$' -fuzz 'FuzzAdmission' -fuzztime 20s ./internal/mofka/
	$(GO) test -run 'FuzzParse' ./internal/chaos/
	$(GO) test -run '^$$' -fuzz 'FuzzParse' -fuzztime 20s ./internal/chaos/
	$(GO) test -run 'FuzzReadLog' ./internal/darshan/
	$(GO) test -run '^$$' -fuzz 'FuzzReadLog' -fuzztime 20s ./internal/darshan/
	$(GO) test -run 'FuzzReadFrame' ./internal/mochi/mercury/
	$(GO) test -run '^$$' -fuzz 'FuzzReadFrame' -fuzztime 20s ./internal/mochi/mercury/
	$(GO) test -run 'FuzzSidecars' ./internal/resume/
	$(GO) test -run '^$$' -fuzz 'FuzzSidecars' -fuzztime 20s ./internal/resume/

# The repo's end-to-end benchmark (bench/e2e, a module of its own): all four
# workloads twice, the spread judged against BENCHMARK.json's bounds. Minutes,
# so not part of verify; bench-e2e-smoke is one imageprocessing cycle of each
# workload, every code path in seconds, and is what CI runs.
bench-e2e:
	$(GO) run -C bench/e2e . -repeat 2

bench-e2e-smoke:
	for w in sim-only collect-mem collect-durable analyze; do \
		$(GO) run -C bench/e2e . -workload $$w -smoke || exit 1; done

# Everything CI runs.
verify: tier1 lint race chaos cluster property resume readpath durable simcost collectcost fuzz whatif speculate
