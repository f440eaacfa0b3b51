GO ?= go

.PHONY: build vet reach identity lint test tier1 race paper bench bench-proxy bench-whatif bench-speculation bench-e2e bench-e2e-smoke chaos cluster property resume readpath durable simcost collectcost fuzz whatif speculate verify

build:
	$(GO) build ./...

# vet also holds the tree to gofmt: any file gofmt would rewrite fails the
# target. It is a check — nothing is rewritten — and "." covers bench/e2e (a
# module of its own, which go vet ./... does not enter) as well. Then the
# root meta-tests, over one type-check of the tree, so a violation fails
# fast: every export has a program caller, every option field a program
# setter, every session knob a place in metadata.json that reads back, and no
# range over a map lets its order reach what a program does.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) test -count=1 -run 'TestNoUnusedExports|TestEveryKnobIsSet|TestEveryKnobIsRecorded|TestMapRangeOrder' .

# The reach census (tools/reach/run.sh): every cmd/*, examples/* and bench/e2e
# program built with statement coverage of every taskprov package, driven
# through a fixed list of invocations. Fails on a function under internal/
# that none of them runs unless REACH.txt lists it with a reason from the
# closed set (and on a listed one that runs now or is gone, or a package no
# program links); prints its wall time. It writes under .reach_build/.
reach:
	bash tools/reach/run.sh

# The identity manifest (tools/identity/run.sh): the SHA-256 of every output
# make reach left under .reach_build/work, against IDENTITY.txt's rows. Fails
# on a file that moved, appeared or went missing, and names it; the files its
# header excludes (host time, ports, temporary paths) each say why. A change
# that means to move bytes copies .reach_build/IDENTITY.txt over it. Run it
# after make reach, whose outputs it reads.
identity:
	bash tools/identity/run.sh

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

# The paper's evaluation (§IV): TestPaperClaims asserts every shape claim
# and known delta of EXPERIMENTS.md over seeds 1-4 of each workflow, one
# subtest per artifact (-run TestPaperClaims/Fig5 picks one), and logs each
# figure block as cmd/perfrecup prints it. Tier-1 runs it too; this prints.
paper:
	$(GO) test -count=1 -run TestPaperClaims -v ./internal/workloads

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
# (including the crash-vs-baseline property test, the TTL sweep's eviction
# order and the kill x -speculate regression: a hedge candidate on a dead,
# not yet evicted worker, on both data planes), the end-to-end degraded sessions in core/perfrecup/live, and
# the command lines that used to abort the process.
chaos:
	$(GO) test -race -run 'TestParse|TestArm|TestPlanCheck|TestEmptyPlan|TestWorkerCrash|TestLostKey|TestWorkerRestart|TestRepeatedCrash|TestCrash|TestTTLSweep|TestHedgeOnDeadWorkerLosesNoTask|TestEmptyHolderSnapshotSurrenders|TestChaos|TestRecoveryTimeline|TestAggregatorRecovery' \
		./internal/chaos/ ./internal/dask/ ./internal/core/ ./internal/perfrecup/ ./internal/live/
	$(GO) test -race -run 'TestCmdRunSurvivesKillWithSpeculation' ./cmd/taskprov/

# The sharded, replicated cluster suites, race-enabled: placement, quorum
# replication, failover, and the
# end-to-end cluster sessions (broker kill mid-workflow, zero acknowledged
# loss, deterministic failover timeline). The log service's
# contract lives here too, in the one package that can build every
# deployment: the conformance table over a broker, a closed durable
# cluster's log opened as every reader opens it, and each of them over TCP,
# and the wire golden — named on a line of their own, uncached, so a rename
# cannot drop them from the gate. So is the one-pass read of what mofkad
# serves (live.ReplayService) of a standalone run's dir and a cluster run's,
# each held to the replay of the run's own broker, each dir unchanged by the
# serving. So are
# the replicas of one admitted batch: a follower storing the leader's very
# documents, a batch with an invalid event left on no replica, and a follower
# healed by catch-up in a session whose log equals its leader's.
cluster:
	$(GO) test -race ./internal/mofka/cluster/
	$(GO) test -race -count=1 -run 'TestServiceConformance|TestWireGolden' ./internal/mofka/cluster/
	$(GO) test -race -count=1 -run 'TestFollowerStoresLeaderDocuments|TestInvalidBatchStoresNothing' ./internal/mofka/cluster/
	$(GO) test -race -count=1 -run 'TestReplayServiceEqualsReplayBroker' ./internal/live/
	$(GO) test -race -run 'TestCluster' ./internal/core/
	$(GO) test -race -count=1 -run 'TestClusterHealedFollowerLogEqualsLeader' ./internal/core/

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
# re-executed whose output was still resolvable. A session whose build fails
# at any stage unwinds what the earlier stages acquired: no goroutine left,
# no port held.
resume:
	$(GO) test -race -run 'TestResume|TestSchedulerKillAtTask|TestSessionCloseIdempotent|TestSessionCloseUnwindsEveryStage|TestRandomDAGsSurviveSchedulerKill' ./internal/core/
	$(GO) test -count=1 -run 'TestResumeEquivalence' ./internal/workloads/

# Read-path gate, uncached. Not under -race, which allocates on its own: the
# allocation budgets of a post-mortem open, a live replay, perfrecup.Phases
# and whatif.Extract (per event of a seeded run), the bytes a post-mortem open
# allocates (at most 1.75 times its segments'; of a cluster dir, at most 1.75
# times one replica set's segments'), typed ingest against the
# map API over every event of the seeded runs, Phases (the phase topics only)
# bit for bit against the full replay's phase fields on the paper workflows,
# a kill, a brownout and a cluster dir, the borrowing decoder (a name the
# input holds verbatim is a string over it, an escaped name and free text are
# copies, a warm decoder allocates nothing but a record's slices and those
# copies, and reads what a fresh one reads), number's exact fast path
# against ParseFloat, the codec against the map API over hostile inputs and
# FuzzCodec's corpus, the straggler fit against the sorting one, one
# iteration of BenchmarkDecode so it cannot go uncompiled,
# provenance.Records (a warm read allocates nothing and returns the same
# array, an append is read, records nobody holds are reclaimed, a missing
# topic is ErrNoTopic), every reader of a run's shared records leaving them
# unchanged, the scheduler log's order of simultaneous graphs, and a -live
# run's stored bytes and Summary as a function of the seed (a small DAG,
# then the three paper workflows). Race-enabled: provenance.Records' and
# live.ReplayBroker's concurrent decode against their one-core selves
# (the paper workflows, a cluster dir, a killed dir; corrupt events in both
# partitions), two goroutines reading one Records, the post-mortem-open suite
# against its serial reference (standalone and cluster dirs, torn, corrupt,
# lagging, killed, a torn tail on the replica with the most bytes, a replica
# with fewer bytes but more records, nodes disagreeing on a topic's
# partitions; each segment opened once, by a standalone open and by a merge
# of replicas), stored bytes a scan lent surviving a truncate and
# re-append (document collection and partition), the records a log's replay
# lent surviving the open, its appends and its close, the malformed-event
# regressions, two goroutines feeding one aggregator through the chunk path,
# an aggregator whose ingested bytes are overwritten keeping its snapshot, a
# monitor swept from a host ticker over a committer-published durable log
# ending at the replay, one delivery order (consumer, ChunksFrom and two
# monitors, attached early and late, swept at random
# points over unevenly growing partitions, against a naive round-robin
# model and the replay), SSE clients that leave no subscription behind and
# an /events interval too short to serve refused, and frontier
# reconstruction against the reference open.
readpath:
	$(GO) test -count=1 -run 'TestReadPathAllocationBudget|TestExtractAllocationBudget|TestPostMortemOpenAllocatesItsSegments|TestClusterPostMortemOpenAllocatesOneReplica|TestTypedIngestMatchesMapIngest|TestSharedRecordsStayUnchanged|TestPhasesMatchFullReplay' ./internal/workloads/
	$(GO) test -count=1 -run 'TestDecoderBorrowsNames|TestExactFloatMatchesParseFloat|TestCodecMatchesMapAPI|FuzzCodec|TestDrain|TestRecordsReuseUntilAppend|TestRecordsReleasedWhenUnheld|TestRecordsMissingTopic' ./internal/provenance/
	$(GO) test -race -count=1 -run 'TestRecordsParallelMatchesSerial|TestReplayParallelMatchesSerial' ./internal/workloads/
	$(GO) test -race -count=1 -run 'TestRecordsConcurrentReads' ./internal/provenance/
	$(GO) test -count=1 -run 'TestSchedulerLogOrdersSimultaneousGraphs' ./internal/core/
	$(GO) test -count=1 -run 'TestStragglerFitMatchesSortReference|TestLiveBytesFollowSeed' ./internal/live/ -paper-workflows
	$(GO) test -run '^$$' -bench 'BenchmarkDecode' -benchtime 1x ./internal/provenance/
	$(GO) test -race -count=1 -run 'TestPostMortemOpen|TestScannedBytesSurviveTruncate|TestLentDocumentsSurviveTruncate|TestReplayedRecordsOutliveTheOpen' ./internal/mofka/ ./internal/mofka/cluster/ ./internal/mochi/yokan/ ./internal/mofka/wal/
	$(GO) test -race -count=1 -run 'FuzzIngest|TestReplayReportsMalformedEvent|TestRemoteTailerReportsMalformedEventOnce|TestMonitorSkipsMalformedEvent|TestAggregatorConcurrentIngest|TestAggregatorKeepsNoBorrowedName|TestMonitorSweptFromHostTicker|TestOneDeliveryOrder|TestSSEClientsUnsubscribe|TestSSERejectsTinyInterval' ./internal/live/
	$(GO) test -race -count=1 -run 'TestReconstructDeterministicAndEqualsReferenceOpen' ./internal/resume/

# Durable write-path gate, race-enabled and uncached: the commit contract
# behind a held or failing fsync (nothing visible, counted or acknowledged
# before an fsync covering it returned; a failed fsync poisons the log and
# leaves no duplicated frame; a producer's wait for what it shipped seals
# nothing), the pipelined quorum append (a producer ships
# past batches awaiting their quorum, none acknowledged before both fsyncs
# return; a kill settles what is in flight and heals nothing; a failed
# follower fsync fails its batches and under-replicates the next append),
# eight concurrent pushers on one durable partition, one seeded session
# storing the same bytes under every fsync policy (standalone and clustered,
# healthy and with a faulty log), no goroutine left behind by a crashed
# durable session, the frontier checkpoint in json.Marshal's exact bytes (a
# session's, and after every step of a seeded random sequence of puts,
# re-executions, graph moves and blob changes), what the checkpoint adds to a
# reconstruction when unflushed batches died, the WAL recovery corpus, a
# frame whose metadata does not fill its payload read as torn, the
# windowed reader against the keeping one over its corpus, the
# records a log's replay lent surviving its appends, rotation and close, the
# cluster's read view (shared from the leaders' documents, apart from the
# cluster once taken, through a restart's truncation too), a
# partition sharing another's events, a partition serving what it stored
# (live, shared, truncated, post-mortem), and the
# paged document store against a plain slice. The allocation pins of the lean
# writer, of a log's open (one 64 KiB window, whatever the segments' sizes),
# of a durable partition's append,
# of a rewritten checkpoint (and its count of members encoded: only the tasks
# put since the last write), of the read view and of the paged store run
# without -race, which allocates on its own. Then one
# iteration of the durable quorum-append benchmark, so it cannot go
# uncompiled.
durable:
	$(GO) test -race -count=1 -run 'TestCommitWaitsForFsync|TestWaitShippedSealsNothing|TestFailedFsyncPoisonsLog|TestQuorumAckIsPipelined|TestKillSettlesInFlightQuorum|TestFailedFollowerFsyncFailsQuorum|TestConcurrentPushBatchKeepsOrder|FuzzWALRecover|TestShortMetadataFrameIsTorn|FuzzSegmentWindow|TestReplayedRecordsOutliveTheOpen' ./internal/mofka/wal/
	$(GO) test -race -count=1 -run 'TestSyncPolicyLeavesSameBytes|TestCrashedSessionsLeaveNoGoroutines' ./internal/core/
	$(GO) test -race -count=1 -run 'TestCheckpointEncodingMatchesJSON|TestCheckpointEveryTickMatchesJSON|TestCheckpointSuppliesWhatUnflushedBatchesLost|FuzzSidecars' ./internal/resume/
	$(GO) test -race -count=1 -run 'TestReadViewMatchesCluster' ./internal/mofka/cluster/
	$(GO) test -race -count=1 -run 'TestShareFromKeepsItsOwnIndex|TestPartitionRoundTrip' ./internal/mofka/
	$(GO) test -race -count=1 -run 'TestCollectionMatchesSliceModelProperty' ./internal/mochi/yokan/
	$(GO) test -count=1 -run 'TestOpenDurableBrokerAllocatesLittle|TestAppendBatchAllocatesNothing|TestOpenReadsThroughOneBuffer' ./internal/mofka/wal/
	$(GO) test -count=1 -run 'TestCheckpointAllocationsIndependentOfFrontier|TestCheckpointRewriteEncodesOnlyWhatChanged' ./internal/resume/
	$(GO) test -count=1 -run 'TestReadViewAllocatesPerPage' ./internal/mofka/cluster/
	$(GO) test -count=1 -run 'TestAdmissionReadsAndAllocatesPerBatch' ./internal/mofka/
	$(GO) test -count=1 -run 'TestCollectionAllocatesPerPage' ./internal/mochi/yokan/
	$(GO) test -run '^$$' -bench 'BenchmarkClusterPushBatch/brokers=3/rf=2/sync-batch' -benchtime 1x ./internal/mofka/cluster/

# Simulator host-cost gate, uncached and not under -race (which allocates on
# its own): a simulated message costs no malloc — a recycled kernel timer, a
# transfer through its latency hop and the receiving NIC, the free-keys
# broadcast — nor does a task's round trip (assign, fetch, execute, finish;
# bar its wTask slab) or a POSIX read and write striped over two OSTs; a
# process started on a kernel with an idle one costs its body closure,
# registering a graph costs its slab and arenas and no malloc per task;
# building a graph costs its task bodies' closures and no other malloc per
# task (Add keeps copies of the spec and its slices, a key interned from a
# buffer keeps its bytes), Finalize makes two mallocs whatever the task
# count and names the first task in Add order that misses a dependency, and
# each paper workflow's graphs build and finalize inside their mallocs per
# task; a collection-off imageprocessing session stays inside its mallocs per task,
# a stale resume of a finished process panics by name, the kernel against
# its sort-by-(time, sequence) model with recycled and owned events
# interleaved, a degraded link slows its own direction only and clears, and
# a striped PFS operation submits in stripe order. Then one
# iteration of each kernel benchmark, so a signature change cannot leave them
# uncompiled.
simcost:
	$(GO) test -count=1 -run 'TestKernelAllocBudget|TestProcAllocBudget|TestProcStaleResumePanics|TestKernelOrderProperty|TestKernelCloseUnwindsParkedProcs|TestSharedServerGoldenTrace' ./internal/sim/
	$(GO) test -count=1 -run 'TestTransferAllocatesNothing|TestSetLinkFactorSlowsOneDirection' ./internal/platform/
	$(GO) test -count=1 -run 'TestStripedFanoutSubmitsInStripeOrder' ./internal/pfs/
	$(GO) test -count=1 -run 'TestPFSOpAllocatesNothing' ./internal/posixio/
	$(GO) test -count=1 -run 'TestFreeKeysBroadcastAllocatesNothing|TestTaskRoundTripAllocatesNothing|TestRegisterGraphAllocatesPerGraph|TestGraphAddCopiesSpec|TestGraphKeyInterns|TestFinalizeAllocatesLinearly|TestGraphMissingDepNamesFirstInAddOrder' ./internal/dask/
	$(GO) test -count=1 -run 'TestSimOnlyAllocBudget|TestGraphBuildAllocBudget' ./internal/workloads/
	$(GO) test -run '^$$' -bench 'BenchmarkProcSwitch|BenchmarkKernelEventThroughput|BenchmarkSharedServer' -benchtime 1x ./internal/sim/

# Collection host-cost gate, uncached and not under -race (which allocates on
# its own): the collector's mallocs per event, the recovery warning of a
# producer that drains during the final Flush shipped whatever the map order,
# a collection-on imageprocessing session inside its mallocs per task (no
# end-of-run analysis), the broker's one admission pass — no malloc per event
# on a sample of every topic, Partition.Append of a default batch at its
# pinned count, the whole batch refused for one invalid event, a payload
# refused before anything is stored, encoding/json's stored form for what is
# not in it, a partition serving exactly that form, the pass against
# json.Valid over its seed corpus, a quorum append to a 3-broker RF2 cluster
# admitting its batch once (one arena and one documents slice in all, which
# every replica stores), and a
# Darshan log written and read back with no malloc per word. Then one
# iteration of the admission benchmark, so it cannot go uncompiled.
collectcost:
	$(GO) test -count=1 -run 'TestCollectorAllocationBudget|TestFlushShipsRecoveryWarning' ./internal/core/
	$(GO) test -count=1 -run 'TestCollectOnAllocBudget' ./internal/workloads/
	$(GO) test -count=1 -run 'TestLogCodecAllocationsDoNotGrowWithSegments|TestBinaryRoundTrip' ./internal/darshan/
	$(GO) test -count=1 -run 'TestAdmissionReadsAndAllocatesPerBatch|TestAppendRejectsInvalidMetadata|TestPayloadRefused|TestAppendStoresCompactedMetadata|TestPartitionRoundTrip|FuzzAdmission' ./internal/mofka/
	$(GO) test -count=1 -run 'TestQuorumAppendAdmitsOnce|TestFollowerStoresLeaderDocuments|TestInvalidBatchStoresNothing' ./internal/mofka/cluster/
	$(GO) test -count=1 -run 'TestClusterHealedFollowerLogEqualsLeader' ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkAdmit' -benchtime 1x ./internal/mofka/

# What-if validation: self-replay of the unchanged scenario on the seeded
# ImageProcessing and xgboost runs must predict the measured makespan within
# +/-10%, the critical path must attribute >=95% of it to named categories,
# slack must not depend on the order of the model's tasks, and the report
# must render byte-identically across live/WAL/post-mortem loads.
whatif:
	$(GO) test -count=1 -run 'TestSelfReplayValidation|TestCriticalPathAttribution|TestSlackIndependentOfTaskOrder' ./internal/whatif/
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
# recovery and must keep exactly the valid frame prefix. WAL window: the
# reader that keeps nothing, through a window shrunk to a few bytes, reads
# the records, valid prefix and torn-or-clean outcome the keeping reader
# does, in a newest segment and an older one. Event codec:
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
# calls stored exactly what json.Compact + json.HTMLEscape leave alone, a
# partition refuses the rest and any event offered with a payload, and serves
# what it accepts in that form, through a share and a truncation too. Data dir sidecars (checkpoint.json, attempts.json,
# cluster.json): loading them and reconstructing a resume state over them
# never panics or spins on a number the file supplied. Log service requests
# (the four RPCs over a broker holding a topic, the only log mofkad serves):
# no body panics a handler, draws an answer that is not JSON or is accepted
# when its request type does not decode it, and the broker still reads the
# same events afterwards.
fuzz:
	$(GO) test -run 'FuzzWALRecover' ./internal/mofka/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzWALRecover' -fuzztime 20s ./internal/mofka/wal/
	$(GO) test -run 'FuzzSegmentWindow' ./internal/mofka/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzSegmentWindow' -fuzztime 20s ./internal/mofka/wal/
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
verify: tier1 lint reach identity race chaos cluster property resume readpath durable simcost collectcost fuzz whatif speculate
