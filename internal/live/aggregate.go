// Package live is the streaming counterpart to PERFRECUP: it attaches to the
// Mofka provenance topics while a run is still in flight, maintains
// incremental windowed aggregates (per-task-group throughput and duration
// quantiles, task-state occupancy, per-worker I/O and transfer volume,
// warning rates), and flags anomalies online — stragglers, event-loop
// unresponsiveness streaks, worker I/O-bandwidth collapse — emitting them
// back into an `anomalies` Mofka topic so they are themselves provenance.
//
// The correctness anchor is the live/post-mortem equivalence invariant: for
// any completed run, the monitor's final Summary must equal the post-mortem
// PERFRECUP views over the same artifacts. perfrecup.Phases therefore
// delegates to this package (see perfrecup.LiveReplay; Phases replays only
// PhaseTopics through the same loop), so there is exactly one
// implementation of the aggregate definitions.
//
// Determinism despite streaming: the monitor and the replay hand the
// aggregator each topic in one order (mofka.Topic.ChunksFrom's, see
// Monitor) through one chunk path (chunkReader), and each piece of state
// whose result depends on order is fed by one topic — the straggler fit and
// window compute sums by executions, the streak detector by warnings, the
// collapse detector by the Darshan logs in rank order. Across topics, and across partitions, nothing
// depends on order: integer counters commute, every float accumulator is
// kept per (topic, partition) "lane" and lanes are merged in sorted key order
// at Snapshot, per-group duration statistics come from sorted copies of the
// sample sets, and timelines and anomalies are sorted.
package live

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"taskprov/internal/darshan"
	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/whatif"
)

// AggregatorOptions tunes the streaming aggregation.
type AggregatorOptions struct {
	// DisableAnomalies turns the online detectors off.
	DisableAnomalies bool

	// recoveryEventCap bounds the retained recovery timeline (worker-lost,
	// task-rescheduled, key-recomputed, … events) and the cluster-health
	// lane; past the cap new events are dropped from them but still counted
	// in Warnings. critPathTaskCap bounds the per-task records (durations,
	// dependency lists) backing the CriticalPathSeconds lane; past the cap
	// new tasks stop contributing and the lane becomes a lower bound over the
	// retained prefix. Defaults 4096 and 1<<20; only this package's tests set
	// them.
	recoveryEventCap int
	critPathTaskCap  int
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.recoveryEventCap <= 0 {
		o.recoveryEventCap = 4096
	}
	if o.critPathTaskCap <= 0 {
		o.critPathTaskCap = 1 << 20
	}
	return o
}

const (
	// WindowSeconds is the width of one live time window (sim clock), and of
	// a session's sweep period; windowCount how many trailing windows the
	// ring keeps.
	WindowSeconds = 10.0
	windowCount   = 6
	// groupSampleCap bounds the per-group duration sample set used for
	// quantiles. Past the cap new samples are dropped (Count keeps counting;
	// GroupStats.Sampled records how many samples back the quantiles).
	groupSampleCap = 1 << 20
)

// GroupStats summarizes the duration distribution of one task group. Tasks
// are grouped by dask.KeyPrefix — the same grouping perfrecup's per-prefix
// views use — so simple keys like "imread-0007" collapse into "imread"
// rather than forming one-sample groups, which is what makes per-group
// quantiles and the straggler detector's MAD baseline meaningful.
type GroupStats struct {
	Count        int64   `json:"count"`
	Sampled      int64   `json:"sampled"` // samples backing the quantiles
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	P50Seconds   float64 `json:"p50_seconds"`
	P90Seconds   float64 `json:"p90_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
	// Throughput is tasks finished per wall-clock second (0 until the
	// wall time is known).
	Throughput float64 `json:"throughput"`
}

// WorkerStats aggregates the provenance stream per worker.
type WorkerStats struct {
	Tasks            int64   `json:"tasks"`
	ExecSeconds      float64 `json:"exec_seconds"`
	TransferInBytes  int64   `json:"transfer_in_bytes"`
	TransferOutBytes int64   `json:"transfer_out_bytes"`
	Warnings         int64   `json:"warnings"`
}

// RecoveryEvent is one entry of the failure/recovery timeline: a warning
// whose kind is a recovery action (dask.WarningKind.IsRecovery).
type RecoveryEvent struct {
	At      float64 `json:"at"` // virtual seconds
	Kind    string  `json:"kind"`
	Worker  string  `json:"worker,omitempty"`
	Message string  `json:"message,omitempty"`
}

// ProxyStats aggregates the pass-by-reference data-plane topic: the proxy
// store's blob lifecycle (publish, resolve, miss, free, reclaim — see
// internal/proxystore) plus the store's resident footprint. ResidentBytes is
// reconstructed as a pure delta sum (published minus freed/reclaimed bytes),
// and PeakResidentBytes as a max over per-event snapshots — both commute, so
// the lane is deterministic regardless of partition consumption order.
type ProxyStats struct {
	Publishes int64 `json:"publishes"`
	Resolves  int64 `json:"resolves"` // reference hits (demand-fetch completed)
	Misses    int64 `json:"misses"`   // dangling references (owner crashed)
	Frees     int64 `json:"frees"`    // refcount drains and scheduler frees
	Reclaims  int64 `json:"reclaims"` // blobs swept when their owner died

	PublishedBytes int64 `json:"published_bytes"`
	ResolvedBytes  int64 `json:"resolved_bytes"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`

	ResidentBytes     int64 `json:"resident_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`

	// ResolveSeconds is the summed demand-to-arrival latency across
	// resolves; MeanResolveSeconds divides by Resolves.
	ResolveSeconds     float64 `json:"resolve_seconds"`
	MeanResolveSeconds float64 `json:"mean_resolve_seconds"`
}

// SpeculationStats aggregates the speculation provenance topic, the hedged
// execution lane: duplicate attempts launched, winners, cancelled and failed
// losers, promotions. A kind no build emits any more (an older log's
// "retry") counts in none of them. Counters commute; WastedSeconds — the
// virtual time cancelled losing attempts had been running — is summed per
// (topic, partition) lane so the figure is deterministic regardless of
// consumption order.
type SpeculationStats struct {
	Launched  int64 `json:"launched"`
	Won       int64 `json:"won"`
	Cancelled int64 `json:"cancelled"`
	Failed    int64 `json:"failed"`
	Promoted  int64 `json:"promoted"`

	// WastedSeconds is the summed runtime of losing attempts at the moment
	// they were cancelled — the price paid for hedging.
	WastedSeconds float64 `json:"wasted_seconds"`
}

// HostIOStats aggregates Darshan POSIX counters per hostname (Darshan logs
// are keyed by host, not by WMS worker name — the paper fuses the two layers
// on hostname).
type HostIOStats struct {
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
	BytesRead    int64   `json:"bytes_read"`
	BytesWritten int64   `json:"bytes_written"`
	ReadTime     float64 `json:"read_time"`
	WriteTime    float64 `json:"write_time"`
	// BandwidthBps is (BytesRead+BytesWritten)/(ReadTime+WriteTime), 0
	// when no I/O time was recorded.
	BandwidthBps float64 `json:"bandwidth_bps"`
}

// Summary is one consistent snapshot of the live aggregates. For a completed
// run every field equals the post-mortem replay's.
type Summary struct {
	Workflow    string  `json:"workflow,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	ThreadSlots int     `json:"thread_slots"`

	Events      int64 `json:"events"` // provenance events ingested
	Tasks       int64 `json:"tasks"`
	Submitted   int64 `json:"submitted"`
	Transitions int64 `json:"transitions"`
	Transfers   int64 `json:"transfers"`
	GraphsDone  int64 `json:"graphs_done"`

	TransferBytes int64 `json:"transfer_bytes"`
	IOOps         int64 `json:"io_ops"`
	IOBytes       int64 `json:"io_bytes"`

	// CriticalPathSeconds is the heaviest dependency chain of task
	// execution time over the events received so far — a live lower bound
	// on the run's makespan that tightens as the run progresses (see
	// whatif.LongestChainSeconds). Computed at snapshot time as a pure
	// function of the retained record set, so partition consumption order
	// cannot change it.
	CriticalPathSeconds float64 `json:"critical_path_seconds"`

	// Raw cumulative phase sums and their per-thread-slot averages,
	// matching perfrecup.PhaseBreakdown exactly (ComputeSeconds is exec
	// minus I/O, clamped at zero, divided by ThreadSlots).
	RawIOSeconds   float64 `json:"raw_io_seconds"`
	RawCommSeconds float64 `json:"raw_comm_seconds"`
	RawExecSeconds float64 `json:"raw_exec_seconds"`
	IOSeconds      float64 `json:"io_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`

	// StateOccupancy is the current number of tasks in each scheduler
	// state (Fig. 4's phase breakdown computed online): each transition
	// decrements its from-state and increments its to-state. Zero-count
	// states are omitted.
	StateOccupancy map[string]int `json:"state_occupancy,omitempty"`

	Groups   map[string]GroupStats  `json:"groups,omitempty"`
	Workers  map[string]WorkerStats `json:"workers,omitempty"`
	HostIO   map[string]HostIOStats `json:"host_io,omitempty"`
	Warnings map[string]int         `json:"warnings,omitempty"`
	// WarningRates is warnings per kind per wall-clock second (0 until
	// the wall time is known).
	WarningRates map[string]float64 `json:"warning_rates,omitempty"`

	// Recovery is the failure/recovery timeline, sorted by (At, Kind,
	// Worker, Message) so it is identical for live and post-mortem replays
	// regardless of partition consumption order. Capped at 4096 events.
	Recovery []RecoveryEvent `json:"recovery,omitempty"`

	// ClusterHealth is the Mofka cluster's replication/failover lane:
	// warnings whose kind carries the "cluster_" prefix (broker dead,
	// leader elected, catch-up, under-replication, group rebalance; see
	// internal/mofka/cluster). Sorted like Recovery, capped like it, empty
	// for single-broker runs.
	ClusterHealth []RecoveryEvent `json:"cluster_health,omitempty"`

	// Proxy is the pass-by-reference data-plane lane; nil when the run
	// streamed no proxy-store events (direct transfers only).
	Proxy *ProxyStats `json:"proxy,omitempty"`

	// Speculation is the hedged-execution lane; nil when the run streamed no
	// speculation events.
	Speculation *SpeculationStats `json:"speculation,omitempty"`

	// ConsumerLag is the monitoring consumer's own backlog per
	// "topic/partition" — events appended but not yet ingested. Zero
	// entries are omitted; a fully drained monitor reports none. Set by
	// Monitor snapshots, never by post-mortem replays (which are always
	// fully drained).
	ConsumerLag map[string]uint64 `json:"consumer_lag,omitempty"`

	Windows []WindowSnapshot `json:"windows,omitempty"`
	// Anomalies is every finding of the online detectors, sorted by (At,
	// Kind, Subject, Detail, Value) — not in the order they were raised.
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// laneKey identifies one per-(topic, partition) float accumulator lane.
type laneKey struct {
	topic string
	part  int
}

// lane holds the float sums whose addition order matters. One lane per
// (topic, partition); merged in sorted key order at Snapshot.
type lane struct {
	commSeconds    float64
	execSeconds    float64
	resolveSeconds float64 // proxy demand-to-arrival latency sums
	wastedSeconds  float64 // cancelled speculative attempts' runtime sums
	workerExec     map[string]*float64
}

// groupAcc accumulates one task group's duration samples.
type groupAcc struct {
	count   int64
	samples []float64
}

// Aggregator maintains the streaming aggregates. Safe for concurrent use:
// one or more ingesters may feed it while snapshot readers observe it.
//
// The records it is fed borrow the bytes they were decoded from
// (provenance.Decoder), which its caller may drop or reuse once the event is
// ingested, so a name it keeps is a copy, made when the name is kept: a map
// key on insert, a warning's kind and worker, an anomaly's subject
// (strings.Clone), and the task keys of the critical-path lane (keep). A map
// it writes with a name has pointer values, or is written with a copy: Go
// stores the key an assignment is given even over an equal one already
// there. Looking a borrowed name up allocates nothing.
type Aggregator struct {
	mu   sync.Mutex
	opts AggregatorOptions

	workflow    string
	seed        uint64
	wall        float64
	threadSlots int

	events      int64
	tasks       int64
	submitted   int64
	transitions int64
	transfers   int64
	graphsDone  int64

	transferBytes int64
	ioOps         int64
	ioBytes       int64

	lanes     map[laneKey]*lane
	occupancy map[string]*int
	groups    map[string]*groupAcc
	workers   map[string]*WorkerStats
	hostIO    map[string]*HostIOStats
	warnings  map[string]int

	// critDur/critDeps back the CriticalPathSeconds lane: per-task
	// execution duration (max-combined, so re-executions commute) and
	// dependency lists, both capped at critPathTaskCap. Their task keys are
	// copies cut from names (keep).
	critDur  map[string]float64
	critDeps map[string][]string
	names    []byte

	// proxy holds the integer counters of the proxy-store lane (nil until
	// the first proxy event); its float ResolveSeconds lives in the lanes.
	proxy *ProxyStats

	// spec holds the integer counters of the speculation lane (nil until the
	// first speculation event); its float WastedSeconds lives in the lanes.
	spec *SpeculationStats

	recovery []RecoveryEvent
	cluster  []RecoveryEvent

	windows   *windowRing
	detect    *detectors
	anomalies []Anomaly
	// subs is replaced on every change, never edited in place, so raise can
	// walk the slice it read after letting go of the lock.
	subs []*func(Anomaly)
}

// NewAggregator builds an empty aggregator.
func NewAggregator(opts AggregatorOptions) *Aggregator {
	opts = opts.withDefaults()
	a := &Aggregator{
		opts:      opts,
		lanes:     make(map[laneKey]*lane),
		occupancy: make(map[string]*int),
		groups:    make(map[string]*groupAcc),
		workers:   make(map[string]*WorkerStats),
		hostIO:    make(map[string]*HostIOStats),
		warnings:  make(map[string]int),
		critDur:   make(map[string]float64),
		critDeps:  make(map[string][]string),
		windows:   newWindowRing(WindowSeconds, windowCount),
	}
	a.detect = newDetectors(opts.DisableAnomalies)
	return a
}

// OnAnomaly registers fn to be called (with the aggregator unlocked) for
// every anomaly the detectors raise. Must be called before ingestion starts.
func (a *Aggregator) OnAnomaly(fn func(Anomaly)) { a.subscribe(&fn) }

func (a *Aggregator) subscribe(fn *func(Anomaly)) {
	a.mu.Lock()
	a.subs = append(a.subs[:len(a.subs):len(a.subs)], fn)
	a.mu.Unlock()
}

// SubscribeAnomalies returns a buffered channel carrying every anomaly
// raised from now on, and the function that ends the subscription; slow
// receivers lose anomalies rather than stalling ingestion.
func (a *Aggregator) SubscribeAnomalies() (<-chan Anomaly, func()) {
	ch := make(chan Anomaly, 64)
	send := func(an Anomaly) {
		select {
		case ch <- an:
		default:
		}
	}
	a.subscribe(&send)
	return ch, func() {
		a.mu.Lock()
		a.subs = slices.DeleteFunc(slices.Clone(a.subs), func(fn *func(Anomaly)) bool { return fn == &send })
		a.mu.Unlock()
	}
}

// SetMeta records run identity and the thread-slot divisor used for the
// per-slot phase averages (nodes × workers/node × threads/worker).
func (a *Aggregator) SetMeta(workflow string, seed uint64, threadSlots int) {
	a.mu.Lock()
	a.workflow, a.seed, a.threadSlots = workflow, seed, threadSlots
	a.mu.Unlock()
}

// SetWall records the run's wall time, enabling throughput and rate figures.
func (a *Aggregator) SetWall(seconds float64) {
	a.mu.Lock()
	a.wall = seconds
	a.mu.Unlock()
}

func (a *Aggregator) lane(topic string, part int) *lane {
	k := laneKey{topic, part}
	l := a.lanes[k]
	if l == nil {
		l = &lane{workerExec: make(map[string]*float64)}
		a.lanes[k] = l
	}
	return l
}

func (a *Aggregator) worker(name string) *WorkerStats {
	w := a.workers[name]
	if w == nil {
		w = &WorkerStats{}
		a.workers[strings.Clone(name)] = w
	}
	return w
}

// namesChunk is the size of the chunks keep copies names into.
const namesChunk = 16 << 10

// keep returns a copy of name for the critical-path lane, which keeps a
// name or more per task: copies are cut from chunks of namesChunk bytes, so
// keeping a run's task keys costs an allocation per chunk, not per key. A
// chunk is only appended to, never rewritten, and lives as long as a copy
// cut from it.
func (a *Aggregator) keep(name string) string {
	if name == "" {
		return ""
	}
	if len(name) > cap(a.names)-len(a.names) {
		a.names = make([]byte, 0, max(namesChunk, len(name)))
	}
	start := len(a.names)
	a.names = append(a.names, name...)
	return unsafe.String(&a.names[start], len(name))
}

// add adds d to the sum m keeps for name, copying name the first time.
func add[V int | float64](m map[string]*V, name string, d V) {
	p := m[name]
	if p == nil {
		p = new(V)
		m[strings.Clone(name)] = p
	}
	*p += d
}

// PhaseTopics lists the topics Summary's phase fields are computed from.
// With the Darshan logs and the run's meta they determine IOSeconds,
// CommSeconds, ComputeSeconds (and their Raw sums), Tasks, Transfers, IOOps
// and ThreadSlots: ingestExecution and ingestTransfer are the only handlers
// that touch those fields or the execSeconds/commSeconds lanes, so a replay
// of these topics alone (ReplayTopics) gives them exactly.
func PhaseTopics() []string {
	return []string{provenance.TopicExecutions, provenance.TopicTransfers}
}

// handler pairs a topic's decode with its per-record handler, which runs with
// a.mu held and returns what the detectors raised. A topic that is only
// counted has no apply.
type handler[T any] struct {
	decode func(*provenance.Decoder, []byte) (T, error)
	apply  func(a *Aggregator, partition int, rec T) []Anomaly
}

var (
	transitionHandler = handler[dask.Transition]{(*provenance.Decoder).Transition,
		func(a *Aggregator, _ int, t dask.Transition) []Anomaly { a.ingestTransition(t); return nil }}
	executionHandler = handler[dask.TaskExecution]{(*provenance.Decoder).Execution,
		(*Aggregator).ingestExecution}
	transferHandler = handler[dask.Transfer]{(*provenance.Decoder).Transfer,
		func(a *Aggregator, part int, t dask.Transfer) []Anomaly { a.ingestTransfer(part, t); return nil }}
	warningHandler = handler[dask.Warning]{(*provenance.Decoder).Warning,
		func(a *Aggregator, _ int, w dask.Warning) []Anomaly { return a.ingestWarning(w) }}
	proxyHandler = handler[dask.ProxyEvent]{(*provenance.Decoder).ProxyEvent,
		func(a *Aggregator, part int, e dask.ProxyEvent) []Anomaly { a.ingestProxy(part, e); return nil }}
	speculationHandler = handler[dask.SpeculationEvent]{(*provenance.Decoder).Speculation,
		func(a *Aggregator, part int, e dask.SpeculationEvent) []Anomaly {
			a.ingestSpeculation(part, e)
			return nil
		}}
	taskMetaHandler = handler[dask.TaskMeta]{(*provenance.Decoder).TaskMeta,
		func(a *Aggregator, _ int, tm dask.TaskMeta) []Anomaly { a.ingestTaskMeta(tm); return nil }}
	graphHandler = handler[provenance.GraphEvent]{(*provenance.Decoder).GraphEvent,
		func(a *Aggregator, _ int, g provenance.GraphEvent) []Anomaly { a.ingestGraphEvent(g.Event); return nil }}
	// countedHandler still walks the event with the codec's cursor, so a
	// malformed one is refused on a topic that is only counted too.
	countedHandler = handler[struct{}]{func(x *provenance.Decoder, b []byte) (struct{}, error) {
		return struct{}{}, x.Validate(b)
	}, nil}
)

// readerOf returns a new reader of topic, the one way its events reach the
// aggregates (see chunkReader).
func readerOf(topic string) chunkReader {
	switch topic {
	case provenance.TopicTransitions:
		return newReader(topic, transitionHandler)
	case provenance.TopicExecutions:
		return newReader(topic, executionHandler)
	case provenance.TopicTransfers:
		return newReader(topic, transferHandler)
	case provenance.TopicWarnings:
		return newReader(topic, warningHandler)
	case provenance.TopicProxy:
		return newReader(topic, proxyHandler)
	case provenance.TopicSpeculation:
		return newReader(topic, speculationHandler)
	case provenance.TopicTaskMeta:
		return newReader(topic, taskMetaHandler)
	case provenance.TopicGraphs:
		return newReader(topic, graphHandler)
	}
	return newReader(topic, countedHandler)
}

// IngestEvent feeds one event already decoded into the map API. It survives
// only because bench/e2e compiles against it (DESIGN §14): nothing in the
// program calls it, and it holds no aggregation rule of its own — Parse<T>
// and the per-record handlers the chunk path applies.
func (a *Aggregator) IngestEvent(topic string, partition int, m mofka.Metadata) {
	a.mu.Lock()
	a.events++
	var raised []Anomaly
	switch topic {
	case provenance.TopicTransitions:
		a.ingestTransition(provenance.ParseTransition(m))
	case provenance.TopicExecutions:
		raised = a.ingestExecution(partition, provenance.ParseExecution(m))
	case provenance.TopicTransfers:
		a.ingestTransfer(partition, provenance.ParseTransfer(m))
	case provenance.TopicWarnings:
		raised = a.ingestWarning(provenance.ParseWarning(m))
	case provenance.TopicProxy:
		a.ingestProxy(partition, provenance.ParseProxyEvent(m))
	case provenance.TopicSpeculation:
		a.ingestSpeculation(partition, provenance.ParseSpeculationEvent(m))
	case provenance.TopicTaskMeta:
		a.ingestTaskMeta(provenance.ParseTaskMeta(m))
	case provenance.TopicGraphs:
		a.ingestGraphEvent(provenance.Str(m, "event"))
	}
	a.raise(raised)
}

// raise closes an ingest step begun with a.mu.Lock(): it records the
// anomalies the step raised, unlocks, and notifies the subscribers with the
// aggregator unlocked.
func (a *Aggregator) raise(raised []Anomaly) {
	a.anomalies = append(a.anomalies, raised...)
	subs := a.subs
	a.mu.Unlock()
	for _, an := range raised {
		for _, fn := range subs {
			(*fn)(an)
		}
	}
}

// The per-record handlers below run with a.mu held, after the caller counted
// the event; the two that feed a detector return what it raised.

func (a *Aggregator) ingestTransition(t dask.Transition) {
	a.transitions++
	if f := string(t.From); f != "" {
		add(a.occupancy, f, -1)
	}
	if to := string(t.To); to != "" {
		add(a.occupancy, to, 1)
	}
}

func (a *Aggregator) ingestExecution(partition int, e dask.TaskExecution) []Anomaly {
	dur := (e.Stop - e.Start).Seconds()
	a.tasks++
	l := a.lane(provenance.TopicExecutions, partition)
	l.execSeconds += dur
	add(l.workerExec, e.Worker, dur)
	a.worker(e.Worker).Tasks++
	g := dask.KeyPrefix(e.Key)
	acc := a.groups[g]
	if acc == nil {
		acc = &groupAcc{}
		a.groups[strings.Clone(g)] = acc
	}
	acc.count++
	if len(acc.samples) < groupSampleCap {
		acc.samples = append(acc.samples, dur)
	}
	key := string(e.Key)
	if prev, ok := a.critDur[key]; ok || len(a.critDur) < a.opts.critPathTaskCap {
		// Max-combine so a re-executed task (worker crash) contributes
		// its longest attempt regardless of arrival order.
		if dur > prev {
			a.critDur[a.keep(key)] = dur
		}
	}
	stop := e.Stop.Seconds()
	if b := a.windows.bucket(stop); b != nil {
		b.TasksFinished++
		b.ComputeSeconds += dur
	}
	return a.detect.onDuration(g, dur, stop)
}

func (a *Aggregator) ingestTransfer(partition int, t dask.Transfer) {
	a.transfers++
	a.transferBytes += t.Bytes
	a.lane(provenance.TopicTransfers, partition).commSeconds += (t.Stop - t.Start).Seconds()
	a.worker(t.From).TransferOutBytes += t.Bytes
	a.worker(t.To).TransferInBytes += t.Bytes
	if b := a.windows.bucket(t.Stop.Seconds()); b != nil {
		b.Transfers++
		b.TransferBytes += t.Bytes
	}
}

func (a *Aggregator) ingestWarning(w dask.Warning) []Anomaly {
	// The kind is kept in several maps and timelines, so it is copied once;
	// warnings are few. The message is the decoder's copy already.
	kind := strings.Clone(string(w.Kind))
	a.warnings[kind]++
	a.worker(w.Worker).Warnings++
	at := w.At.Seconds()
	if w.Kind.IsRecovery() && len(a.recovery) < a.opts.recoveryEventCap {
		a.recovery = append(a.recovery, RecoveryEvent{
			At: at, Kind: kind, Worker: strings.Clone(w.Worker), Message: w.Message,
		})
	}
	if strings.HasPrefix(kind, "cluster_") && len(a.cluster) < a.opts.recoveryEventCap {
		a.cluster = append(a.cluster, RecoveryEvent{
			At: at, Kind: kind, Worker: strings.Clone(w.Worker), Message: w.Message,
		})
	}
	a.windows.addWarning(at, kind)
	return a.detect.onWarning(kind, w.Worker, at)
}

func (a *Aggregator) ingestProxy(partition int, e dask.ProxyEvent) {
	if a.proxy == nil {
		a.proxy = &ProxyStats{}
	}
	p := a.proxy
	switch e.Op {
	case dask.ProxyOpPublish:
		p.Publishes++
		p.PublishedBytes += e.Bytes
		p.ResidentBytes += e.Bytes
	case dask.ProxyOpResolve:
		p.Resolves++
		p.ResolvedBytes += e.Bytes
		a.lane(provenance.TopicProxy, partition).resolveSeconds += e.ResolveLatency.Seconds()
	case dask.ProxyOpMiss:
		p.Misses++
	case dask.ProxyOpFree:
		p.Frees++
		p.ResidentBytes -= e.Bytes
	case dask.ProxyOpReclaim:
		p.Reclaims++
		p.ReclaimedBytes += e.Bytes
		p.ResidentBytes -= e.Bytes
	}
	if e.Resident > p.PeakResidentBytes {
		p.PeakResidentBytes = e.Resident
	}
}

func (a *Aggregator) ingestSpeculation(partition int, e dask.SpeculationEvent) {
	if a.spec == nil {
		a.spec = &SpeculationStats{}
	}
	switch e.Kind {
	case dask.SpecLaunched:
		a.spec.Launched++
	case dask.SpecWon:
		a.spec.Won++
	case dask.SpecCancelled:
		a.spec.Cancelled++
	case dask.SpecFailed:
		a.spec.Failed++
	case dask.SpecPromoted:
		a.spec.Promoted++
	}
	if e.Wasted > 0 {
		a.lane(provenance.TopicSpeculation, partition).wastedSeconds += e.Wasted.Seconds()
	}
}

func (a *Aggregator) ingestTaskMeta(tm dask.TaskMeta) {
	a.submitted++
	if _, ok := a.critDeps[string(tm.Key)]; !ok && len(tm.Deps) > 0 && len(a.critDeps) < a.opts.critPathTaskCap {
		deps := make([]string, len(tm.Deps))
		for i, d := range tm.Deps {
			deps[i] = a.keep(string(d))
		}
		a.critDeps[a.keep(string(tm.Key))] = deps
	}
}

// ingestGraphEvent takes a graph lifecycle event, of which only "done" is
// aggregated.
func (a *Aggregator) ingestGraphEvent(event string) {
	if event == "done" {
		a.graphsDone++
	}
}

// IngestDarshanLog folds one per-worker Darshan log into the I/O aggregates:
// POSIX counters into the per-host totals, DXT segments into the windows and
// the bandwidth-collapse detector. Logs may be ingested in any order.
func (a *Aggregator) IngestDarshanLog(l *darshan.Log) {
	a.mu.Lock()
	var raised []Anomaly
	host := l.Job.Hostname
	h := a.hostIO[host]
	if h == nil {
		h = &HostIOStats{}
		a.hostIO[host] = h
	}
	for _, rec := range l.Records {
		h.Reads += rec.Counters.Reads
		h.Writes += rec.Counters.Writes
		h.BytesRead += rec.Counters.BytesRead
		h.BytesWritten += rec.Counters.BytesWritten
		h.ReadTime += rec.Counters.ReadTime
		h.WriteTime += rec.Counters.WriteTime
		a.ioOps += rec.Counters.Reads + rec.Counters.Writes
		a.ioBytes += rec.Counters.BytesRead + rec.Counters.BytesWritten
		for _, s := range rec.DXT {
			raised = append(raised, a.ingestIOSegmentLocked(host, s.Length, s.End)...)
		}
	}
	a.raise(raised)
}

func (a *Aggregator) ingestIOSegmentLocked(worker string, bytes int64, end float64) []Anomaly {
	if b := a.windows.bucket(end); b != nil {
		b.IOOps++
		b.IOBytes += bytes
		if b.WorkerIOBytes == nil {
			b.WorkerIOBytes = make(map[string]int64)
		}
		b.WorkerIOBytes[worker] += bytes
	}
	return a.detect.onIO(worker, bytes, end)
}

// Snapshot returns one consistent copy of the aggregates. Lanes merge in
// sorted key order and group quantiles come from sorted sample copies, so
// the result is independent of the order partitions were consumed in.
func (a *Aggregator) Snapshot() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()

	s := Summary{
		Workflow:    a.workflow,
		Seed:        a.seed,
		WallSeconds: a.wall,
		ThreadSlots: a.threadSlots,

		Events:      a.events,
		Tasks:       a.tasks,
		Submitted:   a.submitted,
		Transitions: a.transitions,
		Transfers:   a.transfers,
		GraphsDone:  a.graphsDone,

		TransferBytes: a.transferBytes,
		IOOps:         a.ioOps,
		IOBytes:       a.ioBytes,
	}

	// Merge float lanes deterministically.
	keys := make([]laneKey, 0, len(a.lanes))
	for k := range a.lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].topic != keys[j].topic {
			return keys[i].topic < keys[j].topic
		}
		return keys[i].part < keys[j].part
	})
	workerExec := make(map[string]float64)
	var resolveSeconds, wastedSeconds float64
	for _, k := range keys {
		l := a.lanes[k]
		s.RawCommSeconds += l.commSeconds
		s.RawExecSeconds += l.execSeconds
		resolveSeconds += l.resolveSeconds
		wastedSeconds += l.wastedSeconds
		for w, v := range l.workerExec {
			workerExec[w] += *v // one lane per (topic,part): inner order free
		}
	}
	if a.proxy != nil {
		p := *a.proxy
		p.ResolveSeconds = resolveSeconds
		if p.Resolves > 0 {
			p.MeanResolveSeconds = p.ResolveSeconds / float64(p.Resolves)
		}
		s.Proxy = &p
	}
	if a.spec != nil {
		sp := *a.spec
		sp.WastedSeconds = wastedSeconds
		s.Speculation = &sp
	}

	// Host I/O totals, merged in sorted host order.
	hosts := sortedKeys(a.hostIO)
	s.HostIO = make(map[string]HostIOStats, len(hosts))
	for _, h := range hosts {
		st := *a.hostIO[h]
		s.RawIOSeconds += st.ReadTime + st.WriteTime
		if t := st.ReadTime + st.WriteTime; t > 0 {
			st.BandwidthBps = float64(st.BytesRead+st.BytesWritten) / t
		}
		s.HostIO[h] = st
	}

	// The paper's phase decomposition (perfrecup.PhaseBreakdown): exec
	// time includes I/O done inside tasks; subtracting gives computation.
	s.IOSeconds = s.RawIOSeconds
	s.CommSeconds = s.RawCommSeconds
	s.ComputeSeconds = s.RawExecSeconds - s.RawIOSeconds
	if s.ComputeSeconds < 0 {
		s.ComputeSeconds = 0
	}
	if s.ThreadSlots > 0 {
		n := float64(s.ThreadSlots)
		s.IOSeconds /= n
		s.CommSeconds /= n
		s.ComputeSeconds /= n
	}

	s.StateOccupancy = make(map[string]int)
	for st, n := range a.occupancy {
		if *n != 0 {
			s.StateOccupancy[st] = *n
		}
	}

	s.Groups = make(map[string]GroupStats, len(a.groups))
	for g, acc := range a.groups {
		gs := GroupStats{Count: acc.count, Sampled: int64(len(acc.samples))}
		if len(acc.samples) > 0 {
			sorted := append([]float64(nil), acc.samples...)
			sort.Float64s(sorted)
			for _, d := range sorted {
				gs.TotalSeconds += d
			}
			gs.MeanSeconds = gs.TotalSeconds / float64(len(sorted))
			gs.MinSeconds = sorted[0]
			gs.MaxSeconds = sorted[len(sorted)-1]
			gs.P50Seconds = quantile(sorted, 0.50)
			gs.P90Seconds = quantile(sorted, 0.90)
			gs.P99Seconds = quantile(sorted, 0.99)
		}
		if a.wall > 0 {
			gs.Throughput = float64(gs.Count) / a.wall
		}
		s.Groups[g] = gs
	}

	s.Workers = make(map[string]WorkerStats, len(a.workers))
	for w, st := range a.workers {
		cp := *st
		cp.ExecSeconds = workerExec[w]
		s.Workers[w] = cp
	}

	s.Warnings = copyIntMap(a.warnings)
	if a.wall > 0 && len(a.warnings) > 0 {
		s.WarningRates = make(map[string]float64, len(a.warnings))
		for k, n := range a.warnings {
			s.WarningRates[k] = float64(n) / a.wall
		}
	}

	if len(a.recovery) > 0 {
		s.Recovery = sortedTimeline(a.recovery)
	}
	if len(a.cluster) > 0 {
		s.ClusterHealth = sortedTimeline(a.cluster)
	}

	// The live makespan lower bound: heaviest dependency chain of the
	// executions seen so far. A pure function of the retained record set —
	// merge order across partitions cannot change it.
	s.CriticalPathSeconds = whatif.LongestChainSeconds(a.critDur, a.critDeps)

	s.Windows = a.windows.snapshot()
	if len(a.anomalies) > 0 {
		s.Anomalies = slices.Clone(a.anomalies)
		slices.SortFunc(s.Anomalies, func(x, y Anomaly) int {
			return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.Kind, y.Kind),
				cmp.Compare(x.Subject, y.Subject), cmp.Compare(x.Detail, y.Detail), cmp.Compare(x.Value, y.Value))
		})
	}
	return s
}

// sortedTimeline copies and sorts a warning-derived timeline by (At, Kind,
// Worker, Message): identical for live and post-mortem replays regardless
// of partition consumption order.
func sortedTimeline(evs []RecoveryEvent) []RecoveryEvent {
	out := slices.Clone(evs)
	slices.SortFunc(out, func(x, y RecoveryEvent) int {
		return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.Kind, y.Kind),
			cmp.Compare(x.Worker, y.Worker), cmp.Compare(x.Message, y.Message))
	})
	return out
}

// quantile interpolates the q-th quantile of an ascending-sorted slice,
// matching perfrecup.Percentile's linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
