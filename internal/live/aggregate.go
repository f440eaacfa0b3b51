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
// delegates to this package (see perfrecup.LiveReplay), so there is exactly
// one implementation of the aggregate definitions.
//
// Determinism despite streaming: a live monitor interleaves partitions in
// whatever order batches arrive, while a post-mortem replay walks them
// sequentially. Integer counters commute, but float addition does not, so
// every float accumulator is kept per (topic, partition) "lane" — within a
// partition event order is fixed — and lanes are merged in sorted key order
// only at Snapshot time. Per-group duration statistics are computed from
// sorted copies of the sample sets. The result: byte-identical summaries
// regardless of consumption order.
package live

import (
	"sort"
	"strings"
	"sync"

	"taskprov/internal/darshan"
	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/whatif"
)

// AggregatorOptions tunes the streaming aggregation.
type AggregatorOptions struct {
	// WindowSeconds is the width of one live time window (sim clock).
	// Default 10s.
	WindowSeconds float64
	// Windows is how many trailing windows the ring keeps. Default 6.
	Windows int
	// GroupSampleCap bounds the per-group duration sample set used for
	// quantiles. Past the cap new samples are dropped (Count keeps
	// counting; GroupStats.Sampled records how many samples back the
	// quantiles). Default 1<<20.
	GroupSampleCap int
	// RecoveryEventCap bounds the retained recovery timeline (worker-lost,
	// task-rescheduled, key-recomputed, … events). Past the cap new events
	// are dropped from the timeline but still counted in Warnings.
	// Default 4096.
	RecoveryEventCap int
	// CritPathTaskCap bounds the per-task records (durations, dependency
	// lists) backing the CriticalPathSeconds lane; past the cap new tasks
	// stop contributing and the lane becomes a lower bound over the
	// retained prefix. Default 1<<20.
	CritPathTaskCap int
	// Anomaly configures the online detectors.
	Anomaly AnomalyConfig
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.WindowSeconds <= 0 {
		o.WindowSeconds = 10
	}
	if o.Windows <= 0 {
		o.Windows = 6
	}
	if o.GroupSampleCap <= 0 {
		o.GroupSampleCap = 1 << 20
	}
	if o.RecoveryEventCap <= 0 {
		o.RecoveryEventCap = 4096
	}
	if o.CritPathTaskCap <= 0 {
		o.CritPathTaskCap = 1 << 20
	}
	o.Anomaly = o.Anomaly.withDefaults()
	return o
}

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

// SpeculationStats aggregates the speculation provenance topic: the hedged
// execution lane (duplicate attempts launched, winners, cancelled and failed
// losers, promotions) plus the adaptive-retry lane (retries sent, budget
// denials — only logs of builds that had a Mercury retry layer carry those;
// the fields stay so their summaries keep their shape). Counters commute; WastedSeconds — the virtual time cancelled
// losing attempts had been running — is summed per (topic, partition) lane so
// the figure is deterministic regardless of consumption order.
type SpeculationStats struct {
	Launched        int64 `json:"launched"`
	Won             int64 `json:"won"`
	Cancelled       int64 `json:"cancelled"`
	Failed          int64 `json:"failed"`
	Promoted        int64 `json:"promoted"`
	Retries         int64 `json:"retries"`
	BudgetExhausted int64 `json:"budget_exhausted"`

	// WastedSeconds is the summed runtime of losing attempts at the moment
	// they were cancelled — the price paid for hedging.
	WastedSeconds float64 `json:"wasted_seconds"`
	// RetryRate is retries per wall-clock second (0 until the wall time is
	// known).
	RetryRate float64 `json:"retry_rate"`
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
// run it must equal the post-mortem PERFRECUP views (Windows and Anomalies
// excepted: windows are a bounded trailing ring and anomaly emission depends
// on arrival order, so both are observability surfaces, not invariants).
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
	// regardless of partition consumption order. Capped at
	// AggregatorOptions.RecoveryEventCap.
	Recovery []RecoveryEvent `json:"recovery,omitempty"`

	// ClusterHealth is the Mofka cluster's replication/failover lane:
	// warnings whose kind carries the "cluster_" prefix (broker dead,
	// leader elected, catch-up, under-replication, group rebalance; see
	// internal/mofka/cluster). Sorted like Recovery, capped at
	// RecoveryEventCap, empty for single-broker runs.
	ClusterHealth []RecoveryEvent `json:"cluster_health,omitempty"`

	// Proxy is the pass-by-reference data-plane lane; nil when the run
	// streamed no proxy-store events (direct transfers only).
	Proxy *ProxyStats `json:"proxy,omitempty"`

	// Speculation is the hedged-execution and adaptive-retry lane; nil when
	// the run streamed no speculation events.
	Speculation *SpeculationStats `json:"speculation,omitempty"`

	// ConsumerLag is the monitoring consumer's own backlog per
	// "topic/partition" — events appended but not yet ingested. Zero
	// entries are omitted; a fully drained monitor reports none. Set by
	// Monitor snapshots, never by post-mortem replays (which are always
	// fully drained).
	ConsumerLag map[string]uint64 `json:"consumer_lag,omitempty"`

	Windows   []WindowSnapshot `json:"windows,omitempty"`
	Anomalies []Anomaly        `json:"anomalies,omitempty"`
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
	workerExec     map[string]float64
}

// groupAcc accumulates one task group's duration samples.
type groupAcc struct {
	count   int64
	samples []float64
}

// Aggregator maintains the streaming aggregates. Safe for concurrent use:
// one or more ingesters may feed it while snapshot readers observe it.
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
	occupancy map[string]int
	groups    map[string]*groupAcc
	workers   map[string]*WorkerStats
	hostIO    map[string]*HostIOStats
	warnings  map[string]int

	// critDur/critDeps back the CriticalPathSeconds lane: per-task
	// execution duration (max-combined, so re-executions commute) and
	// dependency lists, both capped at CritPathTaskCap.
	critDur  map[string]float64
	critDeps map[string][]string

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
	subs      []func(Anomaly)
}

// NewAggregator builds an empty aggregator.
func NewAggregator(opts AggregatorOptions) *Aggregator {
	opts = opts.withDefaults()
	a := &Aggregator{
		opts:      opts,
		lanes:     make(map[laneKey]*lane),
		occupancy: make(map[string]int),
		groups:    make(map[string]*groupAcc),
		workers:   make(map[string]*WorkerStats),
		hostIO:    make(map[string]*HostIOStats),
		warnings:  make(map[string]int),
		critDur:   make(map[string]float64),
		critDeps:  make(map[string][]string),
		windows:   newWindowRing(opts.WindowSeconds, opts.Windows),
	}
	a.detect = newDetectors(opts.Anomaly, opts.WindowSeconds)
	return a
}

// OnAnomaly registers fn to be called (with the aggregator unlocked) for
// every anomaly the detectors raise. Must be called before ingestion starts.
func (a *Aggregator) OnAnomaly(fn func(Anomaly)) {
	a.mu.Lock()
	a.subs = append(a.subs, fn)
	a.mu.Unlock()
}

// SubscribeAnomalies returns a buffered channel carrying every anomaly
// raised from now on; slow receivers lose anomalies rather than stalling
// ingestion.
func (a *Aggregator) SubscribeAnomalies() <-chan Anomaly {
	ch := make(chan Anomaly, 64)
	a.OnAnomaly(func(an Anomaly) {
		select {
		case ch <- an:
		default:
		}
	})
	return ch
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
		l = &lane{workerExec: make(map[string]float64)}
		a.lanes[k] = l
	}
	return l
}

func (a *Aggregator) worker(name string) *WorkerStats {
	w := a.workers[name]
	if w == nil {
		w = &WorkerStats{}
		a.workers[name] = w
	}
	return w
}

// Ingest feeds one provenance event from its stored metadata bytes, decoded
// once with the typed codec. partition is the Mofka partition the event came
// from; events of one partition must be fed in partition order (both the live
// pull loop and the post-mortem replay guarantee this). Metadata that is not
// a JSON object (or null) is rejected and leaves the aggregates untouched —
// also on the topics that are only counted, which the codec's cursor still
// walks.
func (a *Aggregator) Ingest(topic string, partition int, metadata []byte) error {
	switch topic {
	case provenance.TopicTransitions:
		t, err := provenance.DecodeTransition(metadata)
		if err != nil {
			return err
		}
		a.ingestTransition(t)
	case provenance.TopicExecutions:
		e, err := provenance.DecodeExecution(metadata)
		if err != nil {
			return err
		}
		a.ingestExecution(partition, e)
	case provenance.TopicTransfers:
		t, err := provenance.DecodeTransfer(metadata)
		if err != nil {
			return err
		}
		a.ingestTransfer(partition, t)
	case provenance.TopicWarnings:
		w, err := provenance.DecodeWarning(metadata)
		if err != nil {
			return err
		}
		a.ingestWarning(w)
	case provenance.TopicProxy:
		e, err := provenance.DecodeProxyEvent(metadata)
		if err != nil {
			return err
		}
		a.ingestProxy(partition, e)
	case provenance.TopicSpeculation:
		e, err := provenance.DecodeSpeculation(metadata)
		if err != nil {
			return err
		}
		a.ingestSpeculation(partition, e)
	case provenance.TopicTaskMeta:
		tm, err := provenance.DecodeTaskMeta(metadata)
		if err != nil {
			return err
		}
		a.ingestTaskMeta(tm)
	case provenance.TopicGraphs:
		g, err := provenance.DecodeGraphEvent(metadata)
		if err != nil {
			return err
		}
		a.ingestGraphEvent(g.Event)
	default:
		if err := provenance.Validate(metadata); err != nil {
			return err
		}
		a.ingestCounted()
	}
	return nil
}

// IngestEvent is Ingest for an event already decoded into the map API. It
// survives only because bench/e2e compiles against it (DESIGN §14): nothing
// in the program calls it, and it holds no aggregation rule of its own —
// Parse<T> and the handlers Ingest uses.
func (a *Aggregator) IngestEvent(topic string, partition int, m mofka.Metadata) {
	switch topic {
	case provenance.TopicTransitions:
		a.ingestTransition(provenance.ParseTransition(m))
	case provenance.TopicExecutions:
		a.ingestExecution(partition, provenance.ParseExecution(m))
	case provenance.TopicTransfers:
		a.ingestTransfer(partition, provenance.ParseTransfer(m))
	case provenance.TopicWarnings:
		a.ingestWarning(provenance.ParseWarning(m))
	case provenance.TopicProxy:
		a.ingestProxy(partition, provenance.ParseProxyEvent(m))
	case provenance.TopicSpeculation:
		a.ingestSpeculation(partition, provenance.ParseSpeculationEvent(m))
	case provenance.TopicTaskMeta:
		a.ingestTaskMeta(provenance.ParseTaskMeta(m))
	case provenance.TopicGraphs:
		a.ingestGraphEvent(provenance.Str(m, "event"))
	default:
		a.ingestCounted()
	}
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
			fn(an)
		}
	}
}

// ingestCounted takes an event of a topic with no aggregate beyond Events.
func (a *Aggregator) ingestCounted() {
	a.mu.Lock()
	a.events++
	a.mu.Unlock()
}

func (a *Aggregator) ingestTransition(t dask.Transition) {
	a.mu.Lock()
	a.events++
	a.transitions++
	if f := string(t.From); f != "" {
		a.occupancy[f]--
	}
	if to := string(t.To); to != "" {
		a.occupancy[to]++
	}
	a.mu.Unlock()
}

func (a *Aggregator) ingestExecution(partition int, e dask.TaskExecution) {
	a.mu.Lock()
	a.events++
	dur := (e.Stop - e.Start).Seconds()
	a.tasks++
	l := a.lane(provenance.TopicExecutions, partition)
	l.execSeconds += dur
	l.workerExec[e.Worker] += dur
	a.worker(e.Worker).Tasks++
	g := dask.KeyPrefix(e.Key)
	acc := a.groups[g]
	if acc == nil {
		acc = &groupAcc{}
		a.groups[g] = acc
	}
	acc.count++
	if len(acc.samples) < a.opts.GroupSampleCap {
		acc.samples = append(acc.samples, dur)
	}
	key := string(e.Key)
	if prev, ok := a.critDur[key]; ok || len(a.critDur) < a.opts.CritPathTaskCap {
		// Max-combine so a re-executed task (worker crash) contributes
		// its longest attempt regardless of arrival order.
		if dur > prev {
			a.critDur[key] = dur
		}
	}
	stop := e.Stop.Seconds()
	if b := a.windows.bucket(stop); b != nil {
		b.TasksFinished++
		b.ComputeSeconds += dur
	}
	a.raise(a.detect.onDuration(g, dur, stop))
}

func (a *Aggregator) ingestTransfer(partition int, t dask.Transfer) {
	a.mu.Lock()
	a.events++
	a.transfers++
	a.transferBytes += t.Bytes
	a.lane(provenance.TopicTransfers, partition).commSeconds += (t.Stop - t.Start).Seconds()
	a.worker(t.From).TransferOutBytes += t.Bytes
	a.worker(t.To).TransferInBytes += t.Bytes
	if b := a.windows.bucket(t.Stop.Seconds()); b != nil {
		b.Transfers++
		b.TransferBytes += t.Bytes
	}
	a.mu.Unlock()
}

func (a *Aggregator) ingestWarning(w dask.Warning) {
	a.mu.Lock()
	a.events++
	kind := string(w.Kind)
	a.warnings[kind]++
	a.worker(w.Worker).Warnings++
	at := w.At.Seconds()
	if w.Kind.IsRecovery() && len(a.recovery) < a.opts.RecoveryEventCap {
		a.recovery = append(a.recovery, RecoveryEvent{
			At: at, Kind: kind, Worker: w.Worker, Message: w.Message,
		})
	}
	if strings.HasPrefix(kind, "cluster_") && len(a.cluster) < a.opts.RecoveryEventCap {
		a.cluster = append(a.cluster, RecoveryEvent{
			At: at, Kind: kind, Worker: w.Worker, Message: w.Message,
		})
	}
	a.windows.addWarning(at, kind)
	a.raise(a.detect.onWarning(kind, w.Worker, at))
}

func (a *Aggregator) ingestProxy(partition int, e dask.ProxyEvent) {
	a.mu.Lock()
	a.events++
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
	a.mu.Unlock()
}

func (a *Aggregator) ingestSpeculation(partition int, e dask.SpeculationEvent) {
	a.mu.Lock()
	a.events++
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
	case dask.SpecRetry:
		a.spec.Retries++
	case dask.SpecBudgetExhausted:
		a.spec.BudgetExhausted++
	}
	if e.Wasted > 0 {
		a.lane(provenance.TopicSpeculation, partition).wastedSeconds += e.Wasted.Seconds()
	}
	a.mu.Unlock()
}

func (a *Aggregator) ingestTaskMeta(tm dask.TaskMeta) {
	a.mu.Lock()
	a.events++
	a.submitted++
	key := string(tm.Key)
	if _, ok := a.critDeps[key]; !ok && len(tm.Deps) > 0 && len(a.critDeps) < a.opts.CritPathTaskCap {
		deps := make([]string, len(tm.Deps))
		for i, d := range tm.Deps {
			deps[i] = string(d)
		}
		a.critDeps[key] = deps
	}
	a.mu.Unlock()
}

// ingestGraphEvent takes a graph lifecycle event, of which only "done" is
// aggregated.
func (a *Aggregator) ingestGraphEvent(event string) {
	a.mu.Lock()
	a.events++
	if event == "done" {
		a.graphsDone++
	}
	a.mu.Unlock()
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
			workerExec[w] += v // one lane per (topic,part): inner order free
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
		if a.wall > 0 {
			sp.RetryRate = float64(sp.Retries) / a.wall
		}
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
		if n != 0 {
			s.StateOccupancy[st] = n
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
	s.Anomalies = append([]Anomaly(nil), a.anomalies...)
	return s
}

// sortedTimeline copies and sorts a warning-derived timeline by (At, Kind,
// Worker, Message): identical for live and post-mortem replays regardless
// of partition consumption order.
func sortedTimeline(evs []RecoveryEvent) []RecoveryEvent {
	out := append([]RecoveryEvent(nil), evs...)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i], out[j]
		if ri.At != rj.At {
			return ri.At < rj.At
		}
		if ri.Kind != rj.Kind {
			return ri.Kind < rj.Kind
		}
		if ri.Worker != rj.Worker {
			return ri.Worker < rj.Worker
		}
		return ri.Message < rj.Message
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
