package dask

import "taskprov/internal/sim"

// TaskState is a scheduler- or worker-side task state, using Dask's names.
type TaskState string

// Scheduler-side task states.
const (
	StateReleased   TaskState = "released"
	StateWaiting    TaskState = "waiting"
	StateProcessing TaskState = "processing"
	StateMemory     TaskState = "memory"
	StateErred      TaskState = "erred"
)

// Worker-side task states.
const (
	WStateWaiting   TaskState = "waiting"
	WStateFetching  TaskState = "fetching"
	WStateReady     TaskState = "ready"
	WStateExecuting TaskState = "executing"
	WStateMemory    TaskState = "memory"
)

// TaskMeta is the static task information captured when a graph reaches the
// scheduler: the identifying fields the paper extracts "when tasks arrive at
// the scheduler" (§III-E1).
type TaskMeta struct {
	Key     TaskKey   `json:"key"`
	Prefix  string    `json:"prefix"`
	Group   string    `json:"group"`
	GraphID int       `json:"graph_id"`
	Deps    []TaskKey `json:"deps"`
	At      sim.Time  `json:"at"`
}

// Transition is one task state transition, with the location and stimulus,
// matching the paper's plugin capture ("task key, group, prefix, initial
// state, final state, timestamp, and the stimuli that triggered this
// transition").
type Transition struct {
	Key      TaskKey   `json:"key"`
	From     TaskState `json:"from"`
	To       TaskState `json:"to"`
	Stimulus string    `json:"stimulus"`
	Location string    `json:"location"` // "scheduler" or worker address
	At       sim.Time  `json:"at"`
}

// TaskExecution is the completion record a worker produces: where and when
// the task body ran ("the IP address of the worker where the task was
// executed, the thread ID, start and end times, and the size of the task
// result").
type TaskExecution struct {
	Key        TaskKey  `json:"key"`
	Worker     string   `json:"worker"` // worker address ip:port
	Hostname   string   `json:"hostname"`
	ThreadID   uint64   `json:"thread_id"`
	Start      sim.Time `json:"start"`
	Stop       sim.Time `json:"stop"`
	OutputSize int64    `json:"output_size"`
	GraphID    int      `json:"graph_id"`
	// Files records the PFS files this execution opened for writing and
	// their sizes once the body finished, sorted by path. Run resumption
	// replays these effects to rebuild the filesystem state a memoized
	// (not re-executed) task would otherwise have left behind.
	Files []FileEffect `json:"files,omitempty"`
}

// FileEffect is one write-side filesystem effect of a task execution: the
// path the body opened for writing and the file's size when the body
// finished.
type FileEffect struct {
	Path      string `json:"path"`
	SizeAfter int64  `json:"size_after"`
}

// Transfer is one dependency movement between workers (an "incoming
// communication" at the destination, the unit counted in Table I). With the
// proxy store enabled, transfers that resolved a pass-by-reference blob
// carry ViaProxy and the latency between first use (demand) and payload
// arrival.
type Transfer struct {
	Key      TaskKey  `json:"key"`
	From     string   `json:"from"` // source worker address
	To       string   `json:"to"`
	Bytes    int64    `json:"bytes"`
	Start    sim.Time `json:"start"`
	Stop     sim.Time `json:"stop"`
	SameNode bool     `json:"same_node"`
	// ViaProxy marks a transfer that fetched a proxy-store blob peer-to-peer
	// instead of a directly shipped dependency.
	ViaProxy bool `json:"via_proxy,omitempty"`
	// ResolveLatency is demand-to-arrival time for a proxied dependency: how
	// long the consumer waited between first needing the value and holding
	// it (connection setup + transfer, measured from lazy-resolution start).
	ResolveLatency sim.Time `json:"resolve_latency,omitempty"`
}

// Proxy-store operation names carried by ProxyEvent records.
const (
	ProxyOpPublish = "publish" // producer registered a blob
	ProxyOpResolve = "resolve" // consumer resolved a reference (hit)
	ProxyOpMiss    = "miss"    // reference dangled: blob reclaimed or absent
	ProxyOpFree    = "free"    // refcount drained or scheduler freed the blob
	ProxyOpReclaim = "reclaim" // owner died; blobs swept at eviction
	// ProxyOpDuplicate: a publish was rejected by the first-write-wins fence —
	// the losing attempt of a speculation race tried to displace the winner's
	// live blob.
	ProxyOpDuplicate = "duplicate"
)

// ProxyEvent is one pass-by-reference store operation, streamed to the
// proxy-store provenance topic: the per-blob story (publish, resolve, miss,
// free, reclaim) plus the store's resident footprint after the operation.
type ProxyEvent struct {
	Op     string  `json:"op"`
	Key    TaskKey `json:"key"`
	Worker string  `json:"worker"` // acting worker address ("scheduler" for frees/reclaims)
	Bytes  int64   `json:"bytes"`  // logical payload bytes of the blob
	// Resident is the store's total logical bytes after this operation — the
	// live resident-bytes lane is a running join of this field.
	Resident int64 `json:"resident"`
	// ResolveLatency mirrors the Transfer field for resolve operations.
	ResolveLatency sim.Time `json:"resolve_latency,omitempty"`
	At             sim.Time `json:"at"`
}

// WarningKind classifies runtime warnings scraped from worker/scheduler
// logs.
type WarningKind string

// Warning kinds the paper's Fig. 7 distinguishes.
const (
	WarnEventLoop WarningKind = "unresponsive_event_loop"
	WarnGC        WarningKind = "gc_collection"
)

// Failure/recovery warning kinds: every scheduler-side recovery action is
// emitted on the warnings topic so degraded runs carry their own recovery
// timeline in the provenance stream.
const (
	// WarnWorkerLost: the scheduler declared a worker dead, silent for
	// WorkerTTL or replaced by a fresh process, and evicted it.
	WarnWorkerLost WarningKind = "worker_lost"
	// WarnWorkerRejoined: a previously lost worker reconnected.
	WarnWorkerRejoined WarningKind = "worker_rejoined"
	// WarnTaskRescheduled: a processing task was pulled off a dead worker
	// and requeued.
	WarnTaskRescheduled WarningKind = "task_rescheduled"
	// WarnKeyRecomputed: an in-memory result lost its last replica and was
	// transitioned back to waiting for recomputation (whoHas shrank to
	// zero).
	WarnKeyRecomputed WarningKind = "key_recomputed"
	// WarnProducerDegraded: a Mofka producer ran degraded (buffering and
	// retrying) while the broker was unreachable, then recovered.
	WarnProducerDegraded WarningKind = "producer_degraded"
	// WarnBlobReclaimed: proxy-store blobs owned by a dead worker were
	// swept during eviction; dangling references miss and drive
	// recomputation.
	WarnBlobReclaimed WarningKind = "proxy_blob_reclaimed"
	// WarnSessionResumed: a new session incarnation resumed a crashed run
	// from its provenance, memoizing completed work. The event marks the
	// attempt boundary in the merged timeline.
	WarnSessionResumed WarningKind = "session_resumed"
)

// WarnCheckpointFailed: the session failed to write a frontier checkpoint.
// Not a recovery event — the run continues; a later resume just replays a
// longer WAL tail.
const WarnCheckpointFailed WarningKind = "checkpoint_failed"

// IsRecovery reports whether the kind is one of the failure/recovery events
// (as opposed to the paper's runtime-pathology warnings).
func (k WarningKind) IsRecovery() bool {
	switch k {
	case WarnWorkerLost, WarnWorkerRejoined, WarnTaskRescheduled, WarnKeyRecomputed, WarnProducerDegraded, WarnBlobReclaimed, WarnSessionResumed:
		return true
	}
	return false
}

// Warning is one runtime warning occurrence.
type Warning struct {
	Kind     WarningKind `json:"kind"`
	Worker   string      `json:"worker"`
	Hostname string      `json:"hostname"`
	At       sim.Time    `json:"at"`
	Duration sim.Time    `json:"duration"` // how long the loop was blocked / GC took
	Message  string      `json:"message"`
}

// WorkerMetrics is a heartbeat sample.
type WorkerMetrics struct {
	Worker    string   `json:"worker"`
	At        sim.Time `json:"at"`
	Memory    int64    `json:"memory"`
	Executing int      `json:"executing"`
	Ready     int      `json:"ready"`
}

// StealEvent records one successful work-stealing move.
type StealEvent struct {
	Key    TaskKey  `json:"key"`
	Victim string   `json:"victim"`
	Thief  string   `json:"thief"`
	At     sim.Time `json:"at"`
}

// Speculation event kinds carried by SpeculationEvent records.
const (
	// SpecLaunched: the scheduler dispatched a duplicate attempt of a
	// flagged straggling task to a second worker.
	SpecLaunched = "launched"
	// SpecWon: one attempt of a speculated task completed first and its
	// output became the task's result.
	SpecWon = "won"
	// SpecCancelled: the losing attempt was cancelled; its output (if the
	// cancel raced completion) is fenced off and never becomes visible.
	SpecCancelled = "cancelled"
	// SpecFailed: a speculative attempt erred or its worker died before
	// either attempt finished; the primary attempt continues alone.
	SpecFailed = "failed"
	// SpecPromoted: the primary attempt's worker died while a duplicate was
	// in flight; the duplicate was promoted to sole attempt.
	SpecPromoted = "promoted"
)

// SpeculationEvent is one speculation decision, streamed to the speculation
// provenance topic: why a duplicate was launched, which attempt won, and what
// the loser wasted.
type SpeculationEvent struct {
	Kind string  `json:"kind"`
	Key  TaskKey `json:"key,omitempty"`
	// Primary and Duplicate are the two attempts' worker addresses.
	Primary   string `json:"primary,omitempty"`
	Duplicate string `json:"duplicate,omitempty"`
	// Winner is the completing worker for "won" events.
	Winner string `json:"winner,omitempty"`
	// Wasted is the virtual time the cancelled losing attempt had been
	// running — the wasted-speculative-seconds live lane sums this field.
	Wasted sim.Time `json:"wasted,omitempty"`
	Detail string   `json:"detail,omitempty"`
	At     sim.Time `json:"at"`
}

// SchedulerPlugin observes scheduler-side events, like a
// distributed.SchedulerPlugin.
type SchedulerPlugin interface {
	TaskAdded(meta TaskMeta)
	SchedulerTransition(t Transition)
	GraphDone(graphID int, at sim.Time)
	Stolen(ev StealEvent)
	Speculation(ev SpeculationEvent)
}

// WorkerPlugin observes worker-side events, like a distributed.WorkerPlugin.
type WorkerPlugin interface {
	WorkerTransition(t Transition)
	TaskExecuted(rec TaskExecution)
	TransferReceived(rec Transfer)
	WorkerWarning(w Warning)
	Heartbeat(m WorkerMetrics)
	ProxyEvent(ev ProxyEvent)
}

// NopSchedulerPlugin is an embeddable no-op SchedulerPlugin.
type NopSchedulerPlugin struct{}

// TaskAdded implements SchedulerPlugin.
func (NopSchedulerPlugin) TaskAdded(TaskMeta) {}

// SchedulerTransition implements SchedulerPlugin.
func (NopSchedulerPlugin) SchedulerTransition(Transition) {}

// GraphDone implements SchedulerPlugin.
func (NopSchedulerPlugin) GraphDone(int, sim.Time) {}

// Stolen implements SchedulerPlugin.
func (NopSchedulerPlugin) Stolen(StealEvent) {}

// Speculation implements SchedulerPlugin.
func (NopSchedulerPlugin) Speculation(SpeculationEvent) {}

// NopWorkerPlugin is an embeddable no-op WorkerPlugin.
type NopWorkerPlugin struct{}

// WorkerTransition implements WorkerPlugin.
func (NopWorkerPlugin) WorkerTransition(Transition) {}

// TaskExecuted implements WorkerPlugin.
func (NopWorkerPlugin) TaskExecuted(TaskExecution) {}

// TransferReceived implements WorkerPlugin.
func (NopWorkerPlugin) TransferReceived(Transfer) {}

// WorkerWarning implements WorkerPlugin.
func (NopWorkerPlugin) WorkerWarning(Warning) {}

// Heartbeat implements WorkerPlugin.
func (NopWorkerPlugin) Heartbeat(WorkerMetrics) {}

// ProxyEvent implements WorkerPlugin.
func (NopWorkerPlugin) ProxyEvent(ProxyEvent) {}
