// Package whatif turns a captured provenance stream into a calibrated
// performance model of the run: a weighted task DAG with per-task compute,
// I/O, transfer, proxy-resolve, and scheduler costs. On top of the model it
// offers two analyses:
//
//   - critical-path extraction (critpath.go): the longest weighted chain
//     through the executed schedule, with per-task slack and a bottleneck
//     attribution table (compute vs transfer vs I/O vs scheduler vs proxy);
//   - a discrete-event replay simulator (replay.go): re-execute the DAG
//     under a perturbed Scenario (worker count, threads, network/PFS speed,
//     proxy threshold, stealing) and predict the makespan delta.
//
// The package is deliberately a leaf (no dependency on internal/core,
// internal/perfrecup, or internal/live) so that all three can build on it:
// core computes a critical-path summary per run, perfrecup renders the
// critpath/whatif views, and live derives its CriticalPathSeconds lane from
// the same chain arithmetic.
package whatif

import (
	"fmt"
	"math"
	"sort"

	"taskprov/internal/darshan"
	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// Input bundles everything the extractor reads: the provenance broker (a
// live run's broker, a WAL replay, or a cluster read view — they all
// materialize as *mofka.Broker), the Darshan logs for the I/O join, and the
// run-metadata fields the model needs as its baseline configuration.
type Input struct {
	Broker      *mofka.Broker
	DarshanLogs []*darshan.Log

	Workflow string
	Seed     uint64

	// Baseline topology (from the run metadata's job layer).
	Nodes            int
	WorkersPerNode   int
	ThreadsPerWorker int

	// Baseline WMS configuration (from the dask_config layer).
	StealEnabled        bool
	ProxyThresholdBytes int64

	// Measured outcome.
	StartSeconds float64
	WallSeconds  float64
}

// Task is one executed task with its fitted cost decomposition. Start/Stop
// are absolute virtual seconds from the measured run; the decomposition
// satisfies Compute+IO+Proxy = Stop-Start (Compute clamped at zero when the
// joined I/O over-covers the window, e.g. on overlapping DXT segments).
type Task struct {
	Key     string
	Prefix  string
	GraphID int
	Deps    []int // indices into Model.Tasks; only executed deps appear

	Worker   string
	Hostname string
	ThreadID uint64

	Start, Stop float64
	OutputBytes int64

	ComputeSeconds float64
	IOSeconds      float64
	ProxySeconds   float64 // lazy proxy-resolve stalls inside the window
}

// DurationSeconds is the measured execution window length.
func (t *Task) DurationSeconds() float64 { return t.Stop - t.Start }

// Edge is one measured dependency transfer: dep task Task (by index)
// arriving at worker To.
type Edge struct {
	Task           int
	To             string
	Bytes          int64
	Seconds        float64
	SameNode       bool
	ViaProxy       bool
	ResolveSeconds float64
}

// GraphInfo captures the client-side control flow around one task graph:
// when it was submitted, when it completed, and which earlier graphs the
// client observably waited on before submitting it (every graph already done
// at submit time). DelaySeconds is the client think/submit time between the
// last prerequisite's completion (or run start) and the submission.
type GraphInfo struct {
	ID           int
	SubmitAt     float64
	DoneAt       float64
	Tasks        int
	Prereqs      []int // graph IDs done before SubmitAt
	DelaySeconds float64
}

// TransferFit is one fitted latency+bandwidth cost model:
// seconds = Alpha + bytes/Beta. Beta is +Inf when the sample is degenerate
// (no byte-size spread), collapsing to a pure latency model.
type TransferFit struct {
	Alpha   float64 // seconds
	Beta    float64 // bytes/second
	Samples int
}

// Seconds evaluates the fit for a transfer of the given size.
func (f TransferFit) Seconds(bytes int64) float64 {
	if f.Samples == 0 {
		return 0
	}
	if math.IsInf(f.Beta, 1) || f.Beta <= 0 {
		return f.Alpha
	}
	return f.Alpha + float64(bytes)/f.Beta
}

// CostModel is the calibrated per-category cost model.
type CostModel struct {
	// Transfer fits by plane: same-node direct, cross-node direct, and
	// proxied (resolve cost, i.e. demand-to-arrival latency).
	Local TransferFit
	Cross TransferFit
	Proxy TransferFit

	// DispatchSeconds is the fitted scheduler decision overhead: the low
	// percentile of the lag between a task's inputs being ready and its
	// execution starting (low, so queueing for a busy slot is not
	// double-counted — the replay models slots explicitly).
	DispatchSeconds float64

	// ComputeByPrefix is the mean compute seconds per task prefix —
	// the per-task-type cost table the paper's characterization motivates.
	ComputeByPrefix map[string]float64
}

// Model is the extracted, calibrated model of one run.
type Model struct {
	Workflow string
	Seed     uint64

	Tasks  []Task
	Index  map[string]int // key -> task index
	Graphs []GraphInfo    // sorted by SubmitAt, then ID

	// Transfers indexes measured transfers by (dep task, destination
	// worker); re-executed fetches keep the longest observation.
	Transfers map[EdgeKey]Edge

	Cost CostModel

	// Baseline topology and configuration.
	Workers          []string          // sorted measured worker names
	WorkerHost       map[string]string // worker -> hostname
	Nodes            int
	WorkersPerNode   int
	ThreadsPerWorker int
	StealEnabled     bool
	ProxyThreshold   int64

	// Measured outcome: absolute times in virtual seconds.
	StartSeconds    float64
	EndSeconds      float64
	MakespanSeconds float64
}

// EdgeKey addresses one measured transfer.
type EdgeKey struct {
	Task int
	To   string
}

// graphIndex returns the position of graph id in m.Graphs (-1 if unknown).
func (m *Model) graphIndex(id int) int {
	for i := range m.Graphs {
		if m.Graphs[i].ID == id {
			return i
		}
	}
	return -1
}

// Extract drains the provenance topics and fits the model. It fails only on
// broker errors or an empty run; partial streams (no transfers, no DXT)
// degrade to zero-cost categories.
func Extract(in Input) (*Model, error) {
	if in.Broker == nil {
		return nil, fmt.Errorf("whatif: nil broker")
	}
	metas, err := provenance.Drain(in.Broker, provenance.TopicTaskMeta, provenance.DecodeTaskMeta)
	if err != nil {
		return nil, fmt.Errorf("whatif: task-meta: %w", err)
	}
	execs, err := provenance.Drain(in.Broker, provenance.TopicExecutions, provenance.DecodeExecution)
	if err != nil {
		return nil, fmt.Errorf("whatif: executions: %w", err)
	}
	transfers, err := provenance.Drain(in.Broker, provenance.TopicTransfers, provenance.DecodeTransfer)
	if err != nil {
		return nil, fmt.Errorf("whatif: transfers: %w", err)
	}
	graphEvents, err := provenance.Drain(in.Broker, provenance.TopicGraphs, provenance.DecodeGraphEvent)
	if err != nil {
		return nil, fmt.Errorf("whatif: graph-events: %w", err)
	}

	// Executions: keep the final (max-Stop) execution of each key — a task
	// re-executed after a worker crash contributes its surviving run.
	execByKey := make(map[string]dask.TaskExecution, len(execs))
	for _, e := range execs {
		if prev, ok := execByKey[string(e.Key)]; !ok || e.Stop > prev.Stop {
			execByKey[string(e.Key)] = e
		}
	}
	if len(execByKey) == 0 {
		return nil, fmt.Errorf("whatif: run has no task executions")
	}

	// Task metadata: dependency lists and per-graph submit times.
	metaByKey := make(map[string]metaRec, len(metas))
	for _, tm := range metas {
		if _, ok := metaByKey[string(tm.Key)]; ok {
			continue // duplicate registration (re-submitted graph)
		}
		deps := make([]string, len(tm.Deps))
		for i, d := range tm.Deps {
			deps[i] = string(d)
		}
		metaByKey[string(tm.Key)] = metaRec{deps: deps, graphID: tm.GraphID, at: tm.At.Seconds()}
	}

	m := &Model{
		Workflow:         in.Workflow,
		Seed:             in.Seed,
		Index:            make(map[string]int, len(execByKey)),
		Transfers:        make(map[EdgeKey]Edge),
		WorkerHost:       make(map[string]string),
		Nodes:            in.Nodes,
		WorkersPerNode:   in.WorkersPerNode,
		ThreadsPerWorker: in.ThreadsPerWorker,
		StealEnabled:     in.StealEnabled,
		ProxyThreshold:   in.ProxyThresholdBytes,
		StartSeconds:     in.StartSeconds,
	}

	// Deterministic task order: by measured start, then key.
	type started struct {
		start sim.Time
		key   string
	}
	order := make([]started, 0, len(execByKey))
	for k, e := range execByKey {
		order = append(order, started{e.Start, k})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].start != order[b].start {
			return order[a].start < order[b].start
		}
		return order[a].key < order[b].key
	})
	end := in.StartSeconds
	for _, o := range order {
		k := o.key
		e := execByKey[k]
		meta := metaByKey[k]
		t := Task{
			Key:         k,
			Prefix:      dask.KeyPrefix(e.Key),
			GraphID:     e.GraphID,
			Worker:      e.Worker,
			Hostname:    e.Hostname,
			ThreadID:    e.ThreadID,
			Start:       e.Start.Seconds(),
			Stop:        e.Stop.Seconds(),
			OutputBytes: e.OutputSize,
		}
		if meta.graphID != 0 && t.GraphID == 0 {
			t.GraphID = meta.graphID
		}
		m.Index[k] = len(m.Tasks)
		m.Tasks = append(m.Tasks, t)
		m.WorkerHost[e.Worker] = e.Hostname
		if t.Stop > end {
			end = t.Stop
		}
	}
	m.EndSeconds = end
	m.MakespanSeconds = in.WallSeconds
	if m.MakespanSeconds <= 0 {
		m.MakespanSeconds = end - in.StartSeconds
	}

	// Dependency edges (only deps that executed; purely external/staged
	// inputs have no execution record and impose no ordering).
	for i := range m.Tasks {
		for _, d := range metaByKey[m.Tasks[i].Key].deps {
			if j, ok := m.Index[d]; ok {
				m.Tasks[i].Deps = append(m.Tasks[i].Deps, j)
			}
		}
		sort.Ints(m.Tasks[i].Deps)
	}

	// Measured transfers, indexed by (dep, destination worker). A dep
	// re-fetched after a crash keeps the longest observation, biasing the
	// model conservative.
	for _, tr := range transfers {
		idx, ok := m.Index[string(tr.Key)]
		if !ok {
			continue
		}
		e := Edge{
			Task:           idx,
			To:             tr.To,
			Bytes:          tr.Bytes,
			Seconds:        (tr.Stop - tr.Start).Seconds(),
			SameNode:       tr.SameNode,
			ViaProxy:       tr.ViaProxy,
			ResolveSeconds: tr.ResolveLatency.Seconds(),
		}
		k := EdgeKey{Task: idx, To: tr.To}
		if prev, ok := m.Transfers[k]; !ok || e.Seconds > prev.Seconds {
			m.Transfers[k] = e
		}
	}

	m.Workers = make([]string, 0, len(m.WorkerHost))
	for w := range m.WorkerHost {
		m.Workers = append(m.Workers, w)
	}
	sort.Strings(m.Workers)

	m.extractGraphs(metaByKey, graphEvents)
	m.joinIO(in.DarshanLogs)
	m.decomposeProxy()
	m.fitCosts()
	return m, nil
}

// metaRec is the per-key slice of the task-meta stream the extractor keeps.
type metaRec struct {
	deps    []string
	graphID int
	at      float64
}

// extractGraphs reconstructs the client's graph-level control flow: submit
// time (earliest task-meta registration), completion time (graph-done event,
// falling back to the last task stop), and the set of graphs already done at
// submit time — the barriers the client's Wait calls impose.
func (m *Model) extractGraphs(metaByKey map[string]metaRec, graphEvents []provenance.GraphEvent) {
	submit := map[int]float64{}
	count := map[int]int{}
	lastStop := map[int]float64{}
	for i := range m.Tasks {
		t := &m.Tasks[i]
		g := t.GraphID
		at := metaByKey[t.Key].at
		if s, ok := submit[g]; !ok || at < s {
			submit[g] = at
		}
		count[g]++
		if t.Stop > lastStop[g] {
			lastStop[g] = t.Stop
		}
	}
	done := map[int]float64{}
	for _, g := range graphEvents {
		if g.Event != provenance.GraphDone {
			continue
		}
		if prev, ok := done[g.GraphID]; !ok || g.At > prev {
			done[g.GraphID] = g.At
		}
	}
	ids := make([]int, 0, len(submit))
	for id := range submit {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if submit[ids[a]] != submit[ids[b]] {
			return submit[ids[a]] < submit[ids[b]]
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		g := GraphInfo{ID: id, SubmitAt: submit[id], Tasks: count[id]}
		if d, ok := done[id]; ok {
			g.DoneAt = d
		} else {
			g.DoneAt = lastStop[id]
		}
		m.Graphs = append(m.Graphs, g)
	}
	// Prereqs: every graph observably complete before this one's submission.
	for i := range m.Graphs {
		g := &m.Graphs[i]
		base := m.StartSeconds
		for j := range m.Graphs {
			o := &m.Graphs[j]
			if o.ID == g.ID || o.DoneAt > g.SubmitAt {
				continue
			}
			g.Prereqs = append(g.Prereqs, o.ID)
			if o.DoneAt > base {
				base = o.DoneAt
			}
		}
		sort.Ints(g.Prereqs)
		g.DelaySeconds = g.SubmitAt - base
		if g.DelaySeconds < 0 {
			g.DelaySeconds = 0
		}
	}
}

// joinIO attributes DXT segments to tasks by (hostname, thread id, time
// window) — provenance.ThreadWindows, the fusion perfrecup performs —
// accumulating per-task I/O seconds.
func (m *Model) joinIO(logs []*darshan.Log) {
	if len(logs) == 0 {
		return
	}
	var windows provenance.ThreadWindows
	for i := range m.Tasks {
		t := &m.Tasks[i]
		windows.Add(t.Hostname, t.ThreadID, t.Start, t.Stop, i)
	}
	for _, l := range logs {
		for _, rec := range l.Records {
			for _, s := range rec.DXT {
				if task, ok := windows.Find(l.Job.Hostname, uint64(s.TID), s.Start); ok {
					m.Tasks[task].IOSeconds += s.End - s.Start
				}
			}
		}
	}
}

// decomposeProxy assigns each task the lazy proxy-resolve stalls that
// happened inside its execution window (resolve latency of proxied deps
// fetched on its worker, overlapping its window), and derives the compute
// residue: Compute = Duration - IO - Proxy, clamped at zero.
func (m *Model) decomposeProxy() {
	for i := range m.Tasks {
		t := &m.Tasks[i]
		for _, d := range t.Deps {
			e, ok := m.Transfers[EdgeKey{Task: d, To: t.Worker}]
			if !ok || !e.ViaProxy || e.ResolveSeconds <= 0 {
				continue
			}
			// The resolve stalls this task only if its window saw it.
			dep := &m.Tasks[d]
			if dep.Stop <= t.Stop && dep.Stop+e.Seconds >= t.Start {
				t.ProxySeconds += e.ResolveSeconds
			}
		}
		// Keep the decomposition exact: IO and proxy are clipped to the
		// window (overlapping DXT segments can over-cover it), and compute
		// takes the residue.
		if d := t.DurationSeconds(); t.IOSeconds > d {
			t.IOSeconds = d
		}
		if rem := t.DurationSeconds() - t.IOSeconds; t.ProxySeconds > rem {
			t.ProxySeconds = rem
		}
		t.ComputeSeconds = t.DurationSeconds() - t.IOSeconds - t.ProxySeconds
	}
}

// fitCosts calibrates the transfer fits, scheduler dispatch overhead, and
// the per-prefix compute table from the measured run.
func (m *Model) fitCosts() {
	var localB, localS, crossB, crossS, proxyB, proxyS []float64
	// Walk transfers in sorted key order: the least-squares accumulations are
	// float sums, and map order must not leak into the fitted parameters.
	edgeKeys := make([]EdgeKey, 0, len(m.Transfers))
	for k := range m.Transfers {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Slice(edgeKeys, func(a, b int) bool {
		if edgeKeys[a].Task != edgeKeys[b].Task {
			return edgeKeys[a].Task < edgeKeys[b].Task
		}
		return edgeKeys[a].To < edgeKeys[b].To
	})
	for _, k := range edgeKeys {
		e := m.Transfers[k]
		switch {
		case e.ViaProxy:
			proxyB = append(proxyB, float64(e.Bytes))
			proxyS = append(proxyS, e.Seconds)
		case e.SameNode:
			localB = append(localB, float64(e.Bytes))
			localS = append(localS, e.Seconds)
		default:
			crossB = append(crossB, float64(e.Bytes))
			crossS = append(crossS, e.Seconds)
		}
	}
	m.Cost.Local = fitLatencyBandwidth(localB, localS)
	m.Cost.Cross = fitLatencyBandwidth(crossB, crossS)
	m.Cost.Proxy = fitLatencyBandwidth(proxyB, proxyS)

	// Dispatch: low percentile of the positive lag between a task's inputs
	// being ready (deps done + data arrived, or graph submit for roots) and
	// its start. Low, because the bulk of the lag is slot queueing, which
	// the replay models explicitly via worker threads.
	var lags []float64
	for i := range m.Tasks {
		t := &m.Tasks[i]
		ready := m.StartSeconds
		if gi := m.graphIndex(t.GraphID); gi >= 0 {
			ready = m.Graphs[gi].SubmitAt
		}
		for _, d := range t.Deps {
			arr := m.Tasks[d].Stop
			if e, ok := m.Transfers[EdgeKey{Task: d, To: t.Worker}]; ok && !e.ViaProxy {
				arr += e.Seconds
			}
			if arr > ready {
				ready = arr
			}
		}
		if lag := t.Start - ready; lag >= 0 {
			lags = append(lags, lag)
		}
	}
	m.Cost.DispatchSeconds = percentile(lags, 0.10)

	m.Cost.ComputeByPrefix = map[string]float64{}
	n := map[string]int{}
	for i := range m.Tasks {
		t := &m.Tasks[i]
		m.Cost.ComputeByPrefix[t.Prefix] += t.ComputeSeconds
		n[t.Prefix]++
	}
	for p, sum := range m.Cost.ComputeByPrefix {
		m.Cost.ComputeByPrefix[p] = sum / float64(n[p])
	}
}

// fitLatencyBandwidth least-squares fits seconds = alpha + bytes/beta.
// Degenerate samples (fewer than 2 points, no byte spread, or a non-positive
// slope) collapse to a pure latency model at the mean duration.
func fitLatencyBandwidth(bytes, secs []float64) TransferFit {
	n := len(bytes)
	if n == 0 {
		return TransferFit{}
	}
	meanX, meanY := 0.0, 0.0
	for i := 0; i < n; i++ {
		meanX += bytes[i]
		meanY += secs[i]
	}
	meanX /= float64(n)
	meanY /= float64(n)
	if n == 1 {
		return TransferFit{Alpha: meanY, Beta: math.Inf(1), Samples: n}
	}
	varX, cov := 0.0, 0.0
	for i := 0; i < n; i++ {
		dx := bytes[i] - meanX
		varX += dx * dx
		cov += dx * (secs[i] - meanY)
	}
	if varX == 0 || cov <= 0 {
		return TransferFit{Alpha: meanY, Beta: math.Inf(1), Samples: n}
	}
	slope := cov / varX // seconds per byte
	alpha := meanY - slope*meanX
	if alpha < 0 {
		alpha = 0
	}
	return TransferFit{Alpha: alpha, Beta: 1 / slope, Samples: n}
}

// percentile interpolates the q-quantile of an unsorted sample (0 when
// empty).
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	w := rank - float64(lo)
	return sorted[lo]*(1-w) + sorted[lo+1]*w
}

// edgeCost predicts the pre-execution fetch cost of dep d consumed on
// worker w (direct plane), preferring the measured edge when one exists.
// netScale divides effective bandwidth and latency.
func (m *Model) edgeCost(d int, from, to string, netScale float64) float64 {
	if from == to {
		return 0
	}
	if e, ok := m.Transfers[EdgeKey{Task: d, To: to}]; ok && !e.ViaProxy {
		return e.Seconds / netScale
	}
	bytes := m.Tasks[d].OutputBytes
	sameNode := m.WorkerHost[from] != "" && m.WorkerHost[from] == m.WorkerHost[to]
	fit := m.Cost.Cross
	if sameNode {
		fit = m.Cost.Local
	}
	if fit.Samples == 0 {
		// No observations on that plane: fall back to the other one.
		if sameNode {
			fit = m.Cost.Cross
		} else {
			fit = m.Cost.Local
		}
	}
	return fit.Seconds(bytes) / netScale
}

// proxyCost predicts the lazy resolve stall of proxied dep d on worker w,
// preferring the measured resolve when one exists.
func (m *Model) proxyCost(d int, to string, netScale float64) float64 {
	if e, ok := m.Transfers[EdgeKey{Task: d, To: to}]; ok && e.ViaProxy {
		return e.ResolveSeconds / netScale
	}
	if m.Cost.Proxy.Samples == 0 {
		return m.edgeCost(d, m.Tasks[d].Worker, to, netScale)
	}
	return m.Cost.Proxy.Seconds(m.Tasks[d].OutputBytes) / netScale
}
