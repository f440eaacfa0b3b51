package resume

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	mcluster "taskprov/internal/mofka/cluster"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

// ErrCompleted reports that the data dir's last attempt finished cleanly —
// there is nothing to resume.
var ErrCompleted = errors.New("resume: run completed; nothing to resume")

// State is the reconstructed scheduler frontier a new session incarnation
// seeds itself with.
type State struct {
	// Attempt is the incarnation number the resumed session runs as
	// (previous attempt + 1).
	Attempt int
	// ResumedFrom is the crashed attempt being continued.
	ResumedFrom int

	// Memos maps every provably completed task to its memo: output size,
	// and — when its blob still lives in the proxy store — the owning worker
	// rank to revalidate it against.
	Memos map[dask.TaskKey]dask.ResumeMemo
	// ExecCounts is the number of recorded executions per key in the
	// surviving log (for no-duplicate-execution assertions; recomputation of
	// lost outputs legitimately appends more).
	ExecCounts map[dask.TaskKey]int
	// DoneGraphs lists graphs whose done event reached the log; the resumed
	// scheduler suppresses their duplicate emission.
	DoneGraphs []int

	// FileEffects is the write-side filesystem history of all completed
	// tasks, ordered by completion time: replaying it with last-writer-wins
	// rebuilds the PFS state memoized tasks would otherwise have left
	// behind.
	FileEffects []dask.FileEffect

	// ResumeBase is the virtual time the resumed kernel fast-forwards to
	// before anything runs, placing the new attempt's events strictly after
	// every surviving event of the crashed one.
	ResumeBase sim.Time

	// Frontier is the merged completion frontier (checkpoint ∪ log) the
	// resumed session seeds its own checkpointer with, so an attempt-3 resume
	// still sees attempt-1 completions.
	Frontier *Checkpoint
}

// Reconstruct replays dataDir's provenance into a resumable State: lineage
// is read (and validated — a completed run refuses), the frontier checkpoint
// is loaded, and every execution, graph and clock record of the log is
// merged with it; of the proxy events only those after the checkpoint's
// snapshot time are replayed over its blob set. The log is opened
// read-only; nothing on disk changes.
func Reconstruct(dataDir string) (*State, error) {
	if !mcluster.IsLogDir(dataDir) {
		return nil, fmt.Errorf("resume: %s holds no durable event log", dataDir)
	}
	return reconstruct(dataDir, mcluster.OpenLog)
}

// reconstruct is Reconstruct over the log as open loads it.
func reconstruct(dataDir string, open func(dataDir string) (*mofka.Broker, error)) (*State, error) {
	lineage, err := LoadLineage(dataDir)
	if err != nil {
		return nil, err
	}
	prior := lineage.Last()
	if prior.Attempt == 0 {
		// Pre-lineage data dir: a clean run wrote final metadata
		// (wall_seconds > 0); anything else is a crashed attempt 1.
		completed, err := legacyCompleted(dataDir)
		if err != nil {
			return nil, err
		}
		if completed {
			return nil, ErrCompleted
		}
		prior = Attempt{Attempt: 1}
	}
	if prior.Completed {
		return nil, ErrCompleted
	}

	cp, err := LoadCheckpoint(dataDir)
	if err != nil {
		return nil, err
	}
	// A checkpoint from an older incarnation (the newer one crashed before
	// its first tick) is still valid: it summarizes a prefix of the same
	// merged log, and the proxy events after its snapshot time, which span
	// more than one attempt, are what the count-based blob replay handles.
	if cp == nil {
		cp = NewCheckpoint(prior.Attempt)
		cp.AtSeconds = -1 // replay everything
	}

	broker, err := open(dataDir)
	if err != nil {
		return nil, fmt.Errorf("resume: open log: %w", err)
	}
	defer func() { _ = broker.Close() }() // read-only in-memory view

	st := &State{
		Attempt:     prior.Attempt + 1,
		ResumedFrom: prior.Attempt,
		Memos:       make(map[dask.TaskKey]dask.ResumeMemo),
		ExecCounts:  make(map[dask.TaskKey]int),
	}

	// Completed tasks: checkpointed frontier plus every execution record.
	type doneTask struct {
		graph int
		size  int64
		stop  float64
		files []dask.FileEffect
	}
	tasks := make(map[string]doneTask, len(cp.Tasks))
	for key, t := range cp.Tasks {
		tasks[key] = doneTask{graph: t.GraphID, size: t.Size, stop: t.StopSeconds, files: t.Files}
	}
	recs := provenance.NewRecords(broker)
	execs, err := recs.Executions()
	if err != nil {
		return nil, fmt.Errorf("resume: executions: %w", err)
	}
	maxAt := cp.AtSeconds
	for _, rec := range execs {
		st.ExecCounts[rec.Key]++
		stop := rec.Stop.Seconds()
		maxAt = math.Max(maxAt, stop)
		if prev, ok := tasks[string(rec.Key)]; !ok || stop >= prev.stop {
			tasks[string(rec.Key)] = doneTask{graph: rec.GraphID, size: rec.OutputSize, stop: stop, files: rec.Files}
		}
	}

	// Live blobs, reconstructed count-based: partitioned topics lose
	// cross-partition ordering, but publishes and frees per key are balanced
	// deltas, so (checkpoint presence + tail publishes − tail frees) > 0
	// means resident. Owner/size come from the newest surviving publish.
	type blobState struct {
		residual int
		owner    int
		size     int64
		at       float64
	}
	blobs := make(map[string]*blobState, len(cp.Blobs))
	for _, b := range cp.Blobs {
		blobs[b.Key] = &blobState{residual: 1, owner: b.Owner, size: b.Size, at: cp.AtSeconds}
	}
	proxyEvents, err := recs.Proxy()
	if err != nil {
		return nil, fmt.Errorf("resume: proxy events: %w", err)
	}
	for _, ev := range proxyEvents {
		at := ev.At.Seconds()
		maxAt = math.Max(maxAt, at)
		if at <= cp.AtSeconds {
			continue // already reflected in the checkpoint
		}
		b := blobs[string(ev.Key)]
		if b == nil {
			b = &blobState{at: -1}
			blobs[string(ev.Key)] = b
		}
		switch ev.Op {
		case dask.ProxyOpPublish:
			b.residual++
			if at >= b.at {
				b.owner = dask.RankFromAddr(ev.Worker)
				b.size = ev.Bytes
				b.at = at
			}
		case dask.ProxyOpFree, dask.ProxyOpReclaim:
			b.residual--
		}
	}

	// Memoize: every completed task, resolvable when its blob survived. A
	// blob without an execution record (the record was in an unflushed
	// batch; topics lose their tails independently) still memoizes — the
	// publish proves completion.
	for key, t := range tasks {
		memo := dask.ResumeMemo{Size: t.size, Owner: -1}
		if b := blobs[key]; b != nil && b.residual > 0 {
			memo.Resolvable = true
			memo.Owner = b.owner
			if b.size > 0 {
				memo.Size = b.size
			}
		}
		st.Memos[dask.TaskKey(key)] = memo
	}
	for key, b := range blobs {
		if _, known := tasks[key]; known || b.residual <= 0 {
			continue
		}
		st.Memos[dask.TaskKey(key)] = dask.ResumeMemo{Size: b.size, Resolvable: true, Owner: b.owner}
	}

	// Completed graphs. Two distinct notions: doneLogged (the done event
	// itself survives in the WAL — the resumed session must suppress its
	// duplicate) and doneEvidenced (checkpoint Done marks too — the event may
	// have died in an unflushed batch, so the resumed session must RE-emit it
	// or the merged log never records the graph finishing).
	doneLogged := make(map[int]bool)
	doneEvidenced := make(map[int]bool)
	for id, g := range cp.Graphs {
		if n, err := strconv.Atoi(id); err == nil && g.Done {
			doneEvidenced[n] = true
		}
	}
	graphEvents, err := recs.Graphs()
	if err != nil {
		return nil, fmt.Errorf("resume: graph events: %w", err)
	}
	for _, g := range graphEvents {
		maxAt = math.Max(maxAt, g.At)
		if g.Event == provenance.GraphDone {
			doneLogged[g.GraphID] = true
			doneEvidenced[g.GraphID] = true
		}
	}
	for id := range doneLogged {
		st.DoneGraphs = append(st.DoneGraphs, id)
	}
	sort.Ints(st.DoneGraphs)

	// File effects in completion order: later writers win (CREATE truncates,
	// so replay must preserve order, not take maxima).
	type timedEffects struct {
		stop  float64
		key   string
		files []dask.FileEffect
	}
	var ordered []timedEffects
	for key, t := range tasks {
		if len(t.files) > 0 {
			ordered = append(ordered, timedEffects{stop: t.stop, key: key, files: t.files})
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].stop != ordered[j].stop {
			return ordered[i].stop < ordered[j].stop
		}
		return ordered[i].key < ordered[j].key
	})
	for _, te := range ordered {
		st.FileEffects = append(st.FileEffects, te.files...)
	}

	// The remaining topics only contribute to the clock frontier.
	for _, err := range []error{
		latest(&maxAt, recs.TaskMeta, func(r dask.TaskMeta) sim.Time { return r.At }),
		latest(&maxAt, recs.Transitions, func(r dask.Transition) sim.Time { return r.At }),
		latest(&maxAt, recs.Transfers, func(r dask.Transfer) sim.Time { return r.Stop }),
		latest(&maxAt, recs.Warnings, func(r dask.Warning) sim.Time { return r.At }),
		latest(&maxAt, recs.Heartbeats, func(r dask.WorkerMetrics) sim.Time { return r.At }),
		latest(&maxAt, recs.Steals, func(r dask.StealEvent) sim.Time { return r.At }),
	} {
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
	}
	if maxAt < 0 {
		maxAt = 0
	}
	st.ResumeBase = sim.Seconds(math.Ceil(maxAt) + 1)

	// The merged frontier, re-checkpointed under the new attempt so the
	// resumed session's own checkpoints keep covering prior attempts' work.
	fr := NewCheckpoint(st.Attempt)
	fr.AtSeconds = st.ResumeBase.Seconds()
	for key, t := range tasks {
		fr.Tasks[key] = FrontierTask{GraphID: t.graph, Size: t.size, StopSeconds: t.stop, Files: t.files}
		g := fr.Graphs[strconv.Itoa(t.graph)]
		g.Completed++
		fr.Graphs[strconv.Itoa(t.graph)] = g
	}
	for id := range doneEvidenced {
		g := fr.Graphs[strconv.Itoa(id)]
		g.Done = true
		fr.Graphs[strconv.Itoa(id)] = g
	}
	var blobKeys []string
	for key, b := range blobs {
		if b.residual > 0 {
			blobKeys = append(blobKeys, key)
		}
	}
	sort.Strings(blobKeys)
	for _, key := range blobKeys {
		b := blobs[key]
		fr.Blobs = append(fr.Blobs, FrontierBlob{Key: key, Owner: b.owner, Size: b.size})
	}
	st.Frontier = fr
	return st, nil
}

// latest raises maxAt to the newest timestamp, in virtual seconds, among a
// topic's events. A topic minimal logs do not have contributes nothing.
func latest[T any](maxAt *float64, read func() ([]T, error), at func(T) sim.Time) error {
	recs, err := read()
	if errors.Is(err, mofka.ErrNoTopic) {
		return nil
	}
	for _, r := range recs {
		*maxAt = math.Max(*maxAt, at(r).Seconds())
	}
	return err
}

// legacyCompleted detects a finished pre-lineage run from its metadata.json
// (written only at clean end, with a positive wall time).
func legacyCompleted(dataDir string) (bool, error) {
	b, err := os.ReadFile(filepath.Join(dataDir, "metadata.json"))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("resume: read metadata: %w", err)
	}
	var m struct {
		WallSeconds float64 `json:"wall_seconds"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return false, fmt.Errorf("resume: corrupt metadata: %w", err)
	}
	return m.WallSeconds > 0, nil
}
