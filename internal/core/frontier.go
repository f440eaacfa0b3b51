package core

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"taskprov/internal/dask"
	"taskprov/internal/resume"
	"taskprov/internal/sim"
)

// frontierPlugin observes the run and maintains the completion frontier the
// periodic checkpoint writes: completed tasks (with their file effects),
// graph done marks, and live proxy-store blobs. It keeps the frontier in the
// checkpoint's own form — per-graph counts kept as tasks complete, blobs in
// key order — so a checkpoint is written from it as it stands, without a
// copy. It is both a scheduler and a worker plugin. On a resumed session it
// starts from the reconstructed frontier so checkpoints keep covering prior
// attempts' work.
type frontierPlugin struct {
	dask.NopSchedulerPlugin
	dask.NopWorkerPlugin

	mu sync.Mutex
	cp *resume.Checkpoint
}

func newFrontierPlugin(attempt int, resumed *resume.State) *frontierPlugin {
	f := &frontierPlugin{cp: resume.NewCheckpoint(attempt)}
	if resumed != nil {
		seed := resumed.Frontier
		for key, t := range seed.Tasks {
			f.putTask(key, t)
		}
		for id, g := range seed.Graphs {
			if n, err := strconv.Atoi(id); err == nil && g.Done {
				f.GraphDone(n, 0)
			}
		}
		for _, b := range seed.Blobs {
			f.putBlob(b)
		}
	}
	return f
}

// TaskExecuted records a task completion in the frontier. Re-executions
// overwrite (latest effects win, matching the resume-side merge).
func (f *frontierPlugin) TaskExecuted(e dask.TaskExecution) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.putTask(string(e.Key), resume.FrontierTask{
		GraphID:     e.GraphID,
		Size:        e.OutputSize,
		StopSeconds: e.Stop.Seconds(),
		Files:       e.Files,
	})
}

// putTask sets a task's entry, keeping the per-graph completed counts those
// of the task set. It goes through Checkpoint.PutTask, so the next write
// encodes only the tasks set since the last. Caller holds f.mu.
func (f *frontierPlugin) putTask(key string, t resume.FrontierTask) {
	old, seen := f.cp.PutTask(key, t)
	if seen && old.GraphID == t.GraphID {
		return
	}
	if seen {
		f.count(old.GraphID, -1)
	}
	f.count(t.GraphID, 1)
}

// count moves graph id's completed count by d. A graph with nothing
// completed and no done mark has no entry.
func (f *frontierPlugin) count(id, d int) {
	k := strconv.Itoa(id)
	g := f.cp.Graphs[k]
	g.Completed += d
	if g == (resume.GraphFrontier{}) {
		delete(f.cp.Graphs, k)
		return
	}
	f.cp.Graphs[k] = g
}

// GraphDone marks a graph's done event as emitted.
func (f *frontierPlugin) GraphDone(id int, _ sim.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := strconv.Itoa(id)
	g := f.cp.Graphs[k]
	g.Done = true
	f.cp.Graphs[k] = g
}

// ProxyEvent tracks blob residency: publishes add (or replace) a blob, frees
// and crash reclaims remove it.
func (f *frontierPlugin) ProxyEvent(e dask.ProxyEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch e.Op {
	case dask.ProxyOpPublish:
		f.putBlob(resume.FrontierBlob{
			Key:   string(e.Key),
			Owner: dask.RankFromAddr(e.Worker),
			Size:  e.Bytes,
		})
	case dask.ProxyOpFree, dask.ProxyOpReclaim:
		if i, ok := f.blob(string(e.Key)); ok {
			f.cp.Blobs = slices.Delete(f.cp.Blobs, i, i+1)
		}
	}
}

// blob finds key among the blobs, which stay in key order.
func (f *frontierPlugin) blob(key string) (int, bool) {
	return slices.BinarySearchFunc(f.cp.Blobs, key, func(b resume.FrontierBlob, key string) int {
		return strings.Compare(b.Key, key)
	})
}

// putBlob adds b, or replaces the blob of its key.
func (f *frontierPlugin) putBlob(b resume.FrontierBlob) {
	if i, ok := f.blob(b.Key); ok {
		f.cp.Blobs[i] = b
	} else {
		f.cp.Blobs = slices.Insert(f.cp.Blobs, i, b)
	}
}

// write installs the frontier as dataDir's checkpoint, taken at virtual time
// at.
func (f *frontierPlugin) write(dataDir string, at sim.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cp.AtSeconds = at.Seconds()
	return resume.WriteCheckpoint(dataDir, f.cp)
}
