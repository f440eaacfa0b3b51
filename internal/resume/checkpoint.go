// Package resume turns a crashed run's provenance back into scheduler
// state: it replays the durable event log (single broker or cluster dirs)
// plus the latest frontier checkpoint and produces the completion frontier a
// new session incarnation seeds itself with — completed tasks memoized,
// outputs revalidated against surviving proxy-store blobs, everything else
// rescheduled. It also owns the attempt-lineage record (attempts.json) that
// fences incarnations of the same data dir against each other.
//
// It is deliberately below internal/core in the dependency order (core
// imports resume, never the reverse) so the reconstruction logic is testable
// against raw data dirs.
package resume

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"taskprov/internal/dask"
	"taskprov/internal/mofka/wal"
)

// CheckpointFile is the frontier checkpoint's file name inside a run's data
// directory.
const CheckpointFile = "checkpoint.json"

// GraphFrontier is one graph's completion high-water mark.
type GraphFrontier struct {
	// Completed counts this graph's finished tasks at checkpoint time.
	Completed int `json:"completed"`
	// Done marks that the graph-done provenance event was emitted.
	Done bool `json:"done"`
}

// FrontierTask is one completed task in the frontier: enough to memoize it
// without its full execution record.
type FrontierTask struct {
	GraphID     int               `json:"graph_id"`
	Size        int64             `json:"size"`
	StopSeconds float64           `json:"stop_seconds"`
	Files       []dask.FileEffect `json:"files,omitempty"`
}

// FrontierBlob is one live proxy-store blob at checkpoint time.
type FrontierBlob struct {
	Key   string `json:"key"`
	Owner int    `json:"owner"`
	Size  int64  `json:"size"`
}

// Checkpoint is the periodic lightweight frontier snapshot a session writes
// next to its event log: completed tasks per graph, live blobs, and the
// snapshot time. It exists so resume cost is O(crash tail), not O(run) —
// only WAL events newer than AtSeconds must be replayed on top. Unlike the
// event stream it bypasses producer batching, so it is often fresher than
// the log it summarizes.
type Checkpoint struct {
	Attempt   int                      `json:"attempt"`
	AtSeconds float64                  `json:"at_seconds"`
	Graphs    map[string]GraphFrontier `json:"graphs"`
	Tasks     map[string]FrontierTask  `json:"tasks"`
	Blobs     []FrontierBlob           `json:"blobs,omitempty"`
}

// NewCheckpoint returns an empty checkpoint for the given attempt.
func NewCheckpoint(attempt int) *Checkpoint {
	return &Checkpoint{
		Attempt: attempt,
		Graphs:  make(map[string]GraphFrontier),
		Tasks:   make(map[string]FrontierTask),
	}
}

// WriteCheckpoint atomically installs the checkpoint in dataDir (temp file +
// fsync + rename), so a crash mid-write leaves the previous checkpoint
// intact.
func WriteCheckpoint(dataDir string, cp *Checkpoint) error {
	b, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("resume: encode checkpoint: %w", err)
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("resume: checkpoint dir: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dataDir, CheckpointFile), b); err != nil {
		return fmt.Errorf("resume: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads dataDir's frontier checkpoint. A missing file is not
// an error: it returns (nil, nil), and reconstruction replays the whole log.
func LoadCheckpoint(dataDir string) (*Checkpoint, error) {
	b, err := os.ReadFile(filepath.Join(dataDir, CheckpointFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resume: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("resume: corrupt checkpoint: %w", err)
	}
	if cp.Graphs == nil {
		cp.Graphs = make(map[string]GraphFrontier)
	}
	if cp.Tasks == nil {
		cp.Tasks = make(map[string]FrontierTask)
	}
	return &cp, nil
}
