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
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"taskprov/internal/dask"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/provenance"
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

	// What WriteCheckpoint reuses from one write of the checkpoint to the
	// next: the encoded bytes, and the map keys being sorted.
	buf  []byte
	keys []string
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
// intact. The bytes are json.Marshal's, appended without reflection into a
// buffer the checkpoint keeps for its next write: a periodic checkpoint
// allocates nothing in proportion to the frontier.
func WriteCheckpoint(dataDir string, cp *Checkpoint) error {
	b, err := cp.appendJSON(cp.buf[:0])
	if err != nil {
		return fmt.Errorf("resume: encode checkpoint: %w", err)
	}
	cp.buf = b
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("resume: checkpoint dir: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dataDir, CheckpointFile), b); err != nil {
		return fmt.Errorf("resume: write checkpoint: %w", err)
	}
	return nil
}

// appendJSON appends the checkpoint as json.Marshal encodes it: members in
// declaration order, map keys sorted byte-wise (graph "10" before "2"),
// strings escaped as encoding/json does with HTML escaping on, omitempty
// honoured, a nil map as null, and NaN or an infinity refused.
func (cp *Checkpoint) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"attempt":`...)
	dst = strconv.AppendInt(dst, int64(cp.Attempt), 10)
	dst = append(dst, `,"at_seconds":`...)
	dst, err := appendFloat(dst, cp.AtSeconds)
	if err != nil {
		return nil, err
	}

	dst = append(dst, `,"graphs":`...)
	cp.keys = sortedKeys(cp.keys, cp.Graphs)
	if cp.Graphs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '{')
		for i, k := range cp.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			g := cp.Graphs[k]
			dst = provenance.AppendString(dst, k)
			dst = append(dst, `:{"completed":`...)
			dst = strconv.AppendInt(dst, int64(g.Completed), 10)
			dst = append(dst, `,"done":`...)
			dst = strconv.AppendBool(dst, g.Done)
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}

	dst = append(dst, `,"tasks":`...)
	cp.keys = sortedKeys(cp.keys, cp.Tasks)
	if cp.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '{')
		for i, k := range cp.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			t := cp.Tasks[k]
			dst = provenance.AppendString(dst, k)
			dst = append(dst, `:{"graph_id":`...)
			dst = strconv.AppendInt(dst, int64(t.GraphID), 10)
			dst = append(dst, `,"size":`...)
			dst = strconv.AppendInt(dst, t.Size, 10)
			dst = append(dst, `,"stop_seconds":`...)
			if dst, err = appendFloat(dst, t.StopSeconds); err != nil {
				return nil, err
			}
			if len(t.Files) > 0 {
				dst = append(dst, `,"files":[`...)
				for j, fe := range t.Files {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, `{"path":`...)
					dst = provenance.AppendString(dst, fe.Path)
					dst = append(dst, `,"size_after":`...)
					dst = strconv.AppendInt(dst, fe.SizeAfter, 10)
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}

	if len(cp.Blobs) > 0 {
		dst = append(dst, `,"blobs":[`...)
		for i, b := range cp.Blobs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"key":`...)
			dst = provenance.AppendString(dst, b.Key)
			dst = append(dst, `,"owner":`...)
			dst = strconv.AppendInt(dst, int64(b.Owner), 10)
			dst = append(dst, `,"size":`...)
			dst = strconv.AppendInt(dst, b.Size, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// sortedKeys returns m's keys in byte-wise order, in keys' backing array.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendFloat is provenance.AppendFloat, with json.Marshal's refusal of
// what JSON has no number for.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("unsupported value: %v", f)
	}
	return provenance.AppendFloat(dst, f), nil
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
