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
	"strings"

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
// snapshot time. Unlike the event stream it bypasses producer batching, so
// it is often fresher than the log it summarizes: it supplies the
// completions, done marks and blob residency whose events died in unflushed
// batches. It does not shorten the replay — Reconstruct still reads every
// execution, graph and clock record; only proxy events at or before
// AtSeconds are skipped, the blob set standing in for them.
//
// A checkpoint written again and again, as the session's periodic one is,
// changes its tasks through PutTask: a write then encodes only the tasks put
// since the last one. The first write, a write after a re-execution changed
// a task's encoded length, and a write after the map was edited directly
// (seen when its size disagrees with what was last written) encode it whole.
type Checkpoint struct {
	Attempt   int                      `json:"attempt"`
	AtSeconds float64                  `json:"at_seconds"`
	Graphs    map[string]GraphFrontier `json:"graphs"`
	Tasks     map[string]FrontierTask  `json:"tasks"`
	Blobs     []FrontierBlob           `json:"blobs,omitempty"`

	// What WriteCheckpoint keeps from one write to the next. members holds
	// the tasks object's members as last written, in key order, each with
	// its leading comma (`,"key":{…}`); index[i] is the i-th one's key and
	// where it ends in members. queued are the keys PutTask set since.
	members []byte
	index   []member
	queued  []string
	// Reused within one write: the file around the tasks (buf), sorted map
	// keys (keys), and the queued tasks' members encoded (fresh), those of
	// new keys with a pending entry each.
	buf     []byte
	keys    []string
	fresh   []byte
	pend    []pending
	encoded int // members the last write encoded
}

// member is one encoded task's key and the offset just past its bytes.
type member struct {
	key string
	end int
}

// pending is the member of a queued task not written before, encoded at
// fresh[lo:hi]; at is where its key goes in the index.
type pending struct {
	key    string
	lo, hi int
	at     int
}

// NewCheckpoint returns an empty checkpoint for the given attempt.
func NewCheckpoint(attempt int) *Checkpoint {
	return &Checkpoint{
		Attempt: attempt,
		Graphs:  make(map[string]GraphFrontier),
		Tasks:   make(map[string]FrontierTask),
	}
}

// PutTask sets key's task, returning the one it replaced, and queues the key
// for the next write to encode.
func (cp *Checkpoint) PutTask(key string, t FrontierTask) (old FrontierTask, seen bool) {
	old, seen = cp.Tasks[key]
	cp.Tasks[key] = t
	cp.queued = append(cp.queued, key)
	return old, seen
}

// WriteCheckpoint atomically installs the checkpoint in dataDir (temp file +
// fsync + rename), so a crash mid-write leaves the previous checkpoint
// intact. The bytes are json.Marshal's, appended without reflection: the
// tasks, the bulk of the file, from the members the checkpoint keeps
// encoded, the graphs and blobs around them anew. A periodic checkpoint
// encodes the tasks put since the last write and allocates nothing in
// proportion to the frontier.
func WriteCheckpoint(dataDir string, cp *Checkpoint) error {
	head, tasks, tail, err := cp.encode()
	if err != nil {
		return fmt.Errorf("resume: encode checkpoint: %w", err)
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("resume: checkpoint dir: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dataDir, CheckpointFile), head, tasks, tail); err != nil {
		return fmt.Errorf("resume: write checkpoint: %w", err)
	}
	return nil
}

// encode returns the checkpoint as json.Marshal encodes it, in three parts:
// members in declaration order, map keys sorted byte-wise (graph "10"
// before "2"), strings escaped as encoding/json does with HTML escaping on,
// omitempty honoured, a nil map as null, and NaN or an infinity refused.
// head and tail share cp.buf; tasks is cp.members.
func (cp *Checkpoint) encode() (head, tasks, tail []byte, err error) {
	dst := append(cp.buf[:0], `{"attempt":`...)
	dst = strconv.AppendInt(dst, int64(cp.Attempt), 10)
	dst = append(dst, `,"at_seconds":`...)
	if dst, err = appendFloat(dst, cp.AtSeconds); err != nil {
		return nil, nil, nil, err
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
	if cp.Tasks == nil {
		cp.forget()
		dst = append(dst, "null"...)
	} else {
		if err := cp.encodeTasks(); err != nil {
			return nil, nil, nil, err
		}
		dst = append(dst, '{')
		if len(cp.members) > 0 {
			tasks = cp.members[1:] // the first member's comma
		}
	}
	split := len(dst)
	if cp.Tasks != nil {
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
	cp.buf = append(dst, '}')
	return cp.buf[:split], tasks, cp.buf[split:], nil
}

// encodeTasks brings cp.members up to cp.Tasks. It encodes the queued tasks
// only, sorted among themselves: one already written whose member keeps its
// length is copied over the old one in place, and the new ones are merged
// into the buffer from the back. Anything else — a re-execution that changed
// a member's length, a map edited behind PutTask's back — is encoded whole.
func (cp *Checkpoint) encodeTasks() error {
	cp.encoded = 0
	queued := cp.queued
	cp.queued = cp.queued[:0]
	if len(cp.index) == 0 {
		return cp.encodeAll()
	}
	slices.Sort(queued)
	queued = slices.Compact(queued)

	cp.fresh, cp.pend = cp.fresh[:0], cp.pend[:0]
	for _, k := range queued {
		t, ok := cp.Tasks[k]
		if !ok {
			return cp.encodeAll()
		}
		lo := len(cp.fresh)
		var err error
		if cp.fresh, err = cp.appendMember(cp.fresh, k, t); err != nil {
			cp.forget()
			return err
		}
		at, found := slices.BinarySearchFunc(cp.index, k, func(m member, k string) int {
			return strings.Compare(m.key, k)
		})
		if !found {
			cp.pend = append(cp.pend, pending{key: k, lo: lo, hi: len(cp.fresh), at: at})
			continue
		}
		old := cp.members[cp.start(at):cp.index[at].end]
		if len(old) != len(cp.fresh)-lo {
			return cp.encodeAll()
		}
		copy(old, cp.fresh[lo:])
		cp.fresh = cp.fresh[:lo]
	}
	if len(cp.index)+len(cp.pend) != len(cp.Tasks) {
		return cp.encodeAll()
	}
	cp.insert(cp.pend)
	return nil
}

// encodeAll encodes every task anew.
func (cp *Checkpoint) encodeAll() error {
	cp.forget()
	cp.keys = sortedKeys(cp.keys, cp.Tasks)
	for _, k := range cp.keys {
		var err error
		if cp.members, err = cp.appendMember(cp.members, k, cp.Tasks[k]); err != nil {
			cp.forget()
			return err
		}
		cp.index = append(cp.index, member{k, len(cp.members)})
	}
	return nil
}

// forget empties the encoded members, so the next write encodes all tasks.
func (cp *Checkpoint) forget() {
	cp.members, cp.index = cp.members[:0], cp.index[:0]
}

// start is where the i-th member begins.
func (cp *Checkpoint) start(i int) int {
	if i == 0 {
		return 0
	}
	return cp.index[i-1].end
}

// insert merges the new members of adds — in key order, each with the
// position its key goes to — into the members from the back: a member moves
// right once, by the size of the new ones before it.
func (cp *Checkpoint) insert(adds []pending) {
	if len(adds) == 0 {
		return
	}
	shift := 0
	for _, p := range adds {
		shift += p.hi - p.lo
	}
	n, size := len(cp.index), len(cp.members)
	cp.members = slices.Grow(cp.members, shift)[:size+shift]
	cp.index = slices.Grow(cp.index, len(adds))[:n+len(adds)]
	hi, hiEnd := n, size // the members [p.at, hi) move next; they end at hiEnd
	for j := len(adds) - 1; j >= 0; j-- {
		p := adds[j]
		lo := cp.start(p.at)
		copy(cp.members[lo+shift:], cp.members[lo:hiEnd])
		for i := hi - 1; i >= p.at; i-- {
			cp.index[i+j+1] = member{cp.index[i].key, cp.index[i].end + shift}
		}
		shift -= p.hi - p.lo
		end := lo + shift + copy(cp.members[lo+shift:], cp.fresh[p.lo:p.hi])
		cp.index[p.at+j] = member{p.key, end}
		hi, hiEnd = p.at, lo
	}
}

// appendMember appends key's task as a member of the tasks object, leading
// comma included.
func (cp *Checkpoint) appendMember(dst []byte, key string, t FrontierTask) ([]byte, error) {
	cp.encoded++
	dst = append(dst, ',')
	dst = provenance.AppendString(dst, key)
	dst = append(dst, `:{"graph_id":`...)
	dst = strconv.AppendInt(dst, int64(t.GraphID), 10)
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, t.Size, 10)
	dst = append(dst, `,"stop_seconds":`...)
	dst, err := appendFloat(dst, t.StopSeconds)
	if err != nil {
		return dst, err
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
