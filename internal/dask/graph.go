// Package dask reimplements the scheduling model of Dask.distributed, the
// workflow management system the paper instruments: a client submits task
// graphs to a dynamic scheduler that dispatches tasks to multi-threaded
// workers, with data-locality-aware placement, occupancy estimates, work
// stealing, dependency transfers between workers, and the runtime warnings
// (unresponsive event loop, garbage collection) the paper correlates with
// slow tasks.
//
// Everything runs in virtual time on a sim.Kernel, against a platform model
// for communication costs and a posixio/pfs stack for I/O, so the provenance
// framework in internal/core can observe exactly the signals the paper's
// plugins capture.
package dask

import (
	"fmt"
	"strings"

	"taskprov/internal/sim"
)

// TaskKey uniquely identifies a task within a workflow, e.g.
// "('getitem-24266c', 63)" or "imread-0007".
type TaskKey string

// KeyPrefix derives the Dask "prefix" of a key: the leading operation name
// stem, with trailing hash/index decorations stripped. Examples:
//
//	"imread-0007"                    -> "imread"
//	"('getitem-24266c', 63)"         -> "getitem"
//	"read_parquet-fused-assign-a1b2" -> "read_parquet-fused-assign"
func KeyPrefix(k TaskKey) string {
	s := string(k)
	if strings.HasPrefix(s, "('") {
		s = s[2:]
		if i := strings.IndexAny(s, "'"); i >= 0 {
			s = s[:i]
		}
	}
	// Strip a trailing "-<hex-or-digits>" decoration, keeping compound
	// operation names like "read_parquet-fused-assign" intact.
	if i := strings.LastIndex(s, "-"); i > 0 {
		suffix := s[i+1:]
		if suffix != "" && isHashy(suffix) {
			s = s[:i]
		}
	}
	return s
}

func isHashy(s string) bool {
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// KeyGroup derives the Dask "group": the key with its positional index
// stripped, identifying the set of tasks created by one collection
// operation. For tuple keys "('name-hash', 3)" the group is "name-hash".
func KeyGroup(k TaskKey) string {
	s := string(k)
	if strings.HasPrefix(s, "('") {
		s = s[2:]
		if i := strings.Index(s, "'"); i >= 0 {
			return s[:i]
		}
	}
	return s
}

// TaskContext is passed to a task's Run body; it provides virtual compute
// time, instrumented POSIX I/O on the run's file system, and a per-task
// deterministic RNG. It is defined in worker.go where its methods live.

// TaskFunc is a task body. It runs on one worker thread (inside a sim.Proc)
// and may compute, perform I/O, and set its output size.
type TaskFunc func(ctx *TaskContext)

// TaskSpec is the immutable definition of one task.
type TaskSpec struct {
	Key  TaskKey
	Deps []TaskKey

	// Run is the task body; nil means "sleep for EstDuration".
	Run TaskFunc

	// OutputSize is the size in bytes of the task's result in distributed
	// memory (Run may override it via ctx.SetOutputSize).
	OutputSize int64

	// EstDuration seeds the scheduler's occupancy estimate before any task
	// of this prefix has completed; it is also the default body duration
	// for tasks without a Run function.
	EstDuration sim.Time

	// BlocksEventLoop marks task bodies that hold the worker's event loop
	// (GIL-holding native code in real Dask); long blocking tasks trigger
	// "unresponsive event loop" warnings.
	BlocksEventLoop bool

	// Restrictions, when non-empty, limits execution to the named workers.
	Restrictions []string

	// MaxRetries is how many times the scheduler re-runs the task after a
	// failure before marking it erred (distributed's retries=).
	MaxRetries int
}

// Prefix returns the task's Dask prefix (see KeyPrefix).
func (t *TaskSpec) Prefix() string { return KeyPrefix(t.Key) }

// Group returns the task's Dask group (see KeyGroup).
func (t *TaskSpec) Group() string { return KeyGroup(t.Key) }

// Graph is one task graph (the unit the client submits).
type Graph struct {
	ID        int
	tasks     map[TaskKey]*TaskSpec
	externals map[TaskKey]bool
	order     []TaskKey // topological order, set by Finalize
}

// NewGraph creates an empty graph with the given ID.
func NewGraph(id int) *Graph {
	return &Graph{ID: id, tasks: make(map[TaskKey]*TaskSpec), externals: make(map[TaskKey]bool)}
}

// AddExternal declares a cross-graph dependency: a key produced by an
// earlier graph that must already be in distributed memory at submission
// time (a future held by the client, in Dask terms).
func (g *Graph) AddExternal(k TaskKey) {
	g.externals[k] = true
	g.order = nil
}

// Add inserts a task. It panics on duplicate keys — graphs are built by
// generators, so a duplicate is a programming error.
func (g *Graph) Add(spec *TaskSpec) {
	if _, dup := g.tasks[spec.Key]; dup {
		panic(fmt.Sprintf("dask: duplicate task key %q in graph %d", spec.Key, g.ID))
	}
	g.tasks[spec.Key] = spec
	g.order = nil
}

// Task returns the spec for a key.
func (g *Graph) Task(k TaskKey) (*TaskSpec, bool) {
	t, ok := g.tasks[k]
	return t, ok
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Keys returns all task keys in topological order (Finalize must have
// succeeded, or the graph must be finalizable).
func (g *Graph) Keys() []TaskKey {
	if g.order == nil {
		if err := g.Finalize(); err != nil {
			panic(err)
		}
	}
	return append([]TaskKey(nil), g.order...)
}

// Finalize validates the graph (all dependencies present, no cycles) and
// computes a deterministic topological order used for task priorities.
func (g *Graph) Finalize() error {
	for k, t := range g.tasks {
		for _, d := range t.Deps {
			if _, ok := g.tasks[d]; !ok && !g.externals[d] {
				return fmt.Errorf("dask: graph %d task %q depends on missing %q", g.ID, k, d)
			}
		}
	}
	// Kahn's algorithm with sorted tie-breaking for determinism. External
	// dependencies are satisfied by definition and do not contribute edges.
	indeg := make(map[TaskKey]int, len(g.tasks))
	dependents := make(map[TaskKey][]TaskKey, len(g.tasks))
	for k, t := range g.tasks {
		indeg[k] += 0
		for _, d := range t.Deps {
			if _, internal := g.tasks[d]; !internal {
				continue
			}
			indeg[k]++
			dependents[d] = append(dependents[d], k)
		}
	}
	// The frontier is a min-heap of ready keys: popping the smallest one is
	// the deterministic tie-break.
	var frontier keyHeap
	for k, n := range indeg {
		if n == 0 {
			frontier.push(k)
		}
	}
	order := make([]TaskKey, 0, len(g.tasks))
	for len(frontier) > 0 {
		k := frontier.pop()
		order = append(order, k)
		for _, d := range dependents[k] {
			indeg[d]--
			if indeg[d] == 0 {
				frontier.push(d)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return fmt.Errorf("dask: graph %d contains a dependency cycle", g.ID)
	}
	g.order = order
	return nil
}

// keyHeap is a binary min-heap of task keys.
type keyHeap []TaskKey

func (h *keyHeap) push(k TaskKey) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= k {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
}

func (h *keyHeap) pop() TaskKey {
	s := *h
	n := len(s) - 1
	top, k := s[0], s[n]
	s[n] = ""
	*h = s[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && s[child+1] < s[child] {
			child++
		}
		if k <= s[child] {
			break
		}
		s[i] = s[child]
		i = child
	}
	if n > 0 {
		s[i] = k
	}
	return top
}
