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
	"math/bits"
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

// Graph is one task graph (the unit the client submits). It owns its tasks:
// Add copies each spec into a chunked slab and its Deps and Restrictions
// into per-graph arenas, Key interns key bytes into append-only chunks, and
// Finalize works over dense indices, so building and ordering a graph costs a
// handful of mallocs per graph, not per task.
type Graph struct {
	ID int

	// slab holds the specs in Add order; chunk c holds slabChunkLen(c) of
	// them and is never reallocated, so a spec's address is stable.
	slab      [][]TaskSpec
	index     map[TaskKey]int32 // key -> index in Add order
	externals map[TaskKey]bool
	deps      arena[TaskKey]
	restrict  arena[string]
	nDeps     int             // total dependency entries, over every task
	keys      strings.Builder // the current chunk of interned key bytes

	order []int32 // topological order as indices in Add order, set by Finalize
}

// NewGraph creates an empty graph with the given ID.
func NewGraph(id int) *Graph {
	return &Graph{ID: id, index: make(map[TaskKey]int32)}
}

// The slab's first chunk holds slabFirst specs; chunks double slabDoublings
// times, and every chunk after those holds slabFirst<<slabDoublings specs.
// Small graphs waste little of their last chunk, large ones at most one
// chunk.
const (
	slabFirst     = 16
	slabDoublings = 5
)

// slabChunkLen is the number of specs chunk c holds.
func slabChunkLen(c int) int { return slabFirst << min(c, slabDoublings) }

// slabSlot locates the spec of index i: its chunk and its offset there.
func slabSlot(i int) (c, off int) {
	if q := i/slabFirst + 1; q < 1<<slabDoublings {
		c = bits.Len(uint(q)) - 1
		return c, i - slabFirst*(1<<c-1)
	}
	i -= slabFirst * (1<<slabDoublings - 1)
	const full = slabFirst << slabDoublings
	return slabDoublings + i/full, i % full
}

// spec returns the spec of index i (in Add order).
func (g *Graph) spec(i int32) *TaskSpec {
	c, off := slabSlot(int(i))
	return &g.slab[c][off]
}

// arena hands out copies of slices, carved from chunks it never reallocates:
// a slice it returned keeps its elements, unshared, for the graph's life.
type arena[T any] struct{ buf []T }

// Arena chunks start at arenaFirst elements and double up to arenaMax; a
// longer slice gets a chunk of its own length.
const (
	arenaFirst = 64
	arenaMax   = 4096
)

// copy returns a copy of src from the arena. A nil src stays nil and an
// empty one stays empty, so a copy reads like its source.
func (a *arena[T]) copy(src []T) []T {
	n := len(src)
	if n == 0 {
		if src == nil {
			return nil
		}
		return []T{}
	}
	if cap(a.buf)-len(a.buf) < n {
		size := min(max(2*cap(a.buf), arenaFirst), arenaMax)
		a.buf = make([]T, 0, max(size, n))
	}
	start := len(a.buf)
	a.buf = append(a.buf, src...)
	return a.buf[start:len(a.buf):len(a.buf)]
}

// Key chunks start at keyChunkFirst bytes and double up to keyChunkMax.
const (
	keyChunkFirst = 512
	keyChunkMax   = 16 << 10
)

// Key interns b as a task key of this graph and returns it; b is not kept,
// so a generator can render keys into a stack buffer. The bytes are copied
// into the graph's current key chunk, a strings.Builder that is only ever
// appended to: the key is a substring of the chunk, and since no byte of a
// chunk is written twice and a full chunk is replaced rather than grown, the
// key's bytes never change for as long as the key is held.
func (g *Graph) Key(b []byte) TaskKey {
	if g.keys.Cap()-g.keys.Len() < len(b) {
		size := min(max(2*g.keys.Cap(), keyChunkFirst), keyChunkMax)
		g.keys = strings.Builder{}
		g.keys.Grow(max(size, len(b)))
	}
	start := g.keys.Len()
	g.keys.Write(b)
	return TaskKey(g.keys.String()[start:])
}

// AddExternal declares a cross-graph dependency: a key produced by an
// earlier graph that must already be in distributed memory at submission
// time (a future held by the client, in Dask terms).
func (g *Graph) AddExternal(k TaskKey) {
	if g.externals == nil {
		g.externals = make(map[TaskKey]bool)
	}
	g.externals[k] = true
	g.order = nil
}

// Add inserts a copy of spec: the graph keeps none of the caller's slices,
// so the caller may reuse spec and its Deps and Restrictions once Add
// returns. It panics on duplicate keys — graphs are built by generators, so
// a duplicate is a programming error.
func (g *Graph) Add(spec *TaskSpec) {
	if _, dup := g.index[spec.Key]; dup {
		panic(fmt.Sprintf("dask: duplicate task key %q in graph %d", spec.Key, g.ID))
	}
	i := len(g.index)
	c, off := slabSlot(i)
	if c == len(g.slab) {
		g.slab = append(g.slab, make([]TaskSpec, slabChunkLen(c)))
	}
	// Field by field: copying *spec whole would hand the caller's slices to
	// the graph.
	g.slab[c][off] = TaskSpec{
		Key:             spec.Key,
		Deps:            g.deps.copy(spec.Deps),
		Run:             spec.Run,
		OutputSize:      spec.OutputSize,
		EstDuration:     spec.EstDuration,
		BlocksEventLoop: spec.BlocksEventLoop,
		Restrictions:    g.restrict.copy(spec.Restrictions),
		MaxRetries:      spec.MaxRetries,
	}
	g.index[spec.Key] = int32(i)
	g.nDeps += len(spec.Deps)
	g.order = nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.index) }

// topo returns the topological order as indices in Add order, finalizing the
// graph first if it must; an invalid graph panics.
func (g *Graph) topo() []int32 {
	if g.order == nil {
		if err := g.Finalize(); err != nil {
			panic(err)
		}
	}
	return g.order
}

// Finalize validates the graph (all dependencies present, no cycles) and
// computes a deterministic topological order used for task priorities: of
// the ready tasks, the one with the smallest key comes first. It works over
// the tasks' indices in Add order; a missing dependency is reported for the
// first task, in that order, that names one.
func (g *Graph) Finalize() error {
	n := len(g.index)
	// One scratch array: each dependency entry resolved to its task's index
	// (-1 for an external), the in-degrees over internal edges, the CSR
	// offsets of the dependents lists, the lists (at most one entry per
	// dependency entry) and the frontier heap.
	scratch := make([]int32, g.nDeps+n+(n+1)+g.nDeps+n)
	resolved, scratch := scratch[:g.nDeps], scratch[g.nDeps:]
	indeg, scratch := scratch[:n], scratch[n:]
	start, scratch := scratch[:n+1], scratch[n+1:]
	dependents, scratch := scratch[:g.nDeps], scratch[g.nDeps:]
	frontier := idxHeap{g: g, s: scratch[:0:n]}

	// start[j] first counts j's dependents; the running sum then makes it
	// the end of j's list, and filling the lists backwards moves it to the
	// list's start.
	e := 0
	for i := 0; i < n; i++ {
		t := g.spec(int32(i))
		for _, d := range t.Deps {
			j, internal := g.index[d]
			switch {
			case internal:
				indeg[i]++
				start[j]++
			case g.externals[d]:
				j = -1 // satisfied by definition: no edge
			default:
				return fmt.Errorf("dask: graph %d task %q depends on missing %q", g.ID, t.Key, d)
			}
			resolved[e] = j
			e++
		}
	}
	for j := 1; j <= n; j++ {
		start[j] += start[j-1]
	}
	for i := n - 1; i >= 0; i-- {
		nd := len(g.spec(int32(i)).Deps)
		for _, j := range resolved[e-nd : e] {
			if j >= 0 {
				start[j]--
				dependents[start[j]] = int32(i)
			}
		}
		e -= nd
	}

	// Kahn's algorithm; popping the smallest ready key is the deterministic
	// tie-break.
	for i, d := range indeg {
		if d == 0 {
			frontier.push(int32(i))
		}
	}
	order := make([]int32, 0, n)
	for len(frontier.s) > 0 {
		i := frontier.pop()
		order = append(order, i)
		for _, d := range dependents[start[i]:start[i+1]] {
			indeg[d]--
			if indeg[d] == 0 {
				frontier.push(d)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("dask: graph %d contains a dependency cycle", g.ID)
	}
	g.order = order
	return nil
}

// idxHeap is a binary min-heap of task indices, ordered by their keys.
type idxHeap struct {
	g *Graph
	s []int32
}

func (h *idxHeap) less(a, b int32) bool { return h.g.spec(a).Key < h.g.spec(b).Key }

func (h *idxHeap) push(x int32) {
	h.s = append(h.s, x)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(x, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
}

func (h *idxHeap) pop() int32 {
	s := h.s
	n := len(s) - 1
	top, x := s[0], s[n]
	h.s = s[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h.less(s[child+1], s[child]) {
			child++
		}
		if !h.less(s[child], x) {
			break
		}
		s[i] = s[child]
		i = child
	}
	if n > 0 {
		s[i] = x
	}
	return top
}
