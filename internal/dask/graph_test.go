package dask

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"taskprov/internal/sim"
)

func TestKeyPrefix(t *testing.T) {
	cases := map[TaskKey]string{
		"imread-0007":                         "imread",
		"('getitem-24266c', 63)":              "getitem",
		"read_parquet-fused-assign-a1b2":      "read_parquet-fused-assign",
		"normalize":                           "normalize",
		"random_split_take-3f2a":              "random_split_take",
		"('read_parquet-fused-assign-9c', 4)": "read_parquet-fused-assign",
	}
	for k, want := range cases {
		if got := KeyPrefix(k); got != want {
			t.Errorf("KeyPrefix(%q) = %q, want %q", k, got, want)
		}
	}
}

func TestKeyGroup(t *testing.T) {
	if got := KeyGroup("('getitem-24266c', 63)"); got != "getitem-24266c" {
		t.Errorf("KeyGroup tuple = %q", got)
	}
	if got := KeyGroup("imread-0007"); got != "imread-0007" {
		t.Errorf("KeyGroup plain = %q", got)
	}
}

func TestGraphTopoOrder(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "c", Deps: []TaskKey{"a", "b"}})
	g.Add(&TaskSpec{Key: "a"})
	g.Add(&TaskSpec{Key: "b", Deps: []TaskKey{"a"}})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	order := g.Keys()
	pos := map[TaskKey]int{}
	for i, k := range order {
		pos[k] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Fatalf("order = %v", order)
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a", Deps: []TaskKey{"b"}})
	g.Add(&TaskSpec{Key: "b", Deps: []TaskKey{"a"}})
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphMissingDepDetected(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a", Deps: []TaskKey{"ghost"}})
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v", err)
	}
}

// TestGraphMissingDepNamesFirstInAddOrder: of several tasks that name a
// missing dependency, the error names the first one added, and its first
// missing dependency — whatever the keys' order.
func TestGraphMissingDepNamesFirstInAddOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := NewGraph(1)
		g.Add(&TaskSpec{Key: "a"})
		g.Add(&TaskSpec{Key: "z", Deps: []TaskKey{"a", "ghost-2", "ghost-1"}})
		g.Add(&TaskSpec{Key: "m", Deps: []TaskKey{"ghost-0"}})
		g.Add(&TaskSpec{Key: "b", Deps: []TaskKey{"ghost-3"}})
		err := g.Finalize()
		if want := `dask: graph 1 task "z" depends on missing "ghost-2"`; err == nil || err.Error() != want {
			t.Fatalf("trial %d: Finalize = %v, want %q", trial, err, want)
		}
	}
}

// TestGraphAddCopiesSpec: the graph keeps copies of a spec's fields and
// slices, so a caller that reuses its spec, its Deps or its Restrictions
// after Add changes nothing in the graph.
func TestGraphAddCopiesSpec(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a"})
	g.Add(&TaskSpec{Key: "b"})
	deps := []TaskKey{"a"}
	restrictions := []string{"tcp://w0"}
	spec := &TaskSpec{Key: "c", Deps: deps, Restrictions: restrictions, OutputSize: 7}
	g.Add(spec)
	deps[0] = "b"
	restrictions[0] = "tcp://w1"
	spec.Key, spec.OutputSize = "d", 9
	spec.Deps = append(deps, "a")
	g.Add(spec)

	c, ok := g.Task("c")
	if !ok {
		t.Fatal("task c is gone")
	}
	if !reflect.DeepEqual(c.Deps, []TaskKey{"a"}) || !reflect.DeepEqual(c.Restrictions, []string{"tcp://w0"}) || c.OutputSize != 7 {
		t.Fatalf("task c after its spec was reused: %+v", *c)
	}
	d, _ := g.Task("d")
	if !reflect.DeepEqual(d.Deps, []TaskKey{"b", "a"}) || d.OutputSize != 9 {
		t.Fatalf("task d: %+v", *d)
	}
	if got := g.Keys(); !reflect.DeepEqual(got, []TaskKey{"a", "b", "c", "d"}) {
		t.Fatalf("order = %v", got)
	}
}

// TestGraphKeyInterns: a key interned from a buffer keeps its bytes after
// the buffer is overwritten and after the graph starts new key chunks.
func TestGraphKeyInterns(t *testing.T) {
	g := NewGraph(1)
	var keys []TaskKey
	buf := make([]byte, 0, 64)
	for i := 0; i < 5000; i++ {
		buf = fmt.Appendf(buf[:0], "key-%06d", i)
		keys = append(keys, g.Key(buf))
		buf[0] = 'X'
	}
	for i, k := range keys {
		if want := TaskKey(fmt.Sprintf("key-%06d", i)); k != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}
}

func TestGraphDuplicateKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a"})
	g.Add(&TaskSpec{Key: "a"})
}

func TestLeaves(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a"})
	g.Add(&TaskSpec{Key: "b", Deps: []TaskKey{"a"}})
	g.Add(&TaskSpec{Key: "c", Deps: []TaskKey{"a"}})
	leaves := g.Leaves()
	if len(leaves) != 2 || leaves[0] != "b" || leaves[1] != "c" {
		t.Fatalf("leaves = %v", leaves)
	}
}

// finalizeTables builds what Kahn's algorithm needs whatever its frontier is:
// in-degrees and dependents over the internal edges, and room for the order.
func finalizeTables(g *Graph) (indeg map[TaskKey]int, dependents map[TaskKey][]TaskKey, order []TaskKey) {
	indeg = make(map[TaskKey]int, g.Len())
	dependents = make(map[TaskKey][]TaskKey, g.Len())
	for i := 0; i < g.Len(); i++ {
		t := g.spec(int32(i))
		indeg[t.Key] += 0
		for _, d := range t.Deps {
			if _, internal := g.index[d]; !internal {
				continue
			}
			indeg[t.Key]++
			dependents[d] = append(dependents[d], t.Key)
		}
	}
	return indeg, dependents, make([]TaskKey, 0, g.Len())
}

// referenceOrder is Finalize as it was before the frontier became a heap:
// the frontier is a sorted slice, the ready dependents of each popped key are
// sorted and merged into it. It is the specification of the order — task
// priorities, and with them every virtual timestamp, follow from it.
func referenceOrder(g *Graph) ([]TaskKey, error) {
	for i := 0; i < g.Len(); i++ {
		t := g.spec(int32(i))
		for _, d := range t.Deps {
			if _, ok := g.index[d]; !ok && !g.externals[d] {
				return nil, fmt.Errorf("dask: graph %d task %q depends on missing %q", g.ID, t.Key, d)
			}
		}
	}
	indeg, dependents, order := finalizeTables(g)
	var frontier []TaskKey
	for k, n := range indeg {
		if n == 0 {
			frontier = append(frontier, k)
		}
	}
	sortKeys(frontier)
	for len(frontier) > 0 {
		k := frontier[0]
		frontier = frontier[1:]
		order = append(order, k)
		next := dependents[k]
		sortKeys(next)
		var newly []TaskKey
		for _, d := range next {
			indeg[d]--
			if indeg[d] == 0 {
				newly = append(newly, d)
			}
		}
		merged := make([]TaskKey, 0, len(frontier)+len(newly))
		for len(frontier) > 0 && len(newly) > 0 {
			if frontier[0] <= newly[0] {
				merged, frontier = append(merged, frontier[0]), frontier[1:]
			} else {
				merged, newly = append(merged, newly[0]), newly[1:]
			}
		}
		frontier = append(append(merged, frontier...), newly...)
	}
	if len(order) != g.Len() {
		return nil, fmt.Errorf("dask: graph %d contains a dependency cycle", g.ID)
	}
	return order, nil
}

// perm draws a random permutation of [0, n) — math/rand's Perm, spelled out
// over the draws sim.RNG offers.
func perm(rng *sim.RNG, n int) []int {
	m := make([]int, n)
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// scrambledDAG builds a random DAG whose key order has nothing to do with its
// topological order: edges point from later to earlier positions of a random
// permutation of the keys. Some dependencies are repeated, some are external
// keys, and on request one is undeclared or closes a cycle.
func scrambledDAG(id int, rng *sim.RNG, n int, missing, cycle bool) *Graph {
	g := NewGraph(id)
	order := perm(rng, n)
	key := func(pos int) TaskKey { return TaskKey(fmt.Sprintf("k-%04d", order[pos])) }
	density := rng.Uniform(0.02, 0.5)
	externals := rng.Intn(4)
	for e := 0; e < externals; e++ {
		g.AddExternal(TaskKey(fmt.Sprintf("ext-%d", e)))
	}
	specs := make([]*TaskSpec, n)
	for pos := 0; pos < n; pos++ {
		spec := &TaskSpec{Key: key(pos)}
		for back := 1; back <= pos && back <= 12; back++ {
			if rng.Bool(density) {
				spec.Deps = append(spec.Deps, key(pos-back))
				if rng.Bool(0.1) {
					spec.Deps = append(spec.Deps, key(pos-back)) // listed twice
				}
			}
		}
		if externals > 0 && rng.Bool(0.2) {
			spec.Deps = append(spec.Deps, TaskKey(fmt.Sprintf("ext-%d", rng.Intn(externals))))
		}
		specs[pos] = spec
	}
	if missing {
		s := specs[rng.Intn(n)]
		s.Deps = append(s.Deps, "ghost")
	}
	if cycle {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		// lo depends on hi, and hi reaches lo through a chain.
		specs[lo].Deps = append(specs[lo].Deps, key(hi))
		for pos := lo + 1; pos <= hi; pos++ {
			specs[pos].Deps = append(specs[pos].Deps, key(pos-1))
		}
	}
	for _, s := range specs {
		g.Add(s)
	}
	return g
}

// TestFinalizeMatchesSortedMergeReference: on random DAGs the heap frontier
// yields exactly the order the sorted-merge frontier did, and the same two
// errors.
func TestFinalizeMatchesSortedMergeReference(t *testing.T) {
	rng := sim.NewRNG(20240915)
	for i := 0; i < 1500; i++ {
		n := rng.IntBetween(1, 120)
		missing, cycle := i%10 == 8, i%10 == 9
		g := scrambledDAG(i, rng, n, missing, cycle)
		want, wantErr := referenceOrder(g)
		gotErr := g.Finalize()
		switch {
		case missing:
			if gotErr == nil || !strings.Contains(gotErr.Error(), `missing "ghost"`) || wantErr == nil {
				t.Fatalf("dag %d: missing dependency: Finalize %v, reference %v", i, gotErr, wantErr)
			}
		case cycle:
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("dag %d: cycle: Finalize %v, reference %v", i, gotErr, wantErr)
			}
		default:
			if gotErr != nil || wantErr != nil {
				t.Fatalf("dag %d: Finalize %v, reference %v", i, gotErr, wantErr)
			}
			if got := g.Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("dag %d (%d tasks):\n heap order      %v\n reference order %v", i, n, got, want)
			}
		}
	}
}

// layeredDAG is a wide layered graph, each task depending on fanIn tasks of
// the layer before: the shape whose frontier stays hundreds of keys wide.
func layeredDAG(layers, width, fanIn int) *Graph {
	g := NewGraph(1)
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			spec := &TaskSpec{Key: TaskKey(fmt.Sprintf("('layer%02d-%04x', %d)", l, l*7919, i))}
			for d := 0; l > 0 && d < fanIn; d++ {
				spec.Deps = append(spec.Deps, TaskKey(fmt.Sprintf("('layer%02d-%04x', %d)", l-1, (l-1)*7919, (i+d*31)%width)))
			}
			g.Add(spec)
		}
	}
	return g
}

// allocatedBytes reports how many heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFinalizeAllocatesLinearly: Finalize works over dense indices, so it
// allocates one scratch array and the order it keeps — the same two mallocs
// for a thousand tasks as for ten thousand — and a few bytes per task, where
// a map of dependents lists and the keys' in-degrees cost a malloc per edge.
func TestFinalizeAllocatesLinearly(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		g := layeredDAG(50, n/50, 3)
		var err error
		mallocs := testing.AllocsPerRun(3, func() { err = g.Finalize() })
		if err != nil {
			t.Fatal(err)
		}
		total := allocatedBytes(func() { err = g.Finalize() })
		t.Logf("%d tasks: Finalize makes %v mallocs, %d B", n, mallocs, total)
		if mallocs != 2 {
			t.Errorf("%d tasks: Finalize makes %v mallocs, want 2 (its scratch and the order)", n, mallocs)
		}
		if total > 64*uint64(n) {
			t.Errorf("%d tasks: Finalize allocated %d B, budget %d B", n, total, 64*n)
		}
	}
}

// BenchmarkGraphFinalize orders a 20k-task layered graph, as the client does
// once for every graph it submits.
func BenchmarkGraphFinalize(b *testing.B) {
	g := layeredDAG(100, 200, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}
