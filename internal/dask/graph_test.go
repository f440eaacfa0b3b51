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

func TestFuseLinearChains(t *testing.T) {
	g := NewGraph(1)
	ran := []string{}
	g.Add(&TaskSpec{Key: "read_parquet-ab12", OutputSize: 10,
		Run: func(ctx *TaskContext) { ran = append(ran, "read") }})
	g.Add(&TaskSpec{Key: "assign-cd34", Deps: []TaskKey{"read_parquet-ab12"}, OutputSize: 200,
		Run: func(ctx *TaskContext) { ran = append(ran, "assign") }})
	g.Add(&TaskSpec{Key: "sum-ef56", Deps: []TaskKey{"assign-cd34"}})
	g.Add(&TaskSpec{Key: "other-99aa"})

	f := FuseLinearChains(g, 2)
	if f.Len() != 3 {
		t.Fatalf("fused graph has %d tasks, want 3: %v", f.Len(), f.Keys())
	}
	var fusedKey TaskKey
	for _, k := range f.Keys() {
		if strings.Contains(string(k), "fused") {
			fusedKey = k
		}
	}
	if fusedKey == "" {
		t.Fatalf("no fused task in %v", f.Keys())
	}
	if KeyPrefix(fusedKey) != "read_parquet-fused-assign" {
		t.Fatalf("fused prefix = %q (key %q)", KeyPrefix(fusedKey), fusedKey)
	}
	ft, _ := f.Task(fusedKey)
	if ft.OutputSize != 200 {
		t.Fatalf("fused output size = %d, want tail's 200", ft.OutputSize)
	}
	// sum must now depend on the fused task.
	st, ok := f.Task("sum-ef56")
	if !ok || len(st.Deps) != 1 || st.Deps[0] != fusedKey {
		t.Fatalf("sum deps = %+v", st)
	}
	// The fused body runs both bodies in order.
	ft.Run(nil)
	if len(ran) != 2 || ran[0] != "read" || ran[1] != "assign" {
		t.Fatalf("fused body ran %v", ran)
	}
}

func TestFuseRespectsMaxChain(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a-01"})
	g.Add(&TaskSpec{Key: "b-02", Deps: []TaskKey{"a-01"}})
	g.Add(&TaskSpec{Key: "c-03", Deps: []TaskKey{"b-02"}})
	g.Add(&TaskSpec{Key: "d-04", Deps: []TaskKey{"c-03"}})
	if f := FuseLinearChains(g, 1); f.Len() != 4 {
		t.Fatalf("maxChain=1 changed the graph: %d", f.Len())
	}
	f := FuseLinearChains(g, 4)
	if f.Len() != 1 {
		t.Fatalf("maxChain=4 left %d tasks: %v", f.Len(), f.Keys())
	}
	f2 := FuseLinearChains(g, 2)
	if f2.Len() != 2 {
		t.Fatalf("maxChain=2 left %d tasks: %v", f2.Len(), f2.Keys())
	}
}

func TestFuseKeepsBranchesIntact(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "src-01"})
	g.Add(&TaskSpec{Key: "l-02", Deps: []TaskKey{"src-01"}})
	g.Add(&TaskSpec{Key: "r-03", Deps: []TaskKey{"src-01"}})
	f := FuseLinearChains(g, 4)
	// src has two dependents: nothing can fuse.
	if f.Len() != 3 {
		t.Fatalf("branching graph fused to %d tasks", f.Len())
	}
}

func TestFusePreservesEstimates(t *testing.T) {
	g := NewGraph(1)
	g.Add(&TaskSpec{Key: "a-01", EstDuration: sim.Seconds(1)})
	g.Add(&TaskSpec{Key: "b-02", Deps: []TaskKey{"a-01"}, EstDuration: sim.Seconds(2), BlocksEventLoop: true})
	f := FuseLinearChains(g, 2)
	k := f.Keys()[0]
	ft, _ := f.Task(k)
	if ft.EstDuration != sim.Seconds(3) {
		t.Fatalf("fused estimate = %v", ft.EstDuration)
	}
	if !ft.BlocksEventLoop {
		t.Fatal("fused task lost BlocksEventLoop")
	}
}

// finalizeTables builds what Kahn's algorithm needs whatever its frontier is:
// in-degrees and dependents over the internal edges, and room for the order.
func finalizeTables(g *Graph) (indeg map[TaskKey]int, dependents map[TaskKey][]TaskKey, order []TaskKey) {
	indeg = make(map[TaskKey]int, len(g.tasks))
	dependents = make(map[TaskKey][]TaskKey, len(g.tasks))
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
	return indeg, dependents, make([]TaskKey, 0, len(g.tasks))
}

// referenceOrder is Finalize as it was before the frontier became a heap:
// the frontier is a sorted slice, the ready dependents of each popped key are
// sorted and merged into it. It is the specification of the order — task
// priorities, and with them every virtual timestamp, follow from it.
func referenceOrder(g *Graph) ([]TaskKey, error) {
	for k, t := range g.tasks {
		for _, d := range t.Deps {
			if _, ok := g.tasks[d]; !ok && !g.externals[d] {
				return nil, fmt.Errorf("dask: graph %d task %q depends on missing %q", g.ID, k, d)
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
	if len(order) != len(g.tasks) {
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

// TestFinalizeAllocatesLinearly: beyond its tables, Finalize allocates only
// the frontier heap — a few bytes per task, where re-copying the sorted
// frontier on every release cost kilobytes per task on this shape.
func TestFinalizeAllocatesLinearly(t *testing.T) {
	const n = 10000
	g := layeredDAG(50, n/50, 3)
	tables := allocatedBytes(func() { finalizeTables(g) })
	var err error
	total := allocatedBytes(func() { err = g.Finalize() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d tasks: Finalize allocated %d B, its tables %d B", n, total, tables)
	if total > tables+64*n {
		t.Fatalf("Finalize allocated %d B, %d B beyond its tables; budget %d B", total, total-tables, 64*n)
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
