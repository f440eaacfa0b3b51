package taskprov_test

import (
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoUnusedExports holds every package under internal/ to "no code without
// a caller". Nothing outside this module can import internal/, so an exported
// function, method, type, constant, variable or struct field declared there
// must be reached by a program:
//
//   - named, outside its own declaration, from a non-test Go file of the repo
//     (production code of any package, cmd/*, examples/*, bench/e2e), or
//   - named from a Benchmark* function that DESIGN.md §4 (the experiment
//     index) or EXPERIMENTS.md cites as how a figure or ablation is
//     reproduced, or
//   - a method its type needs to satisfy an interface (called through it).
//
// A test is not a caller: what only tests name is deleted with those tests,
// or — for the few observers and stand-ins below — listed in programless with
// the reason it stays. A listed name that gains a program caller or loses its
// declaration fails the test too, so the list cannot rot.
func TestNoUnusedExports(t *testing.T) {
	r := loadRepo(t)
	ifaces, carriers := r.interfaces(), r.carriers()
	declared := map[string]bool{}
	var unused []string
	for _, dir := range r.dirs {
		if !strings.HasPrefix(filepath.ToSlash(dir), "internal/") {
			continue
		}
		pkg := r.imported[r.importPath(dir)]
		if pkg == nil {
			continue // a directory of tests or testdata only
		}
		for _, e := range exportedObjects(pkg) {
			name := filepath.ToSlash(dir) + "." + e.name
			declared[name] = true
			reached := r.reached[e.obj.Pos()]
			if fn, ok := e.obj.(*types.Func); ok && !reached {
				reached = satisfiesSomeInterface(fn, ifaces, carriers)
			}
			_, listed := programless[name]
			switch {
			case reached && listed:
				t.Errorf("programless lists %s, but a program reaches it now; drop the entry", name)
			case !reached && !listed:
				unused = append(unused, r.fset.Position(e.obj.Pos()).String()+": "+name)
			}
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no program reaches it; delete it (and the tests that only test it) or unexport it", u)
	}
	for name, reason := range programless {
		if !declared[name] {
			t.Errorf("programless lists %s, which is not declared; drop the entry", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("programless lists %s without a reason", name)
		}
	}
}

// programless is the allowlist: exports no program reaches that stay anyway,
// each with the reason. Three kinds belong here and nothing else — plain
// accessors that tests of surviving behaviour observe through from another
// package (an in-package observer lives in that package's export_test.go
// instead), the reference replay those tests hold the live monitor to, and
// the one constant that is vocabulary of a method programs call.
var programless = map[string]string{
	// Accessors read by tests of behaviour that stays.
	"internal/dask.Client.GraphError":         "accessor: how the dask, core and workloads suites see that a graph erred, or that a recovery path did not make one err",
	"internal/mofka/cluster.Cluster.Replicas": "accessor: the producer conformance suite kills a partition's leader and the wal commit suite faults its follower, picked by the replica set",
	"internal/proxystore.Store.Keys":          "accessor: the dask attempt suite lists the live blobs to check the store drains to the no-fault baseline",
	"internal/perfrecup.LiveReplay":           "reference: the post-mortem side of live ≡ replay that internal/live's crosscheck (TestLiveEqualsArtifactReplay, TestLiveEqualsWALReplay) and internal/workloads' TestPhasesMatchFullReplay compare against",
	"internal/perfrecup/frame.Inner":          "vocabulary: the zero value of Frame.Join's kind argument, which the frame join tests and BenchmarkHashJoin name; the programs only left-join",
}

// export is one exported identifier of a swept package: its name within the
// package (Type.Member for a method or field), the object, and for a member
// the type that owns it.
type export struct {
	name  string
	obj   types.Object
	owner *types.TypeName
}

// exportedObjects lists a package's exported package-level objects, the
// exported methods of every type it declares, and exported struct fields.
func exportedObjects(pkg *types.Package) []export {
	var out []export
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, export{name: name, obj: obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, export{name + "." + m.Name(), m, tn})
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					out = append(out, export{name + "." + f.Name(), f, tn})
				}
			}
		}
	}
	return out
}

// interfaces collects the predeclared error and every named interface type
// declared in a loaded repo package or in a package one of them imports.
func (r *repo) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range r.imported {
		visit(p)
	}
	return out
}

// carriers are the pointer method sets of every concrete named type declared
// in the repo: the types through which a method can be called.
func (r *repo) carriers() map[*types.Pointer]*types.MethodSet {
	out := map[*types.Pointer]*types.MethodSet{}
	for _, p := range r.imported {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			out[ptr] = types.NewMethodSet(ptr)
		}
	}
	return out
}

// satisfiesSomeInterface reports whether a type that carries the method — its
// receiver type, or a struct that embeds the receiver and so promotes it —
// implements an interface that declares a method of this name.
func satisfiesSomeInterface(fn *types.Func, ifaces []*types.Interface, carriers map[*types.Pointer]*types.MethodSet) bool {
	for ptr, methods := range carriers {
		if sel := methods.Lookup(fn.Pkg(), fn.Name()); sel == nil || sel.Obj() != fn {
			continue
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(ptr.Elem(), it) || types.Implements(ptr, it)) {
					return true
				}
			}
		}
	}
	return false
}
