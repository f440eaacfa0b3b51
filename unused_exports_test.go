package taskprov_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
//     (production code of any package, cmd/*, examples/*, taskprov.go,
//     bench/e2e), or
//   - named from a Benchmark* function that DESIGN.md §4 (the experiment
//     index) or EXPERIMENTS.md cites as how a figure or ablation is
//     reproduced, or
//   - a method or field of a type the root facade aliases (importers of
//     package taskprov reach those), or
//   - a method its type needs to satisfy an interface (called through it).
//
// A test is not a caller: what only tests name is deleted with those tests,
// or — for the few observers and stand-ins below — listed in programless with
// the reason it stays. A listed name that gains a program caller or loses its
// declaration fails the test too, so the list cannot rot.
func TestNoUnusedExports(t *testing.T) {
	r := newRepo(t)
	r.cited = citedBenchmarks(t)
	for _, dir := range r.dirs {
		r.checkDir(dir)
	}
	ifaces, carriers := r.interfaces(), r.carriers()
	facade := r.facadeTypes()
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
			reached := r.reached[e.obj.Pos()] || facade[e.owner]
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
// each with the reason. Four kinds belong here and nothing else — plain
// accessors that tests of surviving behaviour observe through from another
// package (an in-package observer lives in that package's export_test.go
// instead), the in-process fake transport, the paper's §VI online I/O tracer,
// and the one constant that is vocabulary of a facade method.
var programless = map[string]string{
	// Accessors read by tests of behaviour that stays.
	"internal/dask.Client.GraphError":         "accessor: how the dask, core and workloads suites see that a graph erred, or that a recovery path did not make one err",
	"internal/mochi/bedrock.Deployment.Group": "accessor: the bedrock suite checks that the SSG groups a config names are instantiated with its thresholds",
	"internal/mochi/warabi.Target.Stats":      "accessor: the mofka and proxystore suites check through it that a refused batch or a drained blob leaves no region behind",
	"internal/mofka/wal.Log.NextOffset":       "accessor: the mofka envelope suite compares a partition's length with its log's next offset; the wal suites read it throughout",
	"internal/proxystore.Store.Keys":          "accessor: the dask attempt suite lists the live blobs to check the store drains to the no-fault baseline",
	"internal/perfrecup/frame.Inner":          "facade vocabulary: the zero value of Frame.Join's kind argument, and Frame is aliased by the root package; no program inner-joins",
	"internal/mochi/mercury.NewRegistry":      "fake transport: the in-process address space every RPC-level suite (service conformance, wire golden, live tailer, bedrock) runs over",
	"internal/mochi/mercury.Registry.Bind":    "fake transport: a Caller onto one address of the in-process Registry",
	"internal/core.NewOnlineIOTracer":         "paper §VI: fully-online I/O capture, a library mode no SessionConfig reaches yet (ROADMAP)",
	"internal/core.OnlineIOTracer.Flush":      "paper §VI: ships the online tracer's pending batches",
	"internal/provenance.Decoder.IOTrace":     "paper §VI: the typed reader of the online tracer's io-trace topic",
}

// citedBenchmarks collects the Benchmark names DESIGN.md §4 and
// EXPERIMENTS.md give as the way to reproduce a result; a trailing * makes
// the name a prefix.
func citedBenchmarks(t *testing.T) func(name string) bool {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index := string(design)
	if i := strings.Index(index, "\n## 4."); i >= 0 {
		index = index[i+1:]
		if j := strings.Index(index, "\n## 5."); j >= 0 {
			index = index[:j]
		}
	} else {
		t.Fatal("DESIGN.md has no §4 experiment index")
	}
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	exact, prefixes := map[string]bool{}, []string{}
	for _, m := range regexp.MustCompile(`Benchmark\w+\*?`).FindAllString(index+string(experiments), -1) {
		if p, ok := strings.CutSuffix(m, "*"); ok {
			prefixes = append(prefixes, p)
		} else {
			exact[m] = true
		}
	}
	return func(name string) bool {
		return exact[name] || slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
	}
}

// repo type-checks every package of the tree from source, sharing one file
// set so an object is identified by its declaration's position whichever
// variant of its package (imported, with in-package tests) was checked.
type repo struct {
	t        *testing.T
	fset     *token.FileSet
	dirs     []string
	parsed   map[string]*ast.File
	imported map[string]*types.Package
	std      types.Importer
	cited    func(benchmark string) bool
	reached  map[token.Pos]bool
}

func newRepo(t *testing.T) *repo {
	r := &repo{
		t: t, fset: token.NewFileSet(),
		parsed:   map[string]*ast.File{},
		imported: map[string]*types.Package{},
		reached:  map[token.Pos]bool{},
	}
	r.std = importer.ForCompiler(r.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if dir := filepath.Dir(path); strings.HasSuffix(path, ".go") && !slices.Contains(r.dirs, dir) {
			r.dirs = append(r.dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// importPath is the path a repo directory is imported by: the main module is
// "taskprov", and bench/e2e (a module of its own) sits below it by name too.
func (r *repo) importPath(dir string) string {
	if dir == "." {
		return "taskprov"
	}
	return "taskprov/" + filepath.ToSlash(dir)
}

// dirFiles are the buildable Go files of one directory, as go test groups
// them: the package, its in-package tests, and the external test package.
type dirFiles struct {
	pkg, tests, external []*ast.File
}

// files parses the buildable Go files of dir, each file once.
func (r *repo) files(dir string) dirFiles {
	entries, err := os.ReadDir(dir)
	if err != nil {
		r.t.Fatal(err)
	}
	var fs dirFiles
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		path := filepath.Join(dir, name)
		f := r.parsed[path]
		if f == nil {
			if f, err = parser.ParseFile(r.fset, path, nil, parser.SkipObjectResolution); err != nil {
				r.t.Fatal(err)
			}
			r.parsed[path] = f
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			fs.pkg = append(fs.pkg, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			fs.external = append(fs.external, f)
		default:
			fs.tests = append(fs.tests, f)
		}
	}
	return fs
}

// Import implements types.Importer: repo packages from source (without their
// tests, checked once), everything else from GOROOT.
func (r *repo) Import(path string) (*types.Package, error) {
	if path != "taskprov" && !strings.HasPrefix(path, "taskprov/") {
		return r.std.Import(path)
	}
	if pkg := r.imported[path]; pkg != nil {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "taskprov"), "/"))
	files := r.files(filepath.Join(".", dir)).pkg
	if len(files) == 0 {
		return nil, fmt.Errorf("import %q: no Go package in %s", path, dir)
	}
	r.imported[path] = r.check(path, files)
	return r.imported[path], nil
}

// check type-checks one package and records every object a program reaches
// through its files: any use in a non-test file, and in a test file the uses
// inside a cited benchmark.
func (r *repo) check(path string, files []*ast.File) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: r}
	if strings.HasSuffix(path, "_test") {
		// An external test package sees its own package built with tests and
		// every other importer's without; go test rebuilds the importers, here
		// the two variants' types just fail to unify. Uses resolve regardless.
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, r.fset, files, info)
	if err != nil && conf.Error == nil {
		r.t.Fatalf("type-checking %s: %v", path, err)
	}
	decls := funcRanges(files)
	var benchmarks [][2]token.Pos
	for _, f := range files {
		if !strings.HasSuffix(r.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && r.cited(fn.Name.Name) {
				benchmarks = append(benchmarks, [2]token.Pos{fn.Pos(), fn.End()})
			}
		}
	}
	within := func(at [2]token.Pos, pos token.Pos) bool { return at[0] <= pos && pos < at[1] }
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if at, ok := decls[obj.Pos()]; ok && within(at, id.Pos()) {
			continue // a function naming itself is not a caller
		}
		if strings.HasSuffix(r.fset.File(id.Pos()).Name(), "_test.go") &&
			!slices.ContainsFunc(benchmarks, func(at [2]token.Pos) bool { return within(at, id.Pos()) }) {
			continue // a test is not a program
		}
		r.reached[obj.Pos()] = true
	}
	return pkg
}

// checkDir type-checks every package variant rooted in dir: the package as
// importers see it, the package with its in-package tests, and the external
// test package — which sees the variant with tests, as under go test.
func (r *repo) checkDir(dir string) {
	path := r.importPath(dir)
	fs := r.files(dir)
	var plain *types.Package
	switch {
	case len(fs.pkg) == 0:
	case fs.pkg[0].Name.Name == "main":
		plain = r.check(path, fs.pkg)
	default:
		var err error
		if plain, err = r.Import(path); err != nil {
			r.t.Fatal(err)
		}
	}
	seen := plain
	if len(fs.tests) > 0 {
		seen = r.check(path, append(fs.tests, fs.pkg...))
	}
	if len(fs.external) > 0 {
		r.imported[path] = seen
		r.check(path+"_test", fs.external)
		r.imported[path] = plain
	}
}

// funcRanges maps each function's name position to its declaration's extent.
func funcRanges(files []*ast.File) map[token.Pos][2]token.Pos {
	m := map[token.Pos][2]token.Pos{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				m[fn.Name.Pos()] = [2]token.Pos{fn.Pos(), fn.End()}
			}
		}
	}
	return m
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

// facadeTypes are the internal types the root package re-exports by alias:
// their methods and fields are the module's public API.
func (r *repo) facadeTypes() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	scope := r.imported["taskprov"].Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		target := types.Unalias(tn.Type())
		if p, ok := target.(*types.Pointer); ok {
			target = p.Elem()
		}
		if named, ok := target.(*types.Named); ok {
			out[named.Obj()] = true
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
