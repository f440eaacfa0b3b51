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
	"sync"
	"testing"
)

// The root meta-tests (TestNoUnusedExports, TestEveryKnobIsSet,
// TestMapRangeOrder) read one type-check of the tree, made by whichever of
// them runs first.
var (
	loadOnce sync.Once
	loaded   *repo
	loadErr  error
)

// loadRepo returns the type-checked tree, failing t if it does not check.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	loadOnce.Do(func() {
		defer func() {
			if e := recover(); e != nil {
				err, ok := e.(repoError)
				if !ok {
					panic(e)
				}
				loadErr = err
			}
		}()
		r := newRepo()
		r.cited = citedBenchmarks(r)
		for _, dir := range r.dirs {
			r.checkDir(dir)
		}
		loaded = r
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// repoError is how a failure while loading the tree unwinds to loadRepo.
type repoError struct{ error }

func (r *repo) fail(format string, args ...any) {
	panic(repoError{fmt.Errorf(format, args...)})
}

// citedBenchmarks collects the Benchmark names DESIGN.md §4 and
// EXPERIMENTS.md give as the way to reproduce a result; a trailing * makes
// the name a prefix.
func citedBenchmarks(r *repo) func(name string) bool {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		r.fail("%v", err)
	}
	index := string(design)
	if i := strings.Index(index, "\n## 4."); i >= 0 {
		index = index[i+1:]
		if j := strings.Index(index, "\n## 5."); j >= 0 {
			index = index[:j]
		}
	} else {
		r.fail("DESIGN.md has no §4 experiment index")
	}
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		r.fail("%v", err)
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
// variant of its package (imported, with in-package tests) was checked. What
// a program does is recorded as it goes: the objects it names (reached), the
// struct fields it sets (set), and its range statements over maps (mapRanges).
type repo struct {
	fset      *token.FileSet
	dirs      []string
	parsed    map[string]*ast.File
	imported  map[string]*types.Package
	std       types.Importer
	cited     func(benchmark string) bool
	reached   map[token.Pos]bool
	set       map[token.Pos]bool
	mapRanges map[token.Pos]mapRange // by the range statement's position
}

func newRepo() *repo {
	r := &repo{
		fset:      token.NewFileSet(),
		parsed:    map[string]*ast.File{},
		imported:  map[string]*types.Package{},
		reached:   map[token.Pos]bool{},
		set:       map[token.Pos]bool{},
		mapRanges: map[token.Pos]mapRange{},
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
		r.fail("%v", err)
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
		r.fail("%v", err)
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
				r.fail("%v", err)
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

// isTest reports whether pos lies in a _test.go file.
func (r *repo) isTest(pos token.Pos) bool {
	return strings.HasSuffix(r.fset.File(pos).Name(), "_test.go")
}

// check type-checks one package and records what a program does through its
// files — any non-test file, and in a test file the body of a cited
// benchmark: the objects it names, the fields it sets, and (non-test files
// only) its ranges over maps.
func (r *repo) check(path string, files []*ast.File) *types.Package {
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: r}
	if strings.HasSuffix(path, "_test") {
		// An external test package sees its own package built with tests and
		// every other importer's without; go test rebuilds the importers, here
		// the two variants' types just fail to unify. Uses resolve regardless.
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, r.fset, files, info)
	if err != nil && conf.Error == nil {
		r.fail("type-checking %s: %v", path, err)
	}
	decls := funcRanges(files)
	var benchmarks [][2]token.Pos
	for _, f := range files {
		if !r.isTest(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && r.cited(fn.Name.Name) {
				benchmarks = append(benchmarks, [2]token.Pos{fn.Pos(), fn.End()})
			}
		}
	}
	within := func(at [2]token.Pos, pos token.Pos) bool { return at[0] <= pos && pos < at[1] }
	program := func(pos token.Pos) bool {
		return !r.isTest(pos) || slices.ContainsFunc(benchmarks, func(at [2]token.Pos) bool { return within(at, pos) })
	}
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
		if program(id.Pos()) {
			r.reached[obj.Pos()] = true
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			r.recordSets(d, info, program)
			if fn, ok := d.(*ast.FuncDecl); ok && !r.isTest(fn.Pos()) {
				r.recordMapRanges(fn, info)
			}
		}
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
			r.fail("%v", err)
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
	if plain == nil {
		delete(r.imported, path) // a directory with no package, like the root
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
