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
	"slices"
	"strings"
	"testing"
)

// sweptPackages lists the packages (by directory) whose exported API is held
// to "every exported identifier has a reader".
var sweptPackages = []string{"internal/dask"}

// TestNoUnusedExports keeps a package's exported surface from outgrowing its
// callers: an exported function, method, type, constant, variable or struct
// field declared in a swept package must be referenced by some Go file in the
// repo — tests, cmd, examples and bench/e2e included — outside its own
// declaration. Methods a type needs to satisfy an interface are exempt: they
// are called through the interface.
func TestNoUnusedExports(t *testing.T) {
	r := newRepo(t)
	for _, dir := range r.dirs {
		r.checkDir(dir)
	}
	ifaces := r.interfaces()
	for _, swept := range sweptPackages {
		pkg := r.imported[r.importPath(swept)]
		if pkg == nil {
			t.Fatalf("%s: not loaded", swept)
		}
		var unused []string
		for _, obj := range exportedObjects(pkg) {
			if r.used[obj.Pos()] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && satisfiesSomeInterface(fn, ifaces) {
				continue
			}
			unused = append(unused, r.fset.Position(obj.Pos()).String()+": "+types.ObjectString(obj, types.RelativeTo(pkg)))
		}
		slices.Sort(unused)
		for _, u := range unused {
			t.Errorf("%s is exported but nothing references it; delete or unexport it", u)
		}
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
	used     map[token.Pos]bool
}

func newRepo(t *testing.T) *repo {
	r := &repo{
		t: t, fset: token.NewFileSet(),
		parsed:   map[string]*ast.File{},
		imported: map[string]*types.Package{},
		used:     map[token.Pos]bool{},
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
		if strings.HasSuffix(path, ".go") {
			if dir := filepath.Dir(path); len(r.dirs) == 0 || r.dirs[len(r.dirs)-1] != dir {
				r.dirs = append(r.dirs, dir)
			}
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

// check type-checks one package and records every object its files use.
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
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if at, ok := decls[obj.Pos()]; ok && at[0] <= id.Pos() && id.Pos() < at[1] {
			continue // a function naming itself is not a caller
		}
		r.used[obj.Pos()] = true
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

// exportedObjects lists a package's exported package-level objects, the
// exported methods of every type it declares, and exported struct fields.
func exportedObjects(pkg *types.Package) []types.Object {
	var objs []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			objs = append(objs, obj)
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
				objs = append(objs, m)
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					objs = append(objs, f)
				}
			}
		}
	}
	return objs
}

// interfaces collects every named interface type declared in a loaded repo
// package or in a package one of them imports.
func (r *repo) interfaces() []*types.Interface {
	var out []*types.Interface
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

// satisfiesSomeInterface reports whether the method's receiver type
// implements an interface that declares a method of this name.
func satisfiesSomeInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	base := recv.Type()
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(base, it) || types.Implements(types.NewPointer(base), it)) {
				return true
			}
		}
	}
	return false
}
