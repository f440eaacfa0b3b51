package taskprov_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryKnobIsSet holds the framework's option types to "no knob without a
// setter". Every exported field of an exported struct type named *Options or
// *Config under internal/ must be set by a program — the same programs
// TestNoUnusedExports counts as callers: non-test files (bench/e2e
// included) and cited benchmarks. A field is set where it is a
// composite-literal key, or where it lies anywhere on the selector path of an
// assignment target (cfg.Speculation.Enabled = … sets both fields). A set
// inside the type's own withDefaults or setDefaults does not count: that only
// fills in what nobody set. No field is exempt.
//
// A field no program sets doubles the configurations tests and benchmarks
// would have to cover for behaviour nothing runs: delete it with the code
// path it selects, or make it a constant at its default (an unexported seam,
// if the package's own tests need another value). The modelled systems'
// configs (internal/platform, internal/pfs, internal/dask, internal/mochi)
// mirror distributed.yaml, Lustre and Mochi's services and are out of scope.
func TestEveryKnobIsSet(t *testing.T) {
	r := loadRepo(t)
	var unset []string
	for _, dir := range r.dirs {
		slash := filepath.ToSlash(dir)
		if !strings.HasPrefix(slash, "internal/") || slices.ContainsFunc(modelled, func(m string) bool {
			return slash == m || strings.HasPrefix(slash, m+"/")
		}) {
			continue
		}
		pkg := r.imported[r.importPath(dir)]
		if pkg == nil {
			continue
		}
		for _, e := range exportedObjects(pkg) {
			if _, field := e.obj.(*types.Var); !field || e.owner == nil || !isKnobType(e.owner) {
				continue
			}
			if !r.set[e.obj.Pos()] {
				unset = append(unset, r.fset.Position(e.obj.Pos()).String()+": "+slash+"."+e.name)
			}
		}
	}
	slices.Sort(unset)
	for _, u := range unset {
		t.Errorf("%s is an option no program sets; delete it with the path it selects, or make it a constant at its default", u)
	}
}

// modelled are the packages whose configs describe the simulated systems
// rather than the framework.
var modelled = []string{"internal/platform", "internal/pfs", "internal/dask", "internal/mochi"}

// isKnobType reports whether tn is an exported struct type named *Options or
// *Config.
func isKnobType(tn *types.TypeName) bool {
	if !tn.Exported() || !(strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Config")) {
		return false
	}
	_, ok := tn.Type().Underlying().(*types.Struct)
	return ok
}

// recordSets marks the struct fields decl sets, if it is program code. Inside a
// withDefaults or setDefaults method the receiver type's own fields are not
// marked.
func (r *repo) recordSets(decl ast.Decl, info *types.Info, program func(token.Pos) bool) {
	if !program(decl.Pos()) {
		return
	}
	var own *types.Struct
	if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && (fn.Name.Name == "withDefaults" || fn.Name.Name == "setDefaults") {
		recv := info.Defs[fn.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		own, _ = recv.Underlying().(*types.Struct)
	}
	mark := func(obj types.Object) {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		v = v.Origin()
		for i := 0; own != nil && i < own.NumFields(); i++ {
			if own.Field(i) == v {
				return
			}
		}
		r.set[v.Pos()] = true
	}
	// path marks every field on the selector path of an assignment target.
	path := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				mark(info.Uses[x.Sel])
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			var st *types.Struct
			if tv, ok := info.Types[n]; ok {
				st, _ = tv.Type.Underlying().(*types.Struct)
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mark(info.Uses[id])
					}
				} else if st != nil {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				path(lhs)
			}
		case *ast.IncDecStmt:
			path(n.X)
		}
		return true
	})
}
