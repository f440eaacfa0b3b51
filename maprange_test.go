package taskprov_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMapRangeOrder keeps map iteration order out of what the program does.
// Go randomises it on every range, so a range over a map in non-test code
// must not, in its body, send on a channel, call anything that publishes,
// schedules or writes (Push*, Submit, Send, Emit/emit, publish, pushWarning,
// At, After, Go, Every, Write*, *Print*), or append to a slice declared
// outside the loop that the function does not sort afterwards. Iterate the
// sorted keys instead, or list the function in orderFree with the reason its
// order cannot show. A single run of a configuration draws one map order, so
// no comparison of runs is a substitute: this is how two past bugs reached
// stored bytes (pfs.fanout's stripe order, Collector.Flush's lost warning).
func TestMapRangeOrder(t *testing.T) {
	r := loadRepo(t)
	var at []token.Pos
	for pos := range r.mapRanges {
		at = append(at, pos)
	}
	slices.Sort(at)
	flagged := map[string]bool{}
	for _, pos := range at {
		s := r.mapRanges[pos]
		flagged[s.fn] = true
		if _, ok := orderFree[s.fn]; !ok {
			t.Errorf("%s: range over a map in %s %s in map order; range over sorted keys, or list the function in orderFree with the reason order cannot show", r.fset.Position(pos), s.fn, s.why)
		}
	}
	for fn, reason := range orderFree {
		if !flagged[fn] {
			t.Errorf("orderFree lists %s, which has no flagged range over a map now; drop the entry", fn)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("orderFree lists %s without a reason", fn)
		}
	}
}

// orderFree is the allowlist, by file and function: ranges over a map that
// look order-dependent but are not, or cannot be changed here, each with the
// reason.
var orderFree = map[string]string{
	"bench/e2e/reference.go:diffStats": "the order shows only in the text of a failed reference check, which fails either way; bench/e2e changes only with the benchmark itself",
}

// mapRange is one flagged range over a map: the function it is in
// ("file.go:Func" or "file.go:Type.Method"), and what in its body depends on
// the order.
type mapRange struct {
	fn, why string
}

// orderedCall matches the names of the calls whose effect depends on when
// they happen.
var orderedCall = regexp.MustCompile(`^(Submit|Send|Emit|emit|publish|pushWarning|At|After|Go|Every)$|^(Push|Write)|Print`)

// recordMapRanges records every range over a map in fn whose body depends on
// the iteration order.
func (r *repo) recordMapRanges(fn *ast.FuncDecl, info *types.Info) {
	if fn.Body == nil {
		return
	}
	name := fn.Name.Name
	if fn.Recv != nil {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok {
			recv = idx.X
		}
		name = types.ExprString(recv) + "." + name
	}
	pos := r.fset.Position(fn.Pos())
	name = filepath.ToSlash(pos.Filename) + ":" + name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		if why := orderDependence(rs, fn.Body, info); why != "" {
			r.mapRanges[rs.Pos()] = mapRange{fn: name, why: why}
		}
		return true
	})
}

// orderDependence names what in rs's body depends on the iteration order, or
// returns "" when nothing does. body is the enclosing function's.
func orderDependence(rs *ast.RangeStmt, body *ast.BlockStmt, info *types.Info) string {
	var why string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			why = "sends on a channel"
		case *ast.CallExpr:
			if callee := calleeName(n.Fun); orderedCall.MatchString(callee) {
				why = fmt.Sprintf("calls %s", callee)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) || !isBuiltin(call.Fun, "append", info) {
					continue
				}
				target := n.Lhs[i]
				if root := rootIdent(target); root == nil || declaredWithin(root, rs, info) || indexedByKey(target, rs, info) {
					continue
				}
				if !sortedAfter(target, rs, body, info) {
					why = fmt.Sprintf("appends to %s, which is not sorted afterwards", types.ExprString(target))
				}
			}
		}
		return true
	})
	return why
}

// calleeName is the name a call expression calls by, "" for a call of a
// function value that has none.
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.IndexExpr:
		return calleeName(f.X)
	}
	return ""
}

func isBuiltin(fun ast.Expr, name string, info *types.Info) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// rootIdent is the variable an assignment target is reached from: x for x,
// x.f, x[i] and *x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether id's variable is declared inside rs, so that
// it starts afresh on every iteration.
func declaredWithin(id *ast.Ident, rs *ast.RangeStmt, info *types.Info) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
}

// indexedByKey reports whether target indexes by rs's key, so that every
// iteration appends to a slice of its own.
func indexedByKey(target ast.Expr, rs *ast.RangeStmt, info *types.Info) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	obj := info.Defs[key]
	if obj == nil {
		obj = info.Uses[key]
	}
	found := false
	ast.Inspect(target, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok {
			if id, ok := ix.Index.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether body, after rs, passes target to a sort: a
// function of package sort, a slices.Sort*, or a helper of the package named
// sort*.
func sortedAfter(target ast.Expr, rs *ast.RangeStmt, body *ast.BlockStmt, info *types.Info) bool {
	want := types.ExprString(target)
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if sorted || !ok || call.Pos() < rs.End() || len(call.Args) == 0 || !isSort(call.Fun, info) {
			return !sorted
		}
		ast.Inspect(call.Args[0], func(a ast.Node) bool {
			if e, ok := a.(ast.Expr); ok && types.ExprString(e) == want {
				sorted = true
			}
			return !sorted
		})
		return !sorted
	})
	return sorted
}

func isSort(fun ast.Expr, info *types.Info) bool {
	switch f := fun.(type) {
	case *ast.Ident:
		return strings.HasPrefix(f.Name, "sort")
	case *ast.SelectorExpr:
		pkg, ok := f.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := info.Uses[pkg].(*types.PkgName)
		if !ok {
			return false
		}
		path := pn.Imported().Path()
		return path == "sort" || path == "slices" && strings.HasPrefix(f.Sel.Name, "Sort")
	}
	return false
}
