package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MutexByValue is the copylocks check specialized to the parallel substrate:
// internal/par's Pool (which owns a mutex, a WaitGroup over its workers and
// the worker feed channels) and the cache-line-padded counter type must
// never be copied or embedded by value. Copying a Pool forks its
// closed/mutex state — exactly the class of bug behind the PR-1 Close/For
// race — and detaches the copy from its workers, and copying a padded
// counter silently destroys the false-sharing layout the type exists for.
// The guarded set is derived from types, not names: any struct declared in
// internal/par that holds a sync/sync-atomic value or a blank padding array,
// which covers any new substrate type automatically.
var MutexByValue = &Analyzer{
	Name: "mutexbyvalue",
	Doc:  "internal/par's pool and padded counter types must be handled by pointer, never copied or embedded by value",
	Run:  runMutexByValue,
}

func runMutexByValue(p *Pass) {
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkStructFields(p, n)
			case *ast.FuncDecl:
				checkFuncSig(p, n.Type)
			case *ast.FuncLit:
				checkFuncSig(p, n.Type)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkValueCopy(p, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkValueCopy(p, v)
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if name, ok := guardedExprType(p, n.Value); ok {
						p.Reportf(n.Value.Pos(), "range copies par.%s by value; iterate by index and take a pointer", name)
					}
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					checkValueCopy(p, arg)
				}
			}
			return true
		})
	}
}

// checkStructFields flags struct fields (including embedded ones) of a
// guarded type held by value. Fixed-size arrays copy their elements with the
// struct and are peeled; slices only copy their header, so a []pad or
// []cursorPad field (the barrier pool's per-worker state) is fine.
func checkStructFields(p *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		t := field.Type
		if arr, ok := t.(*ast.ArrayType); ok {
			if arr.Len == nil {
				continue // slice header: elements are not copied
			}
			t = arr.Elt
		}
		if name, ok := guardedExprType(p, t); ok {
			p.Reportf(field.Pos(), "struct field holds par.%s by value; store *par.%s instead", name, name)
		}
	}
}

// checkFuncSig flags parameters and results of a guarded type passed by
// value.
func checkFuncSig(p *Pass, ft *ast.FuncType) {
	lists := []*ast.FieldList{ft.Params, ft.Results}
	for _, list := range lists {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			if name, ok := guardedExprType(p, field.Type); ok {
				p.Reportf(field.Pos(), "par.%s passed by value; pass *par.%s instead", name, name)
			}
		}
	}
}

// checkValueCopy flags expressions that copy a guarded value: variable
// reads, field/element selections and pointer dereferences. Composite
// literals and calls construct fresh values and are allowed.
func checkValueCopy(p *Pass, e ast.Expr) {
	switch unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	if name, ok := guardedExprType(p, e); ok {
		p.Reportf(e.Pos(), "expression copies par.%s by value; use a pointer", name)
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// guardedExprType reports whether the expression's type is a guarded
// internal/par value type, returning the type name.
func guardedExprType(p *Pass, e ast.Expr) (string, bool) {
	// TypeOf consults Types, Defs and Uses, so range-clause definitions
	// (recorded only in Defs) resolve too.
	t := p.Pkg.Info.TypeOf(e)
	if t == nil {
		return "", false
	}
	return guardedType(t)
}

// guardedType reports whether t is (a value of) a named struct type declared
// in internal/par that must not be copied: it transitively holds a sync or
// sync/atomic value, or a blank cache-line padding array.
func guardedType(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/par") {
		return "", false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	if structNeedsNoCopy(st, 0) {
		return obj.Name(), true
	}
	return "", false
}

// structNeedsNoCopy reports whether the struct holds, by value, a lock-ish
// field (anything from sync or sync/atomic) or a blank padding array, up to
// a small nesting depth.
func structNeedsNoCopy(st *types.Struct, depth int) bool {
	if depth > 3 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		ft := f.Type()
		if f.Name() == "_" {
			if _, isArr := ft.Underlying().(*types.Array); isArr {
				return true
			}
		}
		if named, ok := ft.(*types.Named); ok {
			if pkg := named.Obj().Pkg(); pkg != nil {
				if path := pkg.Path(); path == "sync" || path == "sync/atomic" {
					return true
				}
			}
			if inner, ok := named.Underlying().(*types.Struct); ok && structNeedsNoCopy(inner, depth+1) {
				return true
			}
		}
		if inner, ok := ft.(*types.Struct); ok && structNeedsNoCopy(inner, depth+1) {
			return true
		}
	}
	return false
}
