package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxScopedPackages are the solver-entry packages where every blocking
// exported function must be cancellable: the facade, the bisection driver,
// the DP fills and the branch-and-bound solvers.
var ctxScopedPackages = map[string]bool{
	"solver":         true,
	"internal/core":  true,
	"internal/dp":    true,
	"internal/exact": true,
}

// CtxFirst enforces the cancellation contract established in PR 2: solver
// entry points thread context.Context from the facade down to the innermost
// fill loops. Three rules:
//
//  1. in the scoped packages, a context.Context parameter must be the
//     first parameter (the Go convention every caller site relies on);
//  2. in the scoped packages, an exported function whose body uses
//     blocking constructs (go statements, selects, channel operations,
//     sync.WaitGroup.Wait) must accept a context.Context;
//  3. context.Background() and context.TODO() are forbidden outside
//     package main, examples and tests — library code must propagate its
//     caller's context, never mint a root one.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "blocking solver entry points take ctx first; library code never mints root contexts",
	Run:  runCtxFirst,
}

func runCtxFirst(p *Pass) {
	scoped := ctxScopedPackages[p.Pkg.RelPath]
	libCode := !p.Pkg.IsMain() && !strings.HasPrefix(p.Pkg.RelPath, "examples")
	for _, f := range p.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			if scoped {
				checkCtxPosition(p, fd)
				if fd.Name.IsExported() && fd.Body != nil &&
					!hasContextParam(p, fd) && usesBlockingConstructs(p, fd.Body) {
					p.Reportf(fd.Name.Pos(),
						"exported %s uses blocking constructs but takes no context.Context; blocking entry points must be cancellable", fd.Name.Name)
				}
			}
		}
		if libCode {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := contextRootCall(p, call); name != "" {
					p.Reportf(call.Pos(),
						"context.%s() in library code: propagate the caller's context instead of minting a root one", name)
				}
				return true
			})
		}
	}
}

// checkCtxPosition flags context.Context parameters that are not first, and
// variadic context parameters (…context.Context), which break the one-ctx
// convention and do not satisfy the cancellability requirement.
func checkCtxPosition(p *Pass, fd *ast.FuncDecl) {
	pos := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if ell, ok := field.Type.(*ast.Ellipsis); ok {
			if isContextType(p, ell.Elt) {
				p.Reportf(field.Pos(), "context.Context must not be variadic in %s; take exactly one ctx as the first parameter", fd.Name.Name)
			}
			pos += n
			continue
		}
		if isContextType(p, field.Type) && pos != 0 {
			p.Reportf(field.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
		}
		pos += n
	}
}

// hasContextParam reports whether fd takes a context.Context anywhere. A
// variadic …context.Context does not count: callers can pass zero of them,
// so the function is not actually cancellable.
func hasContextParam(p *Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if _, variadic := field.Type.(*ast.Ellipsis); variadic {
			continue
		}
		if isContextType(p, field.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether the expression's type is context.Context.
func isContextType(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// usesBlockingConstructs reports whether the body blocks: directly, or by
// taking a method value of a module function that blocks (handing
// pool.ForWorker to a helper blocks when the helper invokes it, so the
// exported wrapper must still be cancellable).
func usesBlockingConstructs(p *Pass, body *ast.BlockStmt) bool {
	return blockingBody(p.Mod, p.Pkg, body, true)
}

// blockingBody reports whether the body contains a go statement, a select,
// a channel send/receive, a range over a channel, or a sync.WaitGroup Wait
// call. When followRefs is set, an uncalled reference to a module function
// or method (a method value or function value) whose own body blocks
// directly also counts — one level deep, not transitively, so the check
// stays a linter and not a whole-program escape analysis.
func blockingBody(mod *Module, pkg *Package, body *ast.BlockStmt, followRefs bool) bool {
	// called holds every expression in call position, so references can be
	// told apart from invocations; selSels marks selector Sel idents, which
	// are handled at the enclosing SelectorExpr.
	called := map[ast.Expr]bool{}
	selSels := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			called[ast.Unparen(n.Fun)] = true
		case *ast.SelectorExpr:
			selSels[n.Sel] = true
		}
		return true
	})
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupWait(pkg, n) {
				found = true
			}
		case *ast.SelectorExpr:
			if !followRefs || called[n] {
				break
			}
			if n.Sel.Name == "Wait" && isWaitGroupExpr(pkg, n.X) {
				found = true // wg.Wait as a method value
				break
			}
			if fn, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok && blockingFuncRef(mod, fn) {
				found = true
			}
		case *ast.Ident:
			if !followRefs || called[n] || selSels[n] {
				break
			}
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok && blockingFuncRef(mod, fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

// blockingFuncRef reports whether fn is a module function whose own body
// blocks directly.
func blockingFuncRef(mod *Module, fn *types.Func) bool {
	if !moduleLocal(mod, fn) {
		return false
	}
	declPkg, decl := mod.FuncDecl(fn)
	if decl == nil || decl.Body == nil {
		return false
	}
	return blockingBody(mod, declPkg, decl.Body, false)
}

// isWaitGroupWait reports whether the call is <sync.WaitGroup>.Wait().
func isWaitGroupWait(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	return isWaitGroupExpr(pkg, sel.X)
}

// isWaitGroupExpr reports whether the expression is a sync.WaitGroup (or
// pointer to one).
func isWaitGroupExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// contextRootCall returns "Background" or "TODO" when the call mints a root
// context, "" otherwise.
func contextRootCall(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := p.Pkg.Info.Uses[ident].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}

// moduleLocal reports whether the function is declared in the module under
// analysis (as opposed to the standard library).
func moduleLocal(mod *Module, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == mod.Path || strings.HasPrefix(path, mod.Path+"/")
}

// funcSite is a declared module function's package and syntax.
type funcSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// FuncDecl resolves a function object to its declaring package and syntax,
// or (nil, nil) when fn is not a declared module function (stdlib, or a
// function literal). The index is built on first use.
func (m *Module) FuncDecl(fn *types.Func) (*Package, *ast.FuncDecl) {
	if m.funcs == nil {
		m.funcs = map[*types.Func]funcSite{}
		for _, pkg := range m.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						m.funcs[obj] = funcSite{pkg: pkg, decl: fd}
					}
				}
			}
		}
	}
	site := m.funcs[fn]
	return site.pkg, site.decl
}
