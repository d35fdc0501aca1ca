package lint

// Parallel-region discovery and happens-before edges for the MHP engine
// (ALGORITHM.md §16). A parallel region is code that may execute on a
// goroutine other than its spawner: the body of a `go` statement (a function
// literal or a statically resolved callee) or a closure dispatched onto one
// of the repo's worker pool (`par.Pool` For/ForWorker and their Ctx
// variants — recognized structurally as methods of a type declared in a
// package named "par", so the testdata fixtures can model them without
// importing the real substrate).
//
// The happens-before edges modeled here are the ones the repo's concurrency
// idioms actually use:
//
//   - Pool dispatch is synchronous: For/ForWorker return only after
//     the internal barrier, so the spawner never runs concurrently with the
//     dispatched closure. The only hazard is the closure racing with its own
//     sibling instances (SelfParallel).
//   - A `go` statement orders everything before it in the spawner ahead of
//     the region body (spawn edge).
//   - wg.Done inside the region paired with wg.Wait in the spawner, and a
//     channel send/close inside the region paired with a receive in the
//     spawner, order the region ahead of the spawner's continuation (join
//     edge, JoinEnd).
//
// Everything below the model — sense-reversing barrier words, seq-tagged CAS
// handoffs — must be marked //lint:hbimpl <reason> on the implementing
// function; sharedwrite skips those bodies and the reason documents why the
// ordering holds anyway.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RegionKind distinguishes how a parallel region is spawned.
type RegionKind uint8

const (
	// RegionGo is the body of a go statement.
	RegionGo RegionKind = iota
	// RegionDispatch is a closure handed to a worker-pool For* method.
	RegionDispatch
)

func (k RegionKind) String() string {
	if k == RegionDispatch {
		return "dispatch"
	}
	return "go"
}

// ParRegion is one parallel region discovered in a function declaration.
type ParRegion struct {
	Pkg      *Package
	EnclFn   *types.Func
	EnclDecl *ast.FuncDecl
	// Site is the spawn site: the *ast.GoStmt or the dispatch *ast.CallExpr.
	Site ast.Node
	Kind RegionKind
	// Lit is the region's function literal; nil when the go statement calls
	// a declared function instead (then CalleeFn/CalleeDecl are set).
	Lit        *ast.FuncLit
	CalleeFn   *types.Func
	CalleePkg  *Package
	CalleeDecl *ast.FuncDecl
	// Worker is the worker-id parameter of a ForWorker closure: the
	// index the interval engine must prove per-worker writes use.
	Worker *types.Var
	// Dist are the instance-distinguishing parameters: values that differ
	// between any two concurrently running instances of the region (worker
	// id, dispatch item index, and go-call arguments that vary per spawn
	// iteration). Indexing a shared container by a value derived from these
	// partitions the writes.
	Dist map[*types.Var]bool
	// SelfParallel reports that two instances of this region may run
	// concurrently (every dispatch; a go statement inside a loop that is not
	// joined within that loop).
	SelfParallel bool
	// JoinEnd is the position of the spawner-side join (wg.Wait or channel
	// receive matching the region); token.NoPos when the region is never
	// joined, in which case the region races with the whole rest of the
	// spawner.
	JoinEnd token.Pos
	// loopEnd is the End of the innermost enclosing loop statement when the
	// spawn site sits inside one (used to decide SelfParallel after joins).
	loopEnd token.Pos
}

// Body returns the region's executable body: the literal's or the resolved
// callee's. Nil when the go statement's callee cannot be resolved.
func (r *ParRegion) Body() *ast.BlockStmt {
	if r.Lit != nil {
		return r.Lit.Body
	}
	if r.CalleeDecl != nil {
		return r.CalleeDecl.Body
	}
	return nil
}

// BodyPkg returns the package whose type info covers Body().
func (r *ParRegion) BodyPkg() *Package {
	if r.Lit != nil || r.CalleeDecl == nil {
		return r.Pkg
	}
	return r.CalleePkg
}

// dispatchArity maps the recognized pool-dispatch method names to the index
// of the worker-id parameter of their closure (-1: none).
var dispatchArity = map[string]int{
	"For": -1, "ForCtx": -1,
	"ForWorker": 0, "ForWorkerCtx": 0,
}

// isPoolDispatch reports whether the call is a worker-pool dispatch: a
// method named in dispatchArity whose receiver type is declared in a package
// named "par", or the package function par.For.
func isPoolDispatch(pkg *Package, call *ast.CallExpr) (workerParam int, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, false
	}
	w, named := dispatchArity[sel.Sel.Name]
	if !named {
		return 0, false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Name() != "par" {
		return 0, false
	}
	return w, true
}

// regionsOf discovers the parallel regions spawned in one declaration. Loop
// context is tracked so go-call arguments that vary per spawn iteration can
// be marked instance-distinguishing.
func regionsOf(mod *Module, pkg *Package, fn *types.Func, fd *ast.FuncDecl) []*ParRegion {
	if fd.Body == nil {
		return nil
	}
	var regions []*ParRegion
	var loops []ast.Stmt // enclosing for/range statements, innermost last
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			for _, child := range loopChildren(n) {
				ast.Inspect(child, walk)
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.GoStmt:
			if r := goRegion(mod, pkg, fn, fd, n, loops); r != nil {
				regions = append(regions, r)
			}
			// Descend: the spawn arguments and the body may contain nested
			// spawns (attributed to the same declaration, like the call
			// graph does).
			return true
		case *ast.CallExpr:
			if r := dispatchRegion(pkg, fn, fd, n, loops); r != nil {
				regions = append(regions, r)
			}
			return true
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	for _, r := range regions {
		findJoin(pkg, fd, r)
		if r.Kind == RegionGo {
			r.SelfParallel = r.loopEnd.IsValid() &&
				!(r.JoinEnd.IsValid() && r.JoinEnd < r.loopEnd)
		}
	}
	return regions
}

// loopChildren returns the sub-nodes of a loop statement in evaluation
// order, so the walker can re-enter them with the loop on the stack.
func loopChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	switch n := n.(type) {
	case *ast.ForStmt:
		if n.Init != nil {
			out = append(out, n.Init)
		}
		if n.Cond != nil {
			out = append(out, n.Cond)
		}
		if n.Post != nil {
			out = append(out, n.Post)
		}
		out = append(out, n.Body)
	case *ast.RangeStmt:
		out = append(out, n.X, n.Body)
	}
	return out
}

// goRegion builds the region for one go statement.
func goRegion(mod *Module, pkg *Package, fn *types.Func, fd *ast.FuncDecl, g *ast.GoStmt, loops []ast.Stmt) *ParRegion {
	r := &ParRegion{
		Pkg: pkg, EnclFn: fn, EnclDecl: fd,
		Site: g, Kind: RegionGo, Dist: map[*types.Var]bool{},
	}
	if len(loops) > 0 {
		r.loopEnd = loops[len(loops)-1].End()
	}
	varying := loopVaryingVars(pkg, loops)
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		r.Lit = fun
		markDistinguishing(pkg, paramVars(pkg, fun.Type), g.Call.Args, varying, r.Dist)
	default:
		callee := staticCallee(pkg, g.Call)
		if callee == nil || !moduleLocal(mod, callee) {
			return r // opaque body; still a region (windows see its spawn args)
		}
		cpkg, cdecl := mod.FuncDecl(callee)
		if cdecl == nil {
			return r
		}
		r.CalleeFn, r.CalleePkg, r.CalleeDecl = callee, cpkg, cdecl
		markDistinguishing(cpkg, paramVars(cpkg, cdecl.Type), g.Call.Args, varying, r.Dist)
	}
	return r
}

// dispatchRegion builds the region for one pool-dispatch call carrying a
// function-literal body.
func dispatchRegion(pkg *Package, fn *types.Func, fd *ast.FuncDecl, call *ast.CallExpr, loops []ast.Stmt) *ParRegion {
	wIdx, ok := isPoolDispatch(pkg, call)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		if lit = boundFuncLit(pkg, fd, call.Args[len(call.Args)-1]); lit == nil {
			return nil // body passed as another value; opaque to the model
		}
	}
	r := &ParRegion{
		Pkg: pkg, EnclFn: fn, EnclDecl: fd,
		Site: call, Kind: RegionDispatch, Lit: lit,
		SelfParallel: true,
		// Dispatch is synchronous: the call returns after the pool barrier,
		// so the spawner continuation is ordered after the whole round.
		JoinEnd: call.Pos(),
		Dist:    map[*types.Var]bool{},
	}
	if len(loops) > 0 {
		r.loopEnd = loops[len(loops)-1].End()
	}
	// Every closure parameter is instance-distinguishing: the pool delivers
	// each (worker, item) pair to exactly one concurrently running instance.
	params := paramVars(pkg, lit.Type)
	for _, p := range params {
		if p != nil {
			r.Dist[p] = true
		}
	}
	if wIdx >= 0 && wIdx < len(params) {
		r.Worker = params[wIdx]
	}
	return r
}

// boundFuncLit resolves a dispatch body passed as a local variable to the
// function literal bound to it: the variable must be bound exactly once in
// the declaration, to a literal, and never have its address taken. A loop of
// rounds builds its body once this way, so the rounds allocate nothing, and
// the model still sees the literal.
func boundFuncLit(pkg *Package, fd *ast.FuncDecl, e ast.Expr) *ast.FuncLit {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	is := func(x ast.Expr) bool {
		xid, ok := ast.Unparen(x).(*ast.Ident)
		return ok && (pkg.Info.Defs[xid] == v || pkg.Info.Uses[xid] == v)
	}
	var lit *ast.FuncLit
	binds, escapes := 0, false
	bind := func(rhs ast.Expr) {
		binds++
		lit, _ = ast.Unparen(rhs).(*ast.FuncLit)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !is(lhs) {
					continue
				}
				if len(n.Rhs) != len(n.Lhs) || n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
					escapes = true
					continue
				}
				bind(n.Rhs[i])
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if !is(name) {
					continue
				}
				if i < len(n.Values) {
					bind(n.Values[i])
				} else {
					binds++ // zero value, bound again later
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && is(n.X) {
				escapes = true
			}
		}
		return true
	})
	if binds != 1 || escapes {
		return nil
	}
	return lit
}

// paramVars resolves a function type's parameter objects in order (nil for
// blank identifiers).
func paramVars(pkg *Package, ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	if ft.Params == nil {
		return out
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			v, _ := pkg.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
		if len(f.Names) == 0 {
			out = append(out, nil)
		}
	}
	return out
}

// loopVaryingVars collects the variables that change between iterations of
// the enclosing loops: for-clause init/post targets, range key/value
// variables, and anything assigned inside a loop body. A go-call argument
// mentioning one of these differs from spawn to spawn.
func loopVaryingVars(pkg *Package, loops []ast.Stmt) map[*types.Var]bool {
	varying := map[*types.Var]bool{}
	record := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			varying[v] = true
		} else if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			varying[v] = true
		}
	}
	for _, l := range loops {
		switch l := l.(type) {
		case *ast.ForStmt:
			for _, s := range []ast.Stmt{l.Init, l.Post} {
				if s == nil {
					continue
				}
				recordAssigned(pkg, s, record)
			}
			ast.Inspect(l.Body, func(n ast.Node) bool {
				if s, ok := n.(ast.Stmt); ok {
					recordAssigned(pkg, s, record)
				}
				return true
			})
		case *ast.RangeStmt:
			if l.Key != nil {
				record(l.Key)
			}
			if l.Value != nil {
				record(l.Value)
			}
			ast.Inspect(l.Body, func(n ast.Node) bool {
				if s, ok := n.(ast.Stmt); ok {
					recordAssigned(pkg, s, record)
				}
				return true
			})
		}
	}
	return varying
}

// recordAssigned feeds every variable the statement assigns to record.
func recordAssigned(pkg *Package, s ast.Stmt, record func(ast.Expr)) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			record(lhs)
		}
	case *ast.IncDecStmt:
		record(s.X)
	}
}

// markDistinguishing marks the region parameters whose corresponding spawn
// arguments vary per iteration of an enclosing loop. With no enclosing loop
// there is only one instance, so nothing distinguishes (SelfParallel will be
// false and Dist is irrelevant).
func markDistinguishing(pkg *Package, params []*types.Var, args []ast.Expr, varying map[*types.Var]bool, dist map[*types.Var]bool) {
	for i, p := range params {
		if p == nil || i >= len(args) {
			continue
		}
		mentions := false
		ast.Inspect(args[i], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := pkg.Info.Uses[id].(*types.Var); ok && varying[v] {
					mentions = true
				}
			}
			return true
		})
		if mentions {
			dist[p] = true
		}
	}
}

// findJoin locates the spawner-side join for a go region: the first wg.Wait
// after the spawn whose WaitGroup the region Dones, or the first receive
// from a channel the region sends on or closes.
func findJoin(pkg *Package, fd *ast.FuncDecl, r *ParRegion) {
	if r.Kind != RegionGo {
		return
	}
	body := r.Body()
	if body == nil {
		return
	}
	bpkg := r.BodyPkg()
	// The WaitGroups the region completes and the channels it signals.
	dones := map[*types.Var]bool{}
	signals := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if v, _ := addressedVar(bpkg, sel.X); v != nil && isWaitGroupType(v.Type()) {
					dones[v] = true
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if v, _ := addressedVar(bpkg, n.Args[0]); v != nil {
					signals[v] = true
				}
			}
		case *ast.SendStmt:
			if v, _ := addressedVar(bpkg, n.Chan); v != nil {
				signals[v] = true
			}
		}
		return true
	})
	if len(dones) == 0 && len(signals) == 0 {
		return
	}
	spawn := r.Site.Pos()
	best := token.NoPos
	consider := func(pos token.Pos) {
		if pos > spawn && (!best.IsValid() || pos < best) {
			best = pos
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // joins must run on the spawner's goroutine
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if v, _ := addressedVar(pkg, sel.X); v != nil && dones[v] {
					consider(n.Pos())
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if v, _ := addressedVar(pkg, n.X); v != nil && signals[v] {
					consider(n.Pos())
				}
			}
		case *ast.RangeStmt:
			if v, _ := addressedVar(pkg, n.X); v != nil && signals[v] {
				consider(n.Pos())
			}
		}
		return true
	})
	r.JoinEnd = best
}

// hbimplPrefix marks a function as implementing a synchronization primitive
// below the happens-before model (barrier words, CAS handoffs): sharedwrite
// trusts the documented reasoning instead of the model there.
const hbimplPrefix = "//lint:hbimpl"

func isHbimplDirective(text string) bool { return isDirective(text, hbimplPrefix) }

// hbimplReason extracts the directive's reason text ("" when missing).
func hbimplReason(text string) string {
	return strings.TrimSpace(strings.TrimPrefix(text, hbimplPrefix))
}

// hbimplFuncs collects every declared function in the module whose doc
// comment carries //lint:hbimpl, reporting directives with no reason (the
// reason is the proof sketch; a bare marker is an unchecked assumption).
func hbimplFuncs(pass *ModulePass) map[*types.Func]bool {
	marked := map[*types.Func]bool{}
	for _, pkg := range pass.Mod.Packages {
		if pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			fns, attached := directiveFuncs(f, isHbimplDirective)
			for _, fd := range fns {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					marked[fn] = true
				}
				for _, c := range fd.Doc.List {
					if isHbimplDirective(c.Text) && hbimplReason(c.Text) == "" {
						pass.Reportf(c.Pos(), "//lint:hbimpl needs a reason: say why the ordering holds below the happens-before model")
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if isHbimplDirective(c.Text) && !attached[c] {
						pass.Reportf(c.Pos(), "stray //lint:hbimpl: the directive must be part of a function declaration's doc comment")
					}
				}
			}
		}
	}
	return marked
}
