package lint

// CancelPoll proves bounded cancellation latency on the solve path (PR 2's
// amortized-cancellation design, ALGORITHM.md §16). The property: every loop
// in a function on a path from a `solver` entry point (an exported function
// with a context.Context parameter in a package named "solver") to a
// //lint:hotpath kernel must poll for cancellation — receive from a done
// channel, call ctx.Err(), dispatch through a *Ctx pool primitive, or call a
// module function that itself polls — at least once per maxPollStride
// iterations. Poll sites may sit behind stride guards (`i%K == 0`,
// `i&(K-1) == 0`, or a budget countdown `if budget <= 0` reset to K); K must
// fold to a constant, so "polls every fillCheckEvery entries" is a checked
// claim, not a comment.
//
// Loops inside the hotpath kernels themselves are exempt — the kernel is the
// amortized unit whose cost the enclosing sweep loop's poll covers — as are
// loops inside function literals (dispatched closures run under a *Ctx
// primitive that owns their polling). //lint:hotpath marks the kernels, so a
// directive that is not part of a function's doc comment is reported: it
// would silently drop its kernel from the targets.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// maxPollStride is the largest poll stride accepted: 2^16
// iterations. The repo's strides (fillCheckEvery = 2^15, the pool's
// cancelCheckEvery = 256) sit below it with headroom for one doubling.
const maxPollStride = int64(1) << 16

var CancelPoll = &Analyzer{
	Name:      "cancelpoll",
	Doc:       "every loop on a solver-to-hotpath path must poll cancellation at least once per 2^16 iterations (constant stride)",
	RunModule: runCancelPoll,
}

func runCancelPoll(pass *ModulePass) {
	mod := pass.Mod
	graph := BuildCallGraph(mod)

	targets := hotpathTargets(pass)
	var roots []*types.Func
	for _, n := range graph.SortedNodes() {
		if n.Pkg.Types != nil && n.Pkg.Types.Name() == "solver" &&
			n.Fn.Exported() && ctxParamSig(n.Fn) {
			roots = append(roots, n.Fn)
		}
	}
	if len(roots) == 0 || len(targets) == 0 {
		return
	}
	fromRoot := graph.Reachable(roots)
	toTarget := reverseReachable(graph, targets)
	polls := pollingFuncs(graph)

	for _, n := range graph.SortedNodes() {
		root, onF := fromRoot[n.Fn]
		tgt, onB := toTarget[n.Fn]
		if !onF || !onB || targets[n.Fn] || n.Decl.Body == nil {
			continue
		}
		c := &pollChecker{
			pass: pass, pkg: n.Pkg, decl: n.Decl,
			targets: targets, toTarget: toTarget, polls: polls,
			root: root.Name(), target: tgt.Name(),
		}
		c.checkBody(n.Decl.Body)
	}
}

const hotpathPrefix = "//lint:hotpath"

// isHotpathDirective matches a comment that is the directive prefix, alone
// or followed by a space or tab and a reason.
func isHotpathDirective(text string) bool {
	rest, ok := strings.CutPrefix(text, hotpathPrefix)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// hotpathTargets returns the functions whose doc comment carries a
// //lint:hotpath directive and reports every directive that is not part of
// a function declaration's doc comment.
func hotpathTargets(pass *ModulePass) map[*types.Func]bool {
	targets := map[*types.Func]bool{}
	for _, pkg := range pass.Mod.Packages {
		if pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			attached := map[*ast.Comment]bool{}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !isHotpathDirective(c.Text) {
						continue
					}
					attached[c] = true
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						targets[fn] = true
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if isHotpathDirective(c.Text) && !attached[c] {
						pass.Reportf(c.Pos(), "stray %s: the directive must be part of a function declaration's doc comment", hotpathPrefix)
					}
				}
			}
		}
	}
	return targets
}

// ctxParamSig reports whether any parameter is a context.Context.
func ctxParamSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named, ok := sig.Params().At(i).Type().(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				return true
			}
		}
	}
	return false
}

// reverseReachable maps every function from which some target is reachable
// to a witness target.
func reverseReachable(g *CallGraph, targets map[*types.Func]bool) map[*types.Func]*types.Func {
	rev := map[*types.Func][]*types.Func{}
	for _, n := range g.SortedNodes() {
		for _, c := range n.Callees {
			rev[c] = append(rev[c], n.Fn)
		}
	}
	witness := map[*types.Func]*types.Func{}
	var queue []*types.Func
	var tgts []*types.Func
	for t := range targets {
		tgts = append(tgts, t)
	}
	sort.Slice(tgts, func(i, j int) bool { return tgts[i].Pos() < tgts[j].Pos() })
	for _, t := range tgts {
		witness[t] = t
		queue = append(queue, t)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range rev[fn] {
			if _, ok := witness[caller]; ok {
				continue
			}
			witness[caller] = witness[fn]
			queue = append(queue, caller)
		}
	}
	return witness
}

// pollingFuncs computes, as a call-graph fixpoint, the module functions that
// poll cancellation somewhere in their body (directly or via a callee).
func pollingFuncs(g *CallGraph) map[*types.Func]bool {
	polls := map[*types.Func]bool{}
	nodes := g.SortedNodes()
	for _, n := range nodes {
		if n.Decl.Body == nil {
			continue
		}
		found := false
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if found {
				return false
			}
			if isDirectPoll(n.Pkg, nd) {
				found = true
				return false
			}
			return true
		})
		if found {
			polls[n.Fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if polls[n.Fn] {
				continue
			}
			for _, c := range n.Callees {
				if polls[c] {
					polls[n.Fn] = true
					changed = true
					break
				}
			}
		}
	}
	return polls
}

// isDirectPoll recognizes a cancellation poll point: a receive from a done
// channel (struct{} element) or from ctx.Done(), a ctx.Err() call, or a
// *Ctx pool dispatch (which polls internally between iterations).
func isDirectPoll(pkg *Package, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op != token.ARROW {
			return false
		}
		return isDoneChannel(pkg, n.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Err" && isContextExpr(pkg, sel.X) {
				return true
			}
			if strings.HasSuffix(sel.Sel.Name, "Ctx") && isParFunc(pkg, sel) {
				return true
			}
		}
	case *ast.RangeStmt:
		// Ranging over a done channel blocks on it each iteration.
		return isDoneChannel(pkg, n.X)
	}
	return false
}

// isDoneChannel reports whether the expression is a cancellation signal: a
// ctx.Done() call or any channel of empty structs.
func isDoneChannel(pkg *Package, e ast.Expr) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" && isContextExpr(pkg, sel.X) {
				return true
			}
		}
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// pollChecker walks one on-path declaration and enforces the obligation on
// its loops.
type pollChecker struct {
	pass     *ModulePass
	pkg      *Package
	decl     *ast.FuncDecl
	targets  map[*types.Func]bool
	toTarget map[*types.Func]*types.Func
	polls    map[*types.Func]bool
	root     string
	target   string
}

// checkBody recurses over statements, skipping function literals, and
// checks every for/range loop it finds.
func (c *pollChecker) checkBody(n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			c.checkLoop(nd, nd.Body)
		case *ast.RangeStmt:
			c.checkLoop(nd, nd.Body)
		}
		return true
	})
}

// checkLoop enforces the poll obligation on one loop (nested loops are
// visited separately by checkBody's recursion).
func (c *pollChecker) checkLoop(loop ast.Node, body *ast.BlockStmt) {
	if !c.loopObligated(body) {
		return
	}
	stride, found, bounded := c.bestPoll(loop, body)
	switch {
	case !found:
		c.pass.Reportf(loop.Pos(),
			"loop on the cancellation path %s -> %s never polls for cancellation: a canceled solve runs to completion here; check ctx.Done()/ctx.Err() (directly or via a polling callee) at least once per %d iterations",
			c.root, c.target, maxPollStride)
	case !bounded:
		c.pass.Reportf(loop.Pos(),
			"cannot bound the cancellation poll stride in this loop on the path %s -> %s: guard the poll with i%%K == 0, i&(K-1) == 0, or a budget reset to K, for a constant K <= %d",
			c.root, c.target, maxPollStride)
	case stride > maxPollStride:
		c.pass.Reportf(loop.Pos(),
			"loop on the cancellation path %s -> %s polls for cancellation only every %d iterations (limit %d): lower the stride",
			c.root, c.target, stride, maxPollStride)
	}
}

// loopObligated reports whether the loop body (function literals excluded)
// calls into the path toward a hotpath kernel.
func (c *pollChecker) loopObligated(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(c.pkg, call)
		if callee == nil {
			return true
		}
		if c.targets[callee] {
			found = true
		} else if _, on := c.toTarget[callee]; on {
			found = true
		}
		return !found
	})
	return found
}

// bestPoll finds the poll with the smallest stride in the loop body.
// Returns (stride, found-any-poll, found-bounded-poll).
func (c *pollChecker) bestPoll(loop ast.Node, body *ast.BlockStmt) (int64, bool, bool) {
	best := int64(-1)
	found := false
	var guards []ast.Expr
	var visitStmt func(ast.Stmt)
	notePoll := func(n ast.Node) {
		if !isDirectPoll(c.pkg, n) && !c.isPollingCall(n) {
			return
		}
		found = true
		if s, ok := c.guardStride(guards); ok && (best < 0 || s < best) {
			best = s
		}
	}
	scanExpr := func(e ast.Node) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(nd ast.Node) bool {
			if _, ok := nd.(*ast.FuncLit); ok {
				return false
			}
			notePoll(nd)
			return true
		})
	}
	visitStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.IfStmt:
			// Polls in the init/cond (`if err := ctx.Err(); err != nil`)
			// are guarded by the *enclosing* conditions only.
			visitStmt(s.Init)
			scanExpr(s.Cond)
			guards = append(guards, s.Cond)
			for _, st := range s.Body.List {
				visitStmt(st)
			}
			guards = guards[:len(guards)-1]
			visitStmt(s.Else)
		case *ast.BlockStmt:
			for _, st := range s.List {
				visitStmt(st)
			}
		case *ast.ForStmt:
			visitStmt(s.Init)
			scanExpr(s.Cond)
			visitStmt(s.Post)
			visitStmt(s.Body)
		case *ast.RangeStmt:
			notePoll(s)
			scanExpr(s.X)
			visitStmt(s.Body)
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok {
					if comm.Comm != nil {
						scanExpr(comm.Comm)
					}
					for _, st := range comm.Body {
						visitStmt(st)
					}
				}
			}
		case *ast.SwitchStmt:
			visitStmt(s.Init)
			scanExpr(s.Tag)
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					for _, st := range cc.Body {
						visitStmt(st)
					}
				}
			}
		case *ast.LabeledStmt:
			visitStmt(s.Stmt)
		default:
			scanExpr(s)
		}
	}
	visitStmt(body)
	return best, found, best >= 0
}

// isPollingCall reports a call to a module function that polls (fixpoint
// set).
func (c *pollChecker) isPollingCall(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := staticCallee(c.pkg, call)
	return callee != nil && c.polls[callee]
}

// guardStride multiplies the strides of the enclosing guards; ok=false when
// any guard is unclassifiable (the poll may never run).
func (c *pollChecker) guardStride(guards []ast.Expr) (int64, bool) {
	stride := int64(1)
	for _, g := range guards {
		k, ok := c.condStride(g)
		if !ok {
			return 0, false
		}
		if stride > maxPollStride/k+1 {
			return maxPollStride + 1, true // saturate: already over the limit
		}
		stride *= k
	}
	return stride, true
}

// condStride classifies one guard condition: nil comparisons pass (stride
// 1), `x % K == 0` and `x & M == 0` contribute K and M+1, a budget test
// (`x <= 0`, `x == 0`, `x < 1`) contributes the largest constant the budget
// is reset to. Anything else is unclassifiable.
func (c *pollChecker) condStride(cond ast.Expr) (int64, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	if isNilIdent(be.X) || isNilIdent(be.Y) {
		return 1, true
	}
	switch be.Op {
	case token.EQL:
		if !isConstZero(c.pkg, be.Y) {
			break
		}
		switch x := ast.Unparen(be.X).(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.REM: // i % K == 0
				if k, ok := constValue(c.pkg, x.Y); ok && k > 0 {
					return k, true
				}
			case token.AND: // i & (K-1) == 0
				if m, ok := constValue(c.pkg, x.Y); ok && m >= 0 && m < maxPollStride {
					return m + 1, true
				}
			}
		default:
			// x == 0: a budget hitting zero.
			if k, ok := c.budgetReset(be.X); ok {
				return k, true
			}
		}
	case token.LEQ, token.LSS:
		// budget <= 0 / budget < 1.
		lim, ok := constValue(c.pkg, be.Y)
		if !ok || (be.Op == token.LEQ && lim != 0) || (be.Op == token.LSS && lim != 1) {
			break
		}
		if k, ok := c.budgetReset(be.X); ok {
			return k, true
		}
	}
	return 0, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isConstZero(pkg *Package, e ast.Expr) bool {
	v, ok := constValue(pkg, e)
	return ok && v == 0
}

// constValue folds a constant expression to an int64.
func constValue(pkg *Package, e ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// budgetReset resolves a budget countdown variable (local or field chain)
// and returns the largest constant it is ever reset to in this declaration.
func (c *pollChecker) budgetReset(e ast.Expr) (int64, bool) {
	leafOf := func(x ast.Expr) *types.Var {
		root, leaf := peelChain(c.pkg, x)
		if leaf != nil {
			return leaf
		}
		return root
	}
	target := leafOf(e)
	if target == nil {
		return 0, false
	}
	best := int64(-1)
	consider := func(rhs ast.Expr) {
		if k, ok := constValue(c.pkg, rhs); ok && k > best {
			best = k
		}
	}
	ast.Inspect(c.decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			if nd.Tok != token.ASSIGN && nd.Tok != token.DEFINE {
				return true // compound ops are the countdown itself
			}
			for i, lhs := range nd.Lhs {
				if i >= len(nd.Rhs) {
					break
				}
				if leafOf(lhs) == target {
					consider(nd.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range nd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) && leafOf(name) == target {
							consider(vs.Values[i])
						}
					}
				}
			}
		}
		return true
	})
	if best < 0 {
		return 0, false
	}
	return best, true
}

// isParFunc reports whether the selector names a function or method
// declared in a package named "par".
func isParFunc(pkg *Package, sel *ast.SelectorExpr) bool {
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Name() == "par"
}

// peelChain resolves an access expression to its root variable and the leaf
// field it touches (nil when the root itself is the storage). A nil root
// means the chain starts at something unresolvable (a call result, a
// literal).
func peelChain(pkg *Package, e ast.Expr) (root *types.Var, leaf *types.Var) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := pkg.Info.Uses[x].(*types.Var)
			if v == nil {
				v, _ = pkg.Info.Defs[x].(*types.Var)
			}
			if v != nil && v.IsField() && leaf == nil {
				leaf = v
			}
			return v, leaf
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && leaf == nil {
					leaf = v
				}
				e = x.X
				continue
			}
			// Qualified package var: pkg.V.
			if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
				return v, leaf
			}
			return nil, leaf
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, leaf
		}
	}
}
