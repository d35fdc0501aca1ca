package lint

// The may-happen-in-parallel access model behind sharedwrite (ALGORITHM.md
// §16). For every parallel region found by regionsOf, the engine collects
// the shared-memory accesses the region can perform — directly in its body
// and transitively through module-local calls — and classifies each one into
// an ordering tier:
//
//	tierAtomic    performed through sync/atomic (function or typed form)
//	tierWorker    element write whose index the interval engine proves equal
//	              to the closure's worker-id parameter (the padded-slot idiom)
//	tierInstance  element access indexed by a value derived from an
//	              instance-distinguishing parameter (dispatch item index,
//	              per-spawn go arguments); instances touch disjoint elements
//	              by the dispatch contract
//	tierAssumed   element access two or more calls below the region whose
//	              index is data passed down the call chain; the partition
//	              obligation was checked at the region boundary
//	tierPlain     everything else — a conflict candidate
//
// Each access also carries the may-held mutex set at its site (the lockorder
// dataflow re-run locally), so mutex-guarded accesses on both sides of a
// pair are recognized as ordered.
//
// The model is deliberately an under-approximating linter, not a verifier,
// in the same spirit as the call graph: writes through interface methods and
// function-typed parameters are invisible, tierInstance/tierAssumed encode
// documented injectivity assumptions (each (worker, item) pair is delivered
// to exactly one instance), and locals assigned from call results are
// treated as fresh. What it proves precisely — the worker-slot index
// equality — it proves with the SSA interval lattice; what it assumes, the
// diagnostics and ALGORITHM.md spell out.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// accTier classifies how an access is ordered against concurrent instances.
type accTier uint8

const (
	tierPlain accTier = iota
	tierAtomic
	tierWorker
	tierInstance
	tierAssumed
)

func (t accTier) String() string {
	switch t {
	case tierAtomic:
		return "atomic"
	case tierWorker:
		return "worker-slot"
	case tierInstance:
		return "instance-indexed"
	case tierAssumed:
		return "chain-indexed"
	}
	return "plain"
}

// partitionedTier reports whether the tier means "distinct instances touch
// distinct elements".
func partitionedTier(t accTier) bool {
	return t == tierWorker || t == tierInstance || t == tierAssumed
}

// access is one shared-memory access attributed to a region or a spawner
// window.
type access struct {
	// id is the conflict identity: the leaf struct field, the package-level
	// variable, or the closure-captured local being touched. Distinct
	// instances of one struct type merge (same conservative choice as
	// lockorder).
	id    *types.Var
	write bool
	tier  accTier
	// held is the may-held mutex set at the access site.
	held map[*types.Var]bool
	// pos is the actual access site; rep is where a diagnostic anchors
	// (the region-side call site when the access happens in a callee).
	pos token.Pos
	rep token.Pos
	// in names the function containing the actual access, for messages.
	in string
}

// commonHeld reports whether both accesses hold a common mutex.
func commonHeld(a, b *access) bool {
	for v := range a.held {
		if b.held[v] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Function summaries

// sumIdxKind classifies the element index of a summarized access.
type sumIdxKind uint8

const (
	sumWhole   sumIdxKind = iota // no element index: the whole variable
	sumParams                    // index mentions the function's parameters
	sumAssumed                   // index is call-chain data below the boundary
	sumShared                    // index is shared state (globals, constants)
)

// sumAccess is one access in a function's interprocedural summary, rooted
// either at a parameter (rootParam >= 0, receiver first) or at package-level
// state (rootParam < 0).
type sumAccess struct {
	rootParam int
	id        *types.Var // leaf field, or nil when the whole root is touched
	write     bool
	atomic    bool
	idx       sumIdxKind
	mentions  []int // for sumParams: which parameters the index mentions
	held      map[*types.Var]bool
	pos       token.Pos
	in        string
}

// sumKey dedups summary entries so the fixpoint terminates.
type sumKey struct {
	rootParam int
	id        *types.Var
	write     bool
	atomic    bool
	idx       sumIdxKind
	heldSig   string
}

func heldSig(held map[*types.Var]bool) string {
	if len(held) == 0 {
		return ""
	}
	names := make([]string, 0, len(held))
	for v := range held {
		names = append(names, v.Name())
	}
	sort.Strings(names)
	sig := names[0]
	for _, n := range names[1:] {
		sig += "," + n
	}
	return sig
}

// sumCall is one statically resolved module-local call inside a function,
// kept so the fixpoint can substitute callee summaries into the caller.
type sumCall struct {
	callee *types.Func
	// args are the effective arguments with the method receiver prepended
	// when the callee is a method.
	args []ast.Expr
	// alias holds, per argument whose chain starts at a local bound to
	// shared storage (opt := t.Opt), that binding: the argument reaches the
	// callee as the alias target, not as fresh storage. Nil when no
	// argument is such a local.
	alias []*aliasTarget
	held  map[*types.Var]bool
	pos   token.Pos
}

// funcSummary is the transitive shared-access summary of one declaration.
type funcSummary struct {
	params []*types.Var
	accs   []sumAccess
	keys   map[sumKey]bool
	calls  []sumCall
}

// mhpModel carries the per-run state of the MHP engine.
type mhpModel struct {
	mod       *Module
	graph     *CallGraph
	summaries map[*types.Func]*funcSummary
	hbimpl    map[*types.Func]bool
	// vf memoizes per-region value-flow engines for the worker-slot proof.
	vf map[*ParRegion]*valueFlow
}

func newMHPModel(mod *Module, hbimpl map[*types.Func]bool) *mhpModel {
	m := &mhpModel{
		mod:       mod,
		graph:     BuildCallGraph(mod),
		summaries: map[*types.Func]*funcSummary{},
		hbimpl:    hbimpl,
		vf:        map[*ParRegion]*valueFlow{},
	}
	m.buildSummaries()
	return m
}

// funcParams returns a declaration's receiver-then-parameters objects.
func funcParams(pkg *Package, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				v, _ := pkg.Info.Defs[name].(*types.Var)
				out = append(out, v)
			}
			if len(f.Names) == 0 {
				out = append(out, nil)
			}
		}
	}
	return append(out, paramVars(pkg, fd.Type)...)
}

// buildSummaries computes every declaration's direct accesses and then runs
// the substitution fixpoint over the call graph.
func (m *mhpModel) buildSummaries() {
	nodes := m.graph.SortedNodes()
	for _, n := range nodes {
		if n.Decl.Body == nil {
			continue
		}
		s := &funcSummary{params: funcParams(n.Pkg, n.Decl), keys: map[sumKey]bool{}}
		m.summaries[n.Fn] = s
		ctx := &accCtx{
			model: m, pkg: n.Pkg,
			bodyStart: n.Decl.Body.Pos(), bodyEnd: n.Decl.Body.End(),
			params: s.params, summaryMode: true,
			fnName: n.Fn.Name(),
		}
		accs, calls := collectAccesses(n.Pkg, n.Decl.Body, ctx, nil)
		_ = accs // summary mode records into ctx.sum directly
		for _, a := range ctx.sum {
			s.add(a)
		}
		s.calls = calls
	}
	// Fixpoint: substitute callee summaries into callers until stable.
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			s := m.summaries[n.Fn]
			if s == nil {
				continue
			}
			for _, c := range s.calls {
				if m.hbimpl[c.callee] {
					continue
				}
				cs := m.summaries[c.callee]
				if cs == nil {
					continue
				}
				for _, a := range cs.accs {
					if mapped, ok := m.substitute(n, s, c, cs, a); ok && s.add(mapped) {
						changed = true
					}
				}
			}
		}
	}
}

// add inserts a summary access if its dedup key is new.
func (s *funcSummary) add(a sumAccess) bool {
	k := sumKey{a.rootParam, a.id, a.write, a.atomic, a.idx, heldSig(a.held)}
	if s.keys[k] {
		return false
	}
	s.keys[k] = true
	s.accs = append(s.accs, a)
	return true
}

// substitute maps one callee summary access into the caller across call c.
// Returns ok=false when the access is invisible to the caller (rooted at an
// argument the caller allocated freshly).
func (m *mhpModel) substitute(n *CallNode, s *funcSummary, c sumCall, cs *funcSummary, a sumAccess) (sumAccess, bool) {
	out := a
	whole := false
	out.pos = a.pos
	out.held = unionHeld(a.held, c.held)
	if a.rootParam >= 0 {
		if a.rootParam >= len(c.args) || c.args[a.rootParam] == nil {
			return out, false
		}
		rootParam, absVar, leaf, fresh := m.resolveSummaryRoot(n.Pkg, s.params, c.args[a.rootParam])
		if c.alias != nil && c.alias[a.rootParam] != nil {
			al := c.alias[a.rootParam]
			rootParam, absVar, fresh = resolveRootVar(s.params, al.root)
			if leaf == nil {
				leaf = al.leaf
			}
			// Through a resliced binding the callee's element indexes land
			// at unknown offsets: the access covers the whole target.
			whole = al.resliced
		}
		switch {
		case fresh:
			return out, false
		case rootParam >= 0:
			out.rootParam = rootParam
		default:
			out.rootParam = -1
			if out.id == nil {
				out.id = absVar
			}
		}
		// Keep the most precise identity: an argument chain like opts.Cache
		// names the referent the callee actually touches.
		if out.id == nil && leaf != nil {
			out.id = leaf
		}
	}
	if a.idx == sumParams {
		out.mentions = nil
		assumed := false
		for _, p := range a.mentions {
			if p >= len(c.args) || c.args[p] == nil {
				assumed = true
				continue
			}
			ms := paramMentions(n.Pkg, s.params, c.args[p])
			if len(ms) == 0 {
				assumed = true
			}
			out.mentions = append(out.mentions, ms...)
		}
		if len(out.mentions) == 0 || assumed {
			out.idx = sumAssumed
			out.mentions = nil
		}
	}
	if whole {
		out.idx, out.mentions = sumWhole, nil
	}
	return out, true
}

// resolveSummaryRoot classifies an argument expression in a summary context:
// a caller parameter (rootParam), an absolute variable (package-level or a
// field chain off one), or a freshly allocated local. leaf is the chain's
// leaf-most field, when any.
func (m *mhpModel) resolveSummaryRoot(pkg *Package, params []*types.Var, arg ast.Expr) (rootParam int, abs *types.Var, leaf *types.Var, fresh bool) {
	root, leaf, _ := argChain(pkg, arg)
	if root == nil {
		return -1, nil, nil, true // literals, calls: fresh or value-only
	}
	rootParam, abs, fresh = resolveRootVar(params, root)
	if fresh {
		return -1, nil, nil, true
	}
	return rootParam, abs, leaf, false
}

// resolveRootVar classifies a chain root in a summary context: a parameter
// (rootParam), a package-level variable (abs), or a local, fresh by the
// allocation assumption (locals aliasing shared state are resolved by the
// alias map during the direct pass and recorded on the call; by the time a
// root reaches here unresolved, it is call- or literal-allocated).
func resolveRootVar(params []*types.Var, root *types.Var) (rootParam int, abs *types.Var, fresh bool) {
	for i, p := range params {
		if p != nil && p == root {
			return i, nil, false
		}
	}
	if root.Pkg() != nil && root.Parent() == root.Pkg().Scope() {
		return -1, root, false
	}
	return -1, nil, true
}

// paramMentions lists the parameter indices an expression mentions.
func paramMentions(pkg *Package, params []*types.Var, e ast.Expr) []int {
	var out []int
	seen := map[int]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := pkg.Info.Uses[id].(*types.Var)
		if v == nil {
			return true
		}
		for i, p := range params {
			if p == v && !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
		return true
	})
	return out
}

func unionHeld(a, b map[*types.Var]bool) map[*types.Var]bool {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	u := make(map[*types.Var]bool, len(a)+len(b))
	for v := range a {
		u[v] = true
	}
	for v := range b {
		u[v] = true
	}
	return u
}

// ---------------------------------------------------------------------------
// Access collection

// accCtx parameterizes collectAccesses for its three callers: function
// summaries (summaryMode), region bodies (region set), and spawner windows
// (neither; every local is addressable shared state for matching against
// captures).
type accCtx struct {
	model *mhpModel
	pkg   *Package
	// bodyStart/bodyEnd bound the walked body: locals declared inside are
	// instance-private storage.
	bodyStart, bodyEnd token.Pos
	// params are receiver+params (summary mode) or the closure parameters
	// (region mode).
	params []*types.Var
	// summaryMode records into sum instead of producing region accesses.
	summaryMode bool
	sum         []sumAccess
	// region is the region being collected (nil in summary/window mode).
	region *ParRegion
	// window marks spawner-window collection: locals are shared identities.
	window bool
	// alias maps locals bound to shared storage (by address or by reference
	// copy) onto the chain they alias (flow-insensitive).
	alias map[*types.Var]*aliasTarget
	// privacy memoizes in-body locals' instance-privacy.
	privacy map[*types.Var]int8 // 0 unknown/in-progress, 1 private, -1 shared
	// scanRoot is the walked body, for local-definition scans.
	scanRoot ast.Node
	fnName   string
}

// collectAccesses walks one body under the lock-held dataflow and returns
// the extracted accesses plus the statically resolved module-local calls.
// filter, when non-nil, selects which top-level CFG nodes to visit (the
// window position filter).
func collectAccesses(pkg *Package, body *ast.BlockStmt, ctx *accCtx, filter func(ast.Node) bool) ([]access, []sumCall) {
	w := &accWalker{pkg: pkg, ctx: ctx}
	ctx.alias = map[*types.Var]*aliasTarget{}
	ctx.privacy = map[*types.Var]int8{}
	ctx.scanRoot = body
	// Pre-pass: record aliases flow-insensitively so use-before-walk order
	// does not matter.
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			w.recordAliases(as)
		}
		return true
	})
	w.walkLocked(body, filter)
	return w.accs, w.calls
}

// walkLocked visits a body's CFG nodes under the lock-held dataflow, so each
// access sees the may-held mutex set at its own site.
func (w *accWalker) walkLocked(body *ast.BlockStmt, filter func(ast.Node) bool) {
	cfg := BuildCFG(body)
	transfer := func(b *Block, in Fact) Fact {
		cur := in.(lockFact)
		for _, n := range b.Nodes {
			if filter == nil || filter(n) {
				w.held = cur.held
				w.node(n)
			}
			cur = advanceLocks(w.pkg, n, cur)
		}
		return cur
	}
	cfg.Forward(FlowProblem{Entry: lockFact{}, Join: joinLockFacts, Transfer: transfer})
}

// advanceLocks updates the held set across one CFG node (the lockorder
// transfer, minus the edge recording).
func advanceLocks(pkg *Package, n ast.Node, cur lockFact) lockFact {
	inspectShallow(n, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.GoStmt); ok {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, locks := mutexOp(pkg, call); v != nil {
			if locks {
				cur = applyAcquire(new([]lockEdge), nil, call, cur, []*types.Var{v}, nil)
			} else {
				cur = release(cur, v)
			}
		}
		return true
	})
	return cur
}

type accWalker struct {
	pkg   *Package
	ctx   *accCtx
	held  map[*types.Var]bool
	accs  []access
	calls []sumCall
}

// aliasTarget is the chain a reference-holding local points into: writes
// through the local are writes to leaf (or root) at the recorded element.
type aliasTarget struct {
	root    *types.Var
	leaf    *types.Var // leaf-most field; nil for whole-var aliases
	indexes []ast.Expr // element selection at the binding site, e.g. &decs[w]
	// resliced marks an alias bound through a slice expression (s :=
	// t.Opt[lo:hi]): its elements sit at unknown offsets of the target, so
	// an element access through it is an access to the whole target.
	resliced bool
}

// recordAliases binds `p := &shared.chain`, `p := sharedPtr` and
// `s := t.Slice` style locals to the storage they alias, so later accesses
// through p resolve correctly, atomic calls through p included.
func (w *accWalker) recordAliases(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		p, _ := w.pkg.Info.Defs[id].(*types.Var)
		if p == nil {
			if p, _ = w.pkg.Info.Uses[id].(*types.Var); p == nil {
				continue
			}
		}
		rhs := ast.Unparen(as.Rhs[i])
		resliced := false
		if un, ok := rhs.(*ast.UnaryExpr); ok && un.Op == token.AND {
			rhs = un.X
		} else if sl, ok := rhs.(*ast.SliceExpr); ok {
			// A slice expression always shares its operand's storage.
			rhs, resliced = ast.Unparen(sl.X), true
		} else {
			// Without an explicit &, only copying a reference (pointer,
			// slice, map) aliases the referent; copying a value does not.
			switch rhs.(type) {
			case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
			default:
				continue
			}
			tv, ok := w.pkg.Info.Types[rhs]
			if !ok || tv.Type == nil || !refLikeType(tv.Type) {
				continue
			}
		}
		root, leaf, indexes := peelChain(w.pkg, rhs)
		if root == nil {
			continue
		}
		if a := w.ctx.alias[root]; a != nil {
			if leaf == nil {
				leaf = a.leaf
			}
			if a.resliced {
				indexes = nil
			}
			indexes = append(append([]ast.Expr{}, a.indexes...), indexes...)
			root = a.root
			resliced = resliced || a.resliced
		}
		word := leaf
		if word == nil {
			word = root
		}
		if sharedWord(word) || w.isEnclosingLocal(word) {
			w.ctx.alias[p] = &aliasTarget{root: root, leaf: leaf, indexes: indexes, resliced: resliced}
		}
	}
}

// refLikeType reports whether values of t share storage with their source
// when copied: pointers, slices and maps. Everything else (basics, structs,
// arrays, funcs, channels-as-sync) copies by value for the access model.
func refLikeType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// node extracts accesses from one CFG node (a statement or control
// expression).
func (w *accWalker) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range n.Lhs {
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				w.expr(lhs) // compound assign reads the old value
			}
			w.target(lhs)
		}
	case *ast.IncDecStmt:
		w.expr(n.X)
		w.target(n.X)
	case *ast.SendStmt:
		w.expr(n.Value) // the channel itself is a synchronization op
	case *ast.ExprStmt:
		w.expr(n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.expr(r)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.GoStmt:
		// The spawn arguments are evaluated on this goroutine; the literal
		// body is its own region.
		for _, a := range n.Call.Args {
			w.expr(a)
		}
	case *ast.DeferStmt:
		for _, a := range n.Call.Args {
			w.expr(a)
		}
		w.expr(n.Call.Fun)
	case ast.Expr:
		w.expr(n)
	}
}

// expr walks an expression in read position.
func (w *accWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		w.record(e, false, false)
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		// Inline literal executing on this goroutine: walk its body in the
		// same context (position-based privacy still holds: the literal sits
		// inside the walked body's range) under its own lock dataflow — a
		// deferred recover closure acquires mutexes a flat walk would miss.
		// The entry fact is empty: a deferred literal may run after the
		// defer-site locks are released, so inheriting them would be unsound.
		saved := w.held
		w.walkLocked(e.Body, nil)
		w.held = saved
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Address escaping outside a recognized atomic/call context:
			// record a read; writes through unknown escapes are below the
			// model (the alias map catches the direct-local case).
			w.record(e.X, false, false)
			return
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value)
				continue
			}
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	}
}

// target records a write to an assignment target.
func (w *accWalker) target(e ast.Expr) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	w.record(e, true, false)
}

// call handles one call expression: atomics, mutexes, sync types, pool
// dispatch, module-local substitution, builtins, everything else.
func (w *accWalker) call(call *ast.CallExpr) {
	pkg := w.pkg
	if isAtomicCall(pkg, call) || w.isAtomicFnValue(call) {
		name := atomicCallName(pkg, call)
		write := len(name) < 4 || name[:4] != "Load"
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if ok && un.Op == token.AND {
				w.record(un.X, write, true)
				continue
			}
			// A pointer local aliasing a shared word.
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v, _ := pkg.Info.Uses[id].(*types.Var); v != nil && w.ctx.alias[v] != nil {
					w.record(id, write, true)
					continue
				}
			}
			w.expr(arg)
		}
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sync/atomic":
				// Typed atomics: x.Load()/x.Store(v)/x.Add(d)/x.CompareAndSwap.
				write := sel.Sel.Name != "Load"
				w.record(sel.X, write, true)
				for _, a := range call.Args {
					w.expr(a)
				}
				return
			case "sync":
				// Mutex/WaitGroup/Once operations are the synchronization
				// edges themselves, not shared-data accesses.
				for _, a := range call.Args {
					w.expr(a)
				}
				return
			}
		}
	}
	if _, ok := isPoolDispatch(pkg, call); ok {
		for i, a := range call.Args {
			if i == len(call.Args)-1 {
				if _, isLit := ast.Unparen(a).(*ast.FuncLit); isLit {
					continue // the dispatched closure is its own region
				}
			}
			w.expr(a)
		}
		return
	}
	if callee := staticCallee(pkg, call); callee != nil && moduleLocal(w.ctx.model.mod, callee) {
		if w.ctx.model.hbimpl[callee] {
			// Calls into a //lint:hbimpl function contribute no modeled
			// accesses: the directive's reason certifies the callee's
			// ordering below the happens-before model.
			for _, a := range call.Args {
				w.expr(a)
			}
			return
		}
		args := make([]ast.Expr, 0, len(call.Args)+1)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := pkg.Info.Selections[sel]; isMethod {
				args = append(args, sel.X)
			}
		}
		args = append(args, call.Args...)
		var alias []*aliasTarget
		for i, a := range args {
			if root, _, _ := argChain(pkg, a); root != nil && w.ctx.alias[root] != nil {
				if alias == nil {
					alias = make([]*aliasTarget, len(args))
				}
				alias[i] = w.ctx.alias[root]
			}
		}
		w.calls = append(w.calls, sumCall{callee: callee, args: args, alias: alias, held: cloneHeld(w.held), pos: call.Pos()})
		if !w.ctx.summaryMode {
			w.substituteAtBoundary(callee, args, call.Pos())
		}
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}
	// Builtins: copy and delete write their first argument; the rest are
	// reads (an append result only lands via the enclosing assignment).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 2 &&
		(id.Name == "copy" || id.Name == "delete") && pkg.Info.Uses[id] == nil {
		w.record(call.Args[0], true, false)
		w.expr(call.Args[1])
		return
	}
	w.expr(call.Fun)
	for _, a := range call.Args {
		w.expr(a)
	}
}

// isAtomicFnValue reports a call through a local bound to a sync/atomic
// function value (f := atomic.AddInt64; f(&word, 1)).
func (w *accWalker) isAtomicFnValue(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := w.pkg.Info.Uses[id].(*types.Var)
	return v != nil && atomicFnLocals(w.pkg)[v]
}

// atomicCallName names the atomic operation for load/store classification.
func atomicCallName(pkg *Package, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// atomicFuncs are the sync/atomic operations that take an address. Typed
// atomics (atomic.Uint64 and friends) are method calls, classified
// separately in call.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"AndInt32": true, "AndInt64": true, "AndUint32": true, "AndUint64": true, "AndUintptr": true,
	"OrInt32": true, "OrInt64": true, "OrUint32": true, "OrUint64": true, "OrUintptr": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true,
	"LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true,
	"StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
}

// isAtomicCall reports a direct call of one of sync/atomic's
// address-taking functions (calls through a local bound to the function
// value are isAtomicFnValue's).
func isAtomicCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && atomicFuncs[fn.Name()]
}

// addressedVar resolves the operand of an address-of expression to the
// variable it names — a struct field (through any selector chain) or a
// plain identifier — together with the ident that names it. Index
// expressions (atomic ops on slice elements) and other shapes return nil.
func addressedVar(pkg *Package, e ast.Expr) (*types.Var, *ast.Ident) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pkg.Info.Uses[e].(*types.Var)
		return v, e
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v, e.Sel
			}
			return nil, nil
		}
		// Qualified reference to another package's variable (pkg.V).
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		return v, e.Sel
	}
	return nil, nil
}

// sharedWord reports whether the variable can outlive a single goroutine's
// stack frame in the obvious way: a struct field or a package-level
// variable.
func sharedWord(v *types.Var) bool {
	if v.IsField() {
		return true
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// record classifies and stores one access to the chain expression e.
func (w *accWalker) record(e ast.Expr, write, atomic bool) {
	pkg := w.pkg
	root, leaf, indexes := peelChain(pkg, e)
	if root == nil {
		// Unresolvable chain (call results, literals): walk inner index
		// expressions for reads and give up on the chain itself.
		for _, idx := range indexes {
			w.expr(idx)
		}
		return
	}
	for _, idx := range indexes {
		w.expr(idx)
	}
	bare := false
	if _, ok := ast.Unparen(e).(*ast.Ident); ok && leaf == nil && len(indexes) == 0 {
		bare = true
	}
	if a := w.ctx.alias[root]; a != nil {
		if bare && write {
			// Rebinding the local alias variable overwrites only this
			// function's pointer/header copy, never the referent: element
			// and field writes reach here with an index, selector, or
			// deref in the chain instead.
			return
		}
		root = a.root
		if leaf == nil {
			leaf = a.leaf
		}
		if a.resliced {
			indexes = nil
		}
		indexes = append(append([]ast.Expr{}, a.indexes...), indexes...)
		bare = false
	}
	if !atomic && w.bareRefParamAccess(root, bare, write) {
		return
	}
	ctx := w.ctx
	if ctx.summaryMode {
		w.recordSummary(root, leaf, write, atomic, indexes, e.Pos())
		return
	}
	// Region/window mode.
	if ctx.region != nil && w.isRegionPrivateRoot(root) {
		return
	}
	if !ctx.window && ctx.region == nil {
		return
	}
	id := leaf
	if id == nil {
		id = root
	}
	if !sharedWord(id) && !w.isEnclosingLocal(id) {
		return
	}
	w.recordVar(id, write, atomic, indexes, e.Pos())
}

// isEnclosingLocal reports whether v is function-local storage that can be
// captured (anything that is not a field or package-level var but outlives
// an instant: locals and parameters of the enclosing function).
func (w *accWalker) isEnclosingLocal(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

// isRegionPrivateRoot reports whether the chain root is storage private to
// one region instance: a value-typed region parameter (a copy) or a local
// declared inside the region body that does not alias shared state.
// Pointer-, slice- and map-typed parameters are shared — the copy is of the
// reference, not the referent (the receiver of a dispatched worker method
// points at the one pool every instance shares).
func (w *accWalker) isRegionPrivateRoot(root *types.Var) bool {
	ctx := w.ctx
	if ctx.alias[root] != nil {
		return false
	}
	for _, p := range ctx.params {
		if p == root {
			return !refLikeType(root.Type())
		}
	}
	return root.Pos() >= ctx.bodyStart && root.Pos() < ctx.bodyEnd
}

// bareRefParamAccess reports whether an access is a bare mention of a
// reference-typed parameter of the walked function: reading (or rebinding)
// the pointer/map variable itself touches only the callee's private copy,
// not the referent — accesses to the referent always carry a deref,
// selector or index. The one exception kept is a bare write to a slice
// parameter (`b = append(b, ...)`), which can grow into the caller's
// backing array.
func (w *accWalker) bareRefParamAccess(root *types.Var, bare, write bool) bool {
	if !bare {
		return false
	}
	for _, p := range w.ctx.params {
		if p != root {
			continue
		}
		t := root.Type().Underlying()
		if _, slice := t.(*types.Slice); slice {
			return !write
		}
		return refLikeType(root.Type())
	}
	return false
}

// recordVar stores one access with its tier classified from the index
// expressions.
func (w *accWalker) recordVar(id *types.Var, write, atomic bool, indexes []ast.Expr, pos token.Pos) {
	tier := tierPlain
	if atomic {
		tier = tierAtomic
	} else if w.ctx.region != nil && len(indexes) > 0 {
		tier = w.classifyIndexes(indexes)
	}
	w.accs = append(w.accs, access{
		id: id, write: write, tier: tier,
		held: cloneHeld(w.held), pos: pos, rep: pos,
		in: w.ctx.fnName,
	})
}

// recordSummary stores one access in summary mode.
func (w *accWalker) recordSummary(root, leaf *types.Var, write, atomic bool, indexes []ast.Expr, pos token.Pos) {
	ctx := w.ctx
	a := sumAccess{rootParam: -1, id: leaf, write: write, atomic: atomic, held: cloneHeld(w.held), pos: pos, in: ctx.fnName}
	isParam := false
	for i, p := range ctx.params {
		if p != nil && p == root {
			if !refLikeType(p.Type()) {
				// A value-typed parameter is the callee's own copy: its
				// accesses never touch caller storage. (A struct copy whose
				// fields hold references is below the model.)
				return
			}
			a.rootParam = i
			isParam = true
			break
		}
	}
	if !isParam {
		if root.Pkg() != nil && root.Parent() == root.Pkg().Scope() {
			if a.id == nil {
				a.id = root
			}
		} else {
			return // fresh local storage: invisible to callers
		}
	}
	switch {
	case len(indexes) == 0:
		a.idx = sumWhole
	default:
		for _, idx := range indexes {
			a.mentions = append(a.mentions, paramMentions(ctx.pkg, ctx.params, idx)...)
		}
		if len(a.mentions) > 0 {
			a.idx = sumParams
		} else {
			a.idx = sumShared
		}
	}
	ctx.sum = append(ctx.sum, a)
}

// substituteAtBoundary expands a callee's summary into region/window
// accesses at a direct call — the boundary where index arguments are
// actually checked against the region's distinguishing parameters.
func (w *accWalker) substituteAtBoundary(callee *types.Func, args []ast.Expr, callPos token.Pos) {
	s := w.ctx.model.summaries[callee]
	if s == nil {
		return
	}
	for _, a := range s.accs {
		id := a.id
		var chainIndexes []ast.Expr
		whole := false
		if a.rootParam >= 0 {
			if a.rootParam >= len(args) || args[a.rootParam] == nil {
				continue
			}
			root, leaf, indexes := argChain(w.pkg, args[a.rootParam])
			if root == nil {
				continue // fresh value
			}
			if al := w.ctx.alias[root]; al != nil {
				root = al.root
				if leaf == nil {
					leaf = al.leaf
				}
				if al.resliced {
					// Indexes through a sub-slice land at unknown offsets.
					indexes, whole = nil, true
				}
				indexes = append(append([]ast.Expr{}, al.indexes...), indexes...)
			}
			if w.ctx.region != nil && w.isRegionPrivateRoot(root) {
				continue
			}
			chainIndexes = indexes
			if id == nil {
				if leaf != nil {
					id = leaf
				} else {
					id = root
				}
			}
			if !sharedWord(id) && !w.isEnclosingLocal(id) {
				continue
			}
		}
		if id == nil {
			continue
		}
		tier := tierPlain
		switch {
		case a.atomic:
			tier = tierAtomic
		case whole:
			tier = tierPlain // the callee's indexes sit at unknown offsets
		case a.idx == sumParams:
			// The boundary check: every argument the index derives from
			// must be instance-private in the region.
			tier = tierInstance
			for _, p := range a.mentions {
				if w.ctx.region == nil || p >= len(args) || args[p] == nil ||
					len(w.distMentions(args[p])) == 0 || !w.privateExpr(args[p]) {
					tier = tierPlain
					break
				}
			}
		case a.idx == sumAssumed:
			tier = tierAssumed
		case a.idx == sumShared:
			tier = tierPlain
		}
		// A partitioned receiver/argument chain (decs[w].step()) makes every
		// access inside the selected element disjoint across instances,
		// whatever the callee does within it.
		if w.ctx.region != nil && !partitionedTier(tier) && tier != tierAtomic && len(chainIndexes) > 0 {
			if ct := w.classifyIndexes(chainIndexes); partitionedTier(ct) {
				tier = ct
			}
		}
		if w.ctx.window && partitionedTier(tier) {
			tier = tierPlain // windows have no distinguishing instance
		}
		w.accs = append(w.accs, access{
			id: id, write: a.write, tier: tier,
			held: unionHeld(a.held, cloneHeld(w.held)),
			pos:  a.pos, rep: callPos, in: a.in,
		})
	}
}

// ---------------------------------------------------------------------------
// Index privacy

// classifyIndexes classifies an element access's indexes in region context.
func (w *accWalker) classifyIndexes(indexes []ast.Expr) accTier {
	best := tierPlain
	for _, idx := range indexes {
		switch t := w.classifyIndex(idx); t {
		case tierWorker:
			return tierWorker
		case tierInstance:
			best = tierInstance
		}
	}
	return best
}

// classifyIndex classifies one index expression: tierWorker when the
// interval engine proves it equal to the worker-id parameter, tierInstance
// when it is derived from instance-distinguishing values, tierPlain
// otherwise.
func (w *accWalker) classifyIndex(idx ast.Expr) accTier {
	r := w.ctx.region
	if r == nil {
		return tierPlain
	}
	dist := w.distMentions(idx)
	if len(dist) == 0 {
		return tierPlain
	}
	onlyWorker := r.Worker != nil && len(dist) == 1 && dist[r.Worker]
	if onlyWorker {
		// The certified tier: the index interval must be degenerate at the
		// worker parameter's entry value. slots[w] passes; slots[w%2] does
		// not.
		if w.workerSlotProven(idx) {
			return tierWorker
		}
		return tierPlain
	}
	if w.privateExpr(idx) {
		return tierInstance
	}
	return tierPlain
}

// distMentions returns the distinguishing parameters an expression mentions,
// looking through in-body locals' definitions.
func (w *accWalker) distMentions(e ast.Expr) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	seen := map[*types.Var]bool{}
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := w.pkg.Info.Uses[id].(*types.Var)
			if v == nil {
				v, _ = w.pkg.Info.Defs[id].(*types.Var)
			}
			if v == nil || seen[v] {
				return true
			}
			seen[v] = true
			if w.ctx.region.Dist[v] {
				out[v] = true
				return true
			}
			if v.Pos() >= w.ctx.bodyStart && v.Pos() < w.ctx.bodyEnd {
				for _, rhs := range w.assignmentsTo(v) {
					visit(rhs)
				}
			}
			return true
		})
	}
	visit(e)
	return out
}

// assignmentsTo collects the RHS expressions assigned to an in-body local.
func (w *accWalker) assignmentsTo(v *types.Var) []ast.Expr {
	var out []ast.Expr
	// The region body is bounded by ctx positions; scan the declaration it
	// belongs to. We scan the region body itself via the walker's root.
	body := w.ctx.scanRoot
	if body == nil {
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			lv, _ := w.pkg.Info.Defs[id].(*types.Var)
			if lv == nil {
				lv, _ = w.pkg.Info.Uses[id].(*types.Var)
			}
			if lv == v {
				out = append(out, as.Rhs[i])
			}
		}
		return true
	})
	return out
}

// privateExpr reports whether every variable the expression depends on is
// instance-private: a distinguishing parameter, an in-body local whose every
// assignment is itself private, or shared state used only as an indexed
// container (the relay assumption: reading a partition table at a private
// index yields a private value).
func (w *accWalker) privateExpr(e ast.Expr) bool {
	return w.privateExprDepth(e, 0)
}

func (w *accWalker) privateExprDepth(e ast.Expr, depth int) bool {
	if depth > 8 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		v, _ := w.pkg.Info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = w.pkg.Info.Defs[e].(*types.Var)
		}
		if v == nil {
			return true // constants, types
		}
		return w.privateVar(v, depth)
	case *ast.BinaryExpr:
		return w.privateExprDepth(e.X, depth+1) && w.privateExprDepth(e.Y, depth+1)
	case *ast.UnaryExpr:
		return w.privateExprDepth(e.X, depth+1)
	case *ast.IndexExpr:
		// Relay: container contents at a private index are private-by-
		// assumption (level buckets, chunk tables are injective).
		return w.privateExprDepth(e.Index, depth+1)
	case *ast.SelectorExpr:
		// Field reads as offsets: uniform across instances (read-only
		// during a round by the dispatch contract).
		return true
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			if tv, ok := w.pkg.Info.Types[e.Fun]; ok && tv.IsType() {
				return w.privateExprDepth(e.Args[0], depth+1)
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return true
			}
		}
		return false
	}
	return false
}

// privateVar decides a variable's instance privacy with a memoized
// optimistic fixpoint (self-referential updates like idx++ stay private).
func (w *accWalker) privateVar(v *types.Var, depth int) bool {
	ctx := w.ctx
	if ctx.region != nil && ctx.region.Dist[v] {
		return true
	}
	for _, p := range ctx.params {
		if p == v {
			return true // non-distinguishing closure params are still copies
		}
	}
	if v.Pos() < ctx.bodyStart || v.Pos() >= ctx.bodyEnd {
		return false // captured or global
	}
	if ctx.alias[v] != nil {
		return false
	}
	switch ctx.privacy[v] {
	case 1:
		return true
	case -1:
		return false
	}
	ctx.privacy[v] = 1 // optimistic for cycles
	private := true
	rhss := w.assignmentsTo(v)
	for _, rhs := range rhss {
		if !w.privateExprDepth(rhs, depth+1) {
			private = false
			break
		}
	}
	if private {
		ctx.privacy[v] = 1
		return true
	}
	ctx.privacy[v] = -1
	return false
}

// workerSlotProven runs the interval engine over the region closure and
// checks that the index evaluates to an interval degenerate at the worker
// parameter's entry value.
func (w *accWalker) workerSlotProven(idx ast.Expr) bool {
	r := w.ctx.region
	vf := w.ctx.model.regionValueFlow(w.pkg, r)
	if vf == nil {
		return false
	}
	want, ok := vf.ssa.EntryVals[r.Worker]
	if !ok {
		return false
	}
	// Find the tightest environment that covers the index node.
	var env intervalFact
	vf.walk(func(_ *Block, n ast.Node, e intervalFact) {
		if env == nil && containsPos(n, idx.Pos()) {
			env = e.clone()
		}
	})
	if env == nil {
		env = vf.entryFact().(intervalFact)
	}
	iv := vf.evalExpr(env, idx)
	lo, hi := iv.Lo, iv.Hi
	return lo.eq(hi) && lo.Inf == 0 && VID(lo.Base) == want && lo.Off == 0
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos <= n.End()
}

// regionValueFlow lazily builds the interval engine for a region's body by
// synthesizing a declaration around the closure (BuildSSA only needs Body,
// Recv and Type).
func (m *mhpModel) regionValueFlow(pkg *Package, r *ParRegion) *valueFlow {
	if vf, ok := m.vf[r]; ok {
		return vf
	}
	var fd *ast.FuncDecl
	switch {
	case r.Lit != nil:
		fd = &ast.FuncDecl{
			Name: ast.NewIdent("closure"),
			Type: r.Lit.Type,
			Body: r.Lit.Body,
		}
	case r.CalleeDecl != nil:
		fd = r.CalleeDecl
		pkg = r.CalleePkg
	default:
		m.vf[r] = nil
		return nil
	}
	vf := buildValueFlow(pkg, fd)
	m.vf[r] = vf
	return vf
}

func cloneHeld(h map[*types.Var]bool) map[*types.Var]bool {
	if len(h) == 0 {
		return nil
	}
	c := make(map[*types.Var]bool, len(h))
	for v := range h {
		c[v] = true
	}
	return c
}

// peelChain resolves an access expression to its root variable, the leaf
// field it touches (nil when the root itself is the storage), and the index
// expressions applied along the chain. A nil root means the chain starts at
// something unresolvable (a call result, a literal).
func peelChain(pkg *Package, e ast.Expr) (root *types.Var, leaf *types.Var, indexes []ast.Expr) {
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
			return v, leaf, indexes
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
				return v, leaf, indexes
			}
			return nil, leaf, indexes
		case *ast.IndexExpr:
			indexes = append(indexes, x.Index)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, leaf, indexes
		}
	}
}

// argChain is peelChain for a call argument: a pointer argument &x hands
// the callee x's storage, so its chain is x's.
func argChain(pkg *Package, arg ast.Expr) (root *types.Var, leaf *types.Var, indexes []ast.Expr) {
	if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
		arg = un.X
	}
	return peelChain(pkg, arg)
}

// atomicFnLocalsCache memoizes per-package locals bound to sync/atomic
// function values (`f := atomic.AddInt64`).
var atomicFnLocalsCache = map[*Package]map[*types.Var]bool{}

func atomicFnLocals(pkg *Package) map[*types.Var]bool {
	if m, ok := atomicFnLocalsCache[pkg]; ok {
		return m
	}
	m := map[*types.Var]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				sel, ok := ast.Unparen(as.Rhs[i]).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomicFuncs[fn.Name()] {
					continue
				}
				v, _ := pkg.Info.Defs[id].(*types.Var)
				if v == nil {
					v, _ = pkg.Info.Uses[id].(*types.Var)
				}
				if v != nil {
					m[v] = true
				}
			}
			return true
		})
	}
	atomicFnLocalsCache[pkg] = m
	return m
}
