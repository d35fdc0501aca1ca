package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// LockOrder enforces a consistent mutex acquisition order across the
// module (the pool, the DP caches and the solver sessions that drive them
// all hold mutexes). It runs the forward dataflow engine over every
// function's CFG to compute the may-held set of mutexes at each
// acquisition site, propagates acquisition summaries over the module call
// graph, and then demands that the "acquired while holding" relation be
// acyclic: a cycle A→B→A means two code paths take the same pair of locks
// in opposite orders, which is a deadlock waiting for the right
// interleaving. Mutex identity is the declared variable or field, so
// distinct instances of one type are conservatively merged.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutex acquisition order must be consistent (the acquires-while-holding relation must be acyclic)",
	RunModule: runLockOrder,
}

// lockFact is the may-held set of mutexes at a program point. The zero
// value (nil map) is the empty set; facts are immutable once published.
type lockFact struct {
	held map[*types.Var]bool
}

func (f lockFact) EqualFact(other Fact) bool {
	o := other.(lockFact)
	if len(f.held) != len(o.held) {
		return false
	}
	for v := range f.held {
		if !o.held[v] {
			return false
		}
	}
	return true
}

func joinLockFacts(a, b Fact) Fact {
	fa, fb := a.(lockFact), b.(lockFact)
	if len(fb.held) == 0 {
		return fa
	}
	if len(fa.held) == 0 {
		return fb
	}
	merged := make(map[*types.Var]bool, len(fa.held)+len(fb.held))
	for v := range fa.held {
		merged[v] = true
	}
	for v := range fb.held {
		merged[v] = true
	}
	return lockFact{held: merged}
}

// lockEdge is one observed "acquired b while holding a" event with the
// site that witnessed it.
type lockEdge struct {
	from, to *types.Var
	site     ast.Node
	fn       *types.Func
}

func runLockOrder(pass *ModulePass) {
	mod := pass.Mod
	graph := BuildCallGraph(mod)
	nodes := graph.SortedNodes()

	// summaries[fn] is the set of mutexes fn may acquire, directly or
	// through module-local callees. Computed as a fixpoint over the call
	// graph: iterate until no summary grows (the lattice is finite — sets
	// of declared mutex variables).
	direct := map[*types.Func]map[*types.Var]bool{}
	for _, n := range nodes {
		if n.Decl.Body == nil {
			continue
		}
		acq := map[*types.Var]bool{}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if call, ok := nd.(*ast.CallExpr); ok {
				if v, locks := mutexOp(n.Pkg, call); locks {
					acq[v] = true
				}
			}
			return true
		})
		if len(acq) > 0 {
			direct[n.Fn] = acq
		}
	}
	summaries := map[*types.Func]map[*types.Var]bool{}
	for fn, acq := range direct {
		s := make(map[*types.Var]bool, len(acq))
		for v := range acq {
			s[v] = true
		}
		summaries[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, callee := range n.Callees {
				cs := summaries[callee]
				if len(cs) == 0 {
					continue
				}
				s := summaries[n.Fn]
				if s == nil {
					s = map[*types.Var]bool{}
					summaries[n.Fn] = s
				}
				for v := range cs {
					if !s[v] {
						s[v] = true
						changed = true
					}
				}
			}
		}
	}

	// Per-function dataflow: at every acquisition site (a direct Lock or a
	// call whose summary acquires), record edges held → acquired.
	var edges []lockEdge
	for _, n := range nodes {
		if n.Decl.Body == nil {
			continue
		}
		pkg := n.Pkg
		cfg := BuildCFG(n.Decl.Body)
		transfer := func(b *Block, in Fact) Fact {
			cur := in.(lockFact)
			for _, stmt := range b.Nodes {
				inspectShallow(stmt, func(nd ast.Node) bool {
					// Goroutine bodies start with an empty held-set of their
					// own; their acquisitions are analyzed via their own CFG
					// walk, not the spawner's.
					if _, ok := nd.(*ast.GoStmt); ok {
						return false
					}
					call, ok := nd.(*ast.CallExpr)
					if !ok {
						return true
					}
					if v, locks := mutexOp(pkg, call); v != nil {
						var acquired []*types.Var
						if locks {
							acquired = []*types.Var{v}
						}
						cur = applyAcquire(&edges, n.Fn, call, cur, acquired, nil)
						if !locks {
							cur = release(cur, v)
						}
						return true
					}
					if callee := staticCallee(pkg, call); callee != nil {
						if s := summaries[callee]; len(s) > 0 {
							cur = applyAcquire(&edges, n.Fn, call, cur, nil, s)
						}
					}
					return true
				})
			}
			return cur
		}
		cfg.Forward(FlowProblem{
			Entry:    lockFact{},
			Join:     joinLockFacts,
			Transfer: transfer,
		})
	}

	reportLockCycles(pass, mod, edges)
}

// applyAcquire records held→acquired edges for every mutex in the direct
// list and the summary set, and returns the fact with the direct
// acquisitions added. Summary acquisitions are not added to the held set:
// the callee releases what it takes (if it does not, its own body shows the
// leak) — only the ordering constraint escapes.
func applyAcquire(edges *[]lockEdge, fn *types.Func, site ast.Node, f lockFact, acquired []*types.Var, summary map[*types.Var]bool) lockFact {
	var targets []*types.Var
	targets = append(targets, acquired...)
	if len(summary) > 0 {
		keys := make([]*types.Var, 0, len(summary))
		for v := range summary {
			keys = append(keys, v)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Pos() < keys[j].Pos() })
		targets = append(targets, keys...)
	}
	for _, to := range targets {
		for from := range f.held {
			if from != to {
				*edges = append(*edges, lockEdge{from: from, to: to, site: site, fn: fn})
			}
		}
	}
	if len(acquired) == 0 {
		return f
	}
	held := make(map[*types.Var]bool, len(f.held)+len(acquired))
	for v := range f.held {
		held[v] = true
	}
	for _, v := range acquired {
		held[v] = true
	}
	return lockFact{held: held}
}

func release(f lockFact, v *types.Var) lockFact {
	if !f.held[v] {
		return f
	}
	held := make(map[*types.Var]bool, len(f.held))
	for h := range f.held {
		if h != v {
			held[h] = true
		}
	}
	return lockFact{held: held}
}

// mutexOp recognizes m.Lock()/m.RLock() (locks=true) and
// m.Unlock()/m.RUnlock() (locks=false) where m resolves to a declared
// sync.Mutex or sync.RWMutex variable or field. Other calls return (nil,
// false).
func mutexOp(pkg *Package, call *ast.CallExpr) (*types.Var, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	var locks bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
		locks = false
	default:
		return nil, false
	}
	v := addressedVar(pkg, sel.X)
	if v == nil || !isMutexType(v.Type()) {
		return nil, false
	}
	return v, locks
}

func isMutexType(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// staticCallee resolves a call to a module-declared function, or nil.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// reportLockCycles builds the acquires-while-holding graph from the
// observed edges and reports one diagnostic per edge that participates in a
// cycle, citing the full cycle so the fix (pick one order) is evident.
func reportLockCycles(pass *ModulePass, mod *Module, edges []lockEdge) {
	succ := map[*types.Var]map[*types.Var]bool{}
	for _, e := range edges {
		m := succ[e.from]
		if m == nil {
			m = map[*types.Var]bool{}
			succ[e.from] = m
		}
		m[e.to] = true
	}
	// cyclic[v] for every vertex on some cycle: v reaches itself.
	cyclic := map[*types.Var]bool{}
	for _, e := range edges {
		if cyclic[e.from] {
			continue
		}
		if reachesLock(succ, e.to, e.from, map[*types.Var]bool{}) || succ[e.from][e.from] {
			cyclic[e.from] = true
		}
	}
	seen := map[string]bool{}
	for _, e := range edges {
		if !cyclic[e.from] || !cyclic[e.to] {
			continue
		}
		// Both endpoints on cycles is necessary but not sufficient; the
		// edge itself must be part of one (to reaches from).
		if !(e.to == e.from) && !reachesLock(succ, e.to, e.from, map[*types.Var]bool{}) {
			continue
		}
		key := fmt.Sprintf("%v|%s|%s", mod.Fset.Position(e.site.Pos()), lockName(e.from), lockName(e.to))
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Reportf(e.site.Pos(), "%s acquires %s while holding %s, but another path acquires them in the opposite order (lock-order cycle)",
			e.fn.Name(), lockName(e.to), lockName(e.from))
	}
}

func reachesLock(succ map[*types.Var]map[*types.Var]bool, from, to *types.Var, visited map[*types.Var]bool) bool {
	if from == to {
		return true
	}
	if visited[from] {
		return false
	}
	visited[from] = true
	nexts := make([]*types.Var, 0, len(succ[from]))
	for v := range succ[from] {
		nexts = append(nexts, v)
	}
	sort.Slice(nexts, func(i, j int) bool { return nexts[i].Pos() < nexts[j].Pos() })
	for _, v := range nexts {
		if reachesLock(succ, v, to, visited) {
			return true
		}
	}
	return false
}

// lockName renders a mutex variable for diagnostics: Type.field for fields,
// the plain name otherwise.
func lockName(v *types.Var) string {
	if v.IsField() {
		return "field " + v.Name()
	}
	return v.Name()
}

// addressedVar resolves the operand of an address-of expression to the
// variable it names: a struct field (through any selector chain) or a plain
// identifier. Index expressions and other shapes return nil.
func addressedVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pkg.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		// Qualified reference to another package's variable (pkg.V).
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}
