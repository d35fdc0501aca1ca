package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Escape keeps the //lint:hotpath functions (the DP inner loops, which run
// millions of times per bisection probe) allocation-free, by value-flow
// escape analysis. An allocation site (composite literal, make, new,
// closure, address-of-local) is only a problem when its value escapes —
// returned, stored to the heap, captured by a closure, boxed into an
// interface — because a non-escaping value stays on the stack and costs
// nothing per iteration. The analyzer taints the SSA values that carry each
// site's result, follows them through copies, slices and phis, and reports
// the site with its first escape cause. Some sites allocate whether or not
// anything escapes and are reported unconditionally: make of a map or
// channel (always heap), make with a non-constant size (never
// stack-allocated), append (may grow the backing array) and interface
// boxing (a conversion, or a concrete argument to an interface parameter).
// Sites in cold error-bail-out blocks are skipped, and a //lint:hotpath
// directive that is not part of a function's doc comment is reported.
var Escape = &Analyzer{
	Name: "escape",
	Doc:  "//lint:hotpath functions must not append, box into interfaces, or let an allocation escape",
	Run:  runEscape,
}

func runEscape(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		fns, attached := directiveFuncs(f, isHotpathDirective)
		for _, fd := range fns {
			if fd.Body == nil {
				continue
			}
			checkEscapes(pass, fd)
		}
		reportStray(pass, f, isHotpathDirective, attached, hotpathPrefix)
	}
}

// escSite is one allocation site in a hot (non-cold) block.
type escSite struct {
	expr   ast.Expr
	kind   string
	always string // non-empty: reported unconditionally, with this reason
}

type escapeState struct {
	pass  *Pass
	fd    *ast.FuncDecl
	ssa   *SSAFunc
	info  *types.Info
	cold  map[*Block]bool
	sites []escSite
	// siteOf maps the expression of a site that needs an escape cause back
	// to its index; unconditionally reported sites carry no taint.
	siteOf map[ast.Expr]int
	// taint maps each SSA value to the site whose allocation it carries
	// (-1: none; ties resolve to the lowest site index).
	taint []int
	// cause records each site's first escape cause in source order.
	cause []string
}

func checkEscapes(pass *Pass, fd *ast.FuncDecl) {
	ssa := BuildSSA(pass.Pkg.Info, fd)
	es := &escapeState{
		pass: pass,
		fd:   fd,
		ssa:  ssa,
		info: pass.Pkg.Info,
		cold: coldBlocks(pass.Pkg.Info, fd, ssa.Cfg, ssa.Dom),
	}
	es.collectSites()
	if len(es.sites) == 0 {
		return
	}
	es.cause = make([]string, len(es.sites))
	es.propagate()
	es.scanSinks()
	es.report()
}

// collectSites gathers the allocation sites of the hot blocks, in block
// reverse-postorder (so site indices are deterministic).
func (es *escapeState) collectSites() {
	visit := func(n ast.Node) {
		// Like inspectShallow, but the FuncLit node itself is a site even
		// though its body belongs to the closure, not to this hot path.
		ast.Inspect(n, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.FuncLit:
				es.siteAt(m)
				return false
			case *ast.DeferStmt:
				return false
			}
			es.siteAt(m)
			return true
		})
		if ds, ok := n.(*ast.DeferStmt); ok {
			// Deferred argument expressions evaluate at the defer statement,
			// on the hot path.
			inspectShallow(ds.Call, func(m ast.Node) bool {
				es.siteAt(m)
				return true
			})
		}
	}
	for _, b := range es.ssa.Dom.rpo {
		if es.cold[b] {
			continue
		}
		for _, n := range b.Nodes {
			visit(n)
		}
	}
	// A composite literal nested inside another is part of the same
	// allocation; keep only the outermost sites. Sites reported
	// unconditionally need no escape cause: all are kept, none in siteOf.
	outer := es.sites[:0]
	siteOf := map[ast.Expr]int{}
	for _, s := range es.sites {
		if s.always == "" {
			if lit, ok := s.expr.(*ast.CompositeLit); ok && es.enclosedByComposite(lit) {
				continue
			}
			siteOf[s.expr] = len(outer)
		}
		outer = append(outer, s)
	}
	es.sites, es.siteOf = outer, siteOf
}

func (es *escapeState) enclosedByComposite(lit *ast.CompositeLit) bool {
	for _, s := range es.sites {
		o, ok := s.expr.(*ast.CompositeLit)
		if ok && o != lit && o.Pos() <= lit.Pos() && lit.End() <= o.End() {
			return true
		}
	}
	return false
}

// siteAt records m when it is an allocation site.
func (es *escapeState) siteAt(m ast.Node) {
	switch m := m.(type) {
	case *ast.CompositeLit:
		es.addSite(m, "composite literal", "")
	case *ast.FuncLit:
		es.addSite(m, "closure", "")
	case *ast.UnaryExpr:
		if m.Op != token.AND {
			return
		}
		if id, ok := ast.Unparen(m.X).(*ast.Ident); ok && es.isLocalVar(id) {
			es.addSite(m, "address of "+id.Name, "")
		}
	case *ast.CallExpr:
		if tv, ok := es.info.Types[m.Fun]; ok && tv.IsType() {
			if types.IsInterface(tv.Type) && len(m.Args) == 1 && es.isConcrete(m.Args[0]) {
				es.addSite(m, "interface conversion", "boxing a concrete value allocates")
			}
			return
		}
		id, _ := ast.Unparen(m.Fun).(*ast.Ident)
		if _, builtin := es.info.Uses[id].(*types.Builtin); !builtin {
			es.boxedArgSites(m)
			return
		}
		switch id.Name {
		case "append":
			es.addSite(m, "append", "it may grow the backing array")
		case "new":
			es.addSite(m, "new", "")
		case "make":
			if len(m.Args) == 0 {
				return
			}
			tv, ok := es.info.Types[m.Args[0]]
			if !ok || tv.Type == nil {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				es.addSite(m, "make", "a map always allocates")
			case *types.Chan:
				es.addSite(m, "make", "a channel always allocates")
			default:
				if len(m.Args) >= 2 && !isConstExpr(es.info, m.Args[1]) {
					es.addSite(m, "make", "a non-constant size defeats stack allocation")
				} else {
					es.addSite(m, "make", "")
				}
			}
		}
	}
}

// boxedArgSites records the concrete arguments a call passes to interface
// parameters: each is boxed at the call, which is how fmt.Sprintf sneaks
// allocations into a kernel.
func (es *escapeState) boxedArgSites(call *ast.CallExpr) {
	sig, _ := typeSig(es.info, call.Fun)
	if sig == nil {
		return
	}
	for i, a := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			break // a slice passed through to the variadic tail
		}
		if types.IsInterface(paramType(sig, i)) && es.isConcrete(a) {
			es.addSite(a, "interface argument", "boxing a concrete value allocates")
		}
	}
}

func (es *escapeState) addSite(e ast.Expr, kind, always string) {
	es.sites = append(es.sites, escSite{expr: e, kind: kind, always: always})
}

// isConcrete reports an expression of a non-interface type, other than an
// untyped nil: converting it to an interface boxes it.
func (es *escapeState) isConcrete(e ast.Expr) bool {
	tv, ok := es.info.Types[e]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return !ok || b.Kind() != types.UntypedNil
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// isLocalVar reports an ident bound to a variable declared inside the
// function (taking its address may force it onto the heap).
func (es *escapeState) isLocalVar(id *ast.Ident) bool {
	obj, ok := es.info.Uses[id].(*types.Var)
	if !ok {
		obj, ok = es.info.Defs[id].(*types.Var)
	}
	if !ok || obj.IsField() {
		return false
	}
	return obj.Pos() >= es.fd.Pos() && obj.Pos() <= es.fd.End()
}

// carrier resolves the site whose allocation the expression's value
// carries, through parens, address-of, slicing, conversions and tainted
// SSA values. Returns -1 for none.
func (es *escapeState) carrier(e ast.Expr) int {
	e = ast.Unparen(e)
	if i, ok := es.siteOf[e]; ok {
		return i
	}
	switch e := e.(type) {
	case *ast.Ident:
		if vid, ok := es.ssa.Use[e]; ok && vid != 0 && es.taint != nil && es.taint[vid] >= 0 {
			return es.taint[vid]
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return es.carrier(e.X)
		}
	case *ast.SliceExpr:
		return es.carrier(e.X)
	case *ast.CallExpr:
		if tv, ok := es.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return es.carrier(e.Args[0])
		}
	}
	return -1
}

// propagate computes the taint fixpoint over the SSA values: a value
// carries a site when its defining expression does, or (for phis) when any
// incoming value does. Iteration is by value index, keeping the lowest
// carrying site, so the result is deterministic.
func (es *escapeState) propagate() {
	es.taint = make([]int, len(es.ssa.Vals))
	for i := range es.taint {
		es.taint[i] = -1
	}
	for changed := true; changed; {
		changed = false
		for vid := 1; vid < len(es.ssa.Vals); vid++ {
			v := &es.ssa.Vals[vid]
			s := -1
			switch v.Kind {
			case vExpr:
				if v.Rhs != nil {
					s = es.carrier(v.Rhs)
				}
			case vPhi:
				for _, a := range v.Args {
					if t := es.taint[a.Val]; t >= 0 && (s < 0 || t < s) {
						s = t
					}
				}
			}
			if s >= 0 && (es.taint[vid] < 0 || s < es.taint[vid]) {
				es.taint[vid] = s
				changed = true
			}
		}
	}
}

// scanSinks walks every reachable block (cold ones too: escaping through
// an error path still forces the allocation onto the heap) and records the
// first escape cause of each tainted site.
func (es *escapeState) scanSinks() {
	for _, b := range es.ssa.Dom.rpo {
		for _, n := range b.Nodes {
			es.sinkNode(n)
		}
	}
}

func (es *escapeState) sinkNode(n ast.Node) {
	switch s := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			es.mark(es.carrier(r), "returned to the caller")
		}
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				if c := es.carrier(s.Rhs[i]); c >= 0 {
					es.mark(c, es.storeCause(lhs))
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					if c := es.carrier(vs.Values[i]); c >= 0 {
						es.mark(c, es.storeCause(name))
					}
				}
			}
		}
	case *ast.SendStmt:
		es.mark(es.carrier(s.Value), "sent on a channel")
	case *ast.DeferStmt:
		es.sinkCall(s.Call)
	}
	inspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			es.sinkCall(call)
		}
		return true
	})
}

// storeCause classifies an assignment target: stores to SSA-tracked locals
// are copies, not sinks; everything else leaves the function's control.
func (es *escapeState) storeCause(lhs ast.Expr) string {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return ""
		}
		if _, tracked := es.ssa.Def[id]; tracked {
			return ""
		}
		return "stored to a variable the analysis cannot track (captured or address-taken)"
	}
	return "stored to the heap"
}

// sinkCall treats call arguments as escapes: the callee may retain the
// value, and an interface-typed parameter additionally boxes it.
func (es *escapeState) sinkCall(call *ast.CallExpr) {
	if tv, ok := es.info.Types[call.Fun]; ok && tv.IsType() {
		// A conversion: interface targets box the operand; value-preserving
		// conversions are handled by carrier.
		if len(call.Args) == 1 && types.IsInterface(tv.Type) {
			es.mark(es.carrier(call.Args[0]), "boxed into an interface")
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := es.info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "append":
				for _, a := range call.Args[1:] {
					es.mark(es.carrier(a), "appended into a slice")
				}
			case "panic":
				for _, a := range call.Args {
					es.mark(es.carrier(a), "boxed into an interface by panic")
				}
			}
			return
		}
	}
	sig, _ := typeSig(es.info, call.Fun)
	for i, a := range call.Args {
		c := es.carrier(a)
		if c < 0 {
			continue
		}
		if sig != nil && types.IsInterface(paramType(sig, i)) {
			es.mark(c, "boxed into an interface argument")
		} else {
			es.mark(c, "passed to a call that may retain it")
		}
	}
}

func typeSig(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// paramType resolves the static type of argument i, unwrapping the
// variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if i < params.Len()-1 || !sig.Variadic() {
		if i < params.Len() {
			return params.At(i).Type()
		}
		return nil
	}
	last := params.At(params.Len() - 1).Type()
	if sl, ok := last.Underlying().(*types.Slice); ok {
		return sl.Elem()
	}
	return last
}

func (es *escapeState) mark(site int, cause string) {
	if site >= 0 && cause != "" && es.cause[site] == "" {
		es.cause[site] = cause
	}
}

func (es *escapeState) report() {
	name := es.fd.Name.Name
	for i, s := range es.sites {
		switch {
		case s.always != "":
			es.pass.Reportf(s.expr.Pos(), "hot path %s allocates per iteration: %s — %s; hoist it to the caller or reuse a scratch value",
				name, s.kind, s.always)
		case es.cause[i] != "":
			es.pass.Reportf(s.expr.Pos(), "hot path %s: %s escapes (%s); hoist the allocation out of the hot path",
				name, s.kind, es.cause[i])
		}
	}
}
