package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc keeps the DP inner loops allocation-free. Functions whose doc
// comment carries a //lint:hotpath directive (the layer-fill entry
// computation, the run-length relaxation, the odometer decoders) run
// millions of times per bisection probe; a growing append or an interface
// boxing in one of them shows up directly in the benchmarks the CI gate
// watches.
// Allocation sites that only allocate when they escape — composite
// literals, make, new, closures — are the escape analyzer's job; hotalloc
// keeps the two checks value-flow cannot improve on: append may grow its
// backing array regardless of escaping, and interface boxing allocates at
// the conversion itself. Both checks skip cold error-bail-out blocks: an
// allocation on the `return fmt.Errorf(...)` path costs nothing per hot
// iteration.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//lint:hotpath functions must not call append or box into interfaces on the hot path",
	Run:  runHotAlloc,
}

const hotpathPrefix = "//lint:hotpath"

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		fns, attached := directiveFuncs(f, isHotpathDirective)
		for _, fd := range fns {
			if fd.Body != nil {
				checkHotBody(pass, fd)
			}
		}
		reportStray(pass, f, isHotpathDirective, attached, "//lint:hotpath")
	}
}

func isHotpathDirective(text string) bool {
	if !strings.HasPrefix(text, hotpathPrefix) {
		return false
	}
	rest := text[len(hotpathPrefix):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// checkHotBody scans the function's warm blocks (everything except the
// cold error bail-outs) for allocating calls.
func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	cfg := BuildCFG(fd.Body)
	dom := BuildDom(cfg)
	cold := coldBlocks(pass.Pkg.Info, fd, cfg, dom)
	name := fd.Name.Name
	scan := func(n ast.Node) {
		inspectShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				checkHotCall(pass, pass.Pkg, name, call)
			}
			return true
		})
	}
	for _, b := range dom.rpo {
		if cold[b] {
			continue
		}
		for _, n := range b.Nodes {
			scan(n)
			if ds, ok := n.(*ast.DeferStmt); ok {
				// Deferred arguments evaluate (and box) at the defer
				// statement, on the hot path.
				scan(ds.Call)
			}
		}
	}
}

func checkHotCall(pass *Pass, pkg *Package, name string, call *ast.CallExpr) {
	// Builtins: append may grow the backing array even when nothing
	// escapes.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				pass.Reportf(call.Pos(), "hot path %s calls append, which may grow the backing array; size the slice up front", name)
			}
			return
		}
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	// Conversion to an interface type boxes the operand.
	if tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at, ok := pkg.Info.Types[call.Args[0]]; ok && at.Type != nil && !types.IsInterface(at.Type) {
				pass.Reportf(call.Pos(), "hot path %s converts a concrete value to an interface, which boxes (allocates)", name)
			}
		}
		return
	}
	// Concrete argument passed to an interface parameter boxes too — this
	// is how fmt.Sprintf sneaks allocations into a kernel.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type) {
			continue
		}
		if b, ok := at.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path %s boxes a concrete argument into an interface parameter (allocates)", name)
	}
}
