package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// WaitBalance checks sync.WaitGroup accounting around go statements, the
// two mistakes that turn a clean barrier into a hang or a panic:
//
//  1. A goroutine that calls wg.Done on some paths must call it on every
//     path — an early return that skips Done leaves Wait blocked forever.
//     This is a must-analysis over the goroutine body's CFG (intersection
//     at joins); a deferred Done satisfies every path at once.
//  2. wg.Add must happen before the go statement, not inside the goroutine:
//     if the spawner reaches Wait before the goroutine is scheduled, the
//     Add races the Wait (and a Wait that returns early panics on the late
//     Add). Flagged whenever the enclosing function Waits on the same
//     WaitGroup.
var WaitBalance = &Analyzer{
	Name: "waitbalance",
	Doc:  "WaitGroup Done must be reached on every goroutine path, and Add must precede the go statement",
	Run:  runWaitBalance,
}

func runWaitBalance(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// WaitGroups the enclosing function waits on (for rule 2).
			waited := map[*types.Var]bool{}
			inspectShallow(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if v, op := wgOp(pkg, call); op == "Wait" {
						waited[v] = true
					}
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
				if !ok {
					return true
				}
				checkGoroutineBalance(pass, g, lit.Body, waited)
				return true
			})
		}
	}
}

// wgOp recognizes wg.Done()/wg.Add(..)/wg.Wait() on a declared
// sync.WaitGroup variable or field; op is "" for anything else.
func wgOp(pkg *Package, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Done", "Add", "Wait":
	default:
		return nil, ""
	}
	v := addressedVar(pkg, sel.X)
	if v == nil || !isWaitGroupType(v.Type()) {
		return nil, ""
	}
	return v, sel.Sel.Name
}

func isWaitGroupType(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// doneFact is the must-have-called-Done set; all=true is top (a path that
// panics crashes the program regardless, so it should not veto the
// intersection).
type doneFact struct {
	all  bool
	done map[*types.Var]bool
}

func (f doneFact) EqualFact(other Fact) bool {
	o := other.(doneFact)
	if f.all != o.all || len(f.done) != len(o.done) {
		return false
	}
	for v := range f.done {
		if !o.done[v] {
			return false
		}
	}
	return true
}

func joinDoneFacts(a, b Fact) Fact {
	fa, fb := a.(doneFact), b.(doneFact)
	if fa.all {
		return fb
	}
	if fb.all {
		return fa
	}
	inter := map[*types.Var]bool{}
	for v := range fa.done {
		if fb.done[v] {
			inter[v] = true
		}
	}
	return doneFact{done: inter}
}

func checkGoroutineBalance(pass *Pass, g *ast.GoStmt, body *ast.BlockStmt, waited map[*types.Var]bool) {
	pkg := pass.Pkg
	cfg := BuildCFG(body)

	// Rule 2: Add inside the goroutine on a WaitGroup the spawner waits on.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, op := wgOp(pkg, call); op == "Add" && waited[v] {
			pass.Reportf(call.Pos(), "%s.Add inside the goroutine races with the spawner's Wait; call Add before the go statement", v.Name())
		}
		return true
	})

	// Classify where Done calls sit: on straight-line paths (subject to the
	// must-analysis), in defers (satisfy every path), or inside nested
	// non-deferred closures (out of scope — their execution is dynamic).
	shallowDone := map[*types.Var]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v, op := wgOp(pkg, call); op == "Done" {
				shallowDone[v] = true
			}
		}
		return true
	})
	deferDone := map[*types.Var]bool{}
	for _, d := range cfg.Defers {
		ast.Inspect(d, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v, op := wgOp(pkg, call); op == "Done" {
					deferDone[v] = true
				}
			}
			return true
		})
	}

	var need []*types.Var
	for v := range shallowDone {
		if !deferDone[v] {
			need = append(need, v)
		}
	}
	if len(need) == 0 {
		return
	}
	sort.Slice(need, func(i, j int) bool { return need[i].Pos() < need[j].Pos() })

	res := cfg.Forward(FlowProblem{
		Entry: doneFact{done: map[*types.Var]bool{}},
		Join:  joinDoneFacts,
		Transfer: func(b *Block, in Fact) Fact {
			cur := in.(doneFact)
			done := cur.done
			copied := false
			for _, stmt := range b.Nodes {
				inspectShallow(stmt, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if v, op := wgOp(pkg, call); op == "Done" {
						if !copied {
							nd := make(map[*types.Var]bool, len(done)+1)
							for k := range done {
								nd[k] = true
							}
							done = nd
							copied = true
						}
						done[v] = true
					}
					return true
				})
				if endsInPanic(stmt) {
					return doneFact{all: true}
				}
			}
			return doneFact{all: cur.all, done: done}
		},
	})
	exitIn, reached := res.In[cfg.Exit]
	if !reached {
		return // the goroutine never exits; leakygo's department
	}
	exit := exitIn.(doneFact)
	if exit.all {
		return
	}
	for _, v := range need {
		if !exit.done[v] {
			pass.Reportf(g.Pos(), "%s.Done is skipped on some path of this goroutine (early return or branch); a missed Done blocks Wait forever — prefer defer %s.Done()", v.Name(), v.Name())
		}
	}
}

// endsInPanic reports whether the statement is a call to panic (the CFG
// routes such blocks straight to exit; the process is crashing, so the
// must-analysis treats the path as satisfied).
func endsInPanic(stmt ast.Node) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isPanicCall(call)
}
