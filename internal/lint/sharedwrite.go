package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SharedWrite proves every write reachable from a parallel region race-free
// under the MHP model (hb.go, mhp.go): atomic on both sides, a common
// mutex, a partitioned index (worker slot certified by the interval engine,
// or instance-derived under the dispatch contract), or a join edge
// separating the region from the conflicting access. Everything else is the
// PR-4 class of bug — a write two goroutines can reach with no
// happens-before edge between them — and is reported with both access sites
// and the edge that is missing.
var SharedWrite = &Analyzer{
	Name:      "sharedwrite",
	Doc:       "writes reachable from parallel closures must be provably race-free (worker-indexed, atomic on both sides, mutex-guarded, or join-separated)",
	RunModule: runSharedWrite,
}

func runSharedWrite(pass *ModulePass) {
	mod := pass.Mod
	hbimpl := hbimplFuncs(pass)
	m := newMHPModel(mod, hbimpl)
	for _, n := range m.graph.SortedNodes() {
		if hbimpl[n.Fn] || n.Decl.Body == nil {
			continue
		}
		var live []*ParRegion
		var accs [][]access
		for _, r := range regionsOf(mod, n.Pkg, n.Fn, n.Decl) {
			if r.CalleeFn != nil && hbimpl[r.CalleeFn] {
				continue
			}
			live = append(live, r)
			accs = append(accs, m.regionAccesses(r))
		}
		if len(live) == 0 {
			continue
		}
		seen := map[[2]token.Pos]bool{}
		report := func(at token.Pos, other token.Pos, format string, args ...any) {
			key := [2]token.Pos{at, other}
			if seen[key] {
				return
			}
			seen[key] = true
			pass.Reportf(at, format, args...)
		}
		pos := func(p token.Pos) token.Position { return mod.Fset.Position(p) }

		// Instances of one region racing with each other.
		for i, r := range live {
			if !r.SelfParallel {
				continue
			}
			for ai := range accs[i] {
				a := &accs[i][ai]
				if !a.write {
					continue
				}
				for bi := range accs[i] {
					b := &accs[i][bi]
					if !conflictingPair(a, b) {
						continue
					}
					report(a.rep, b.pos,
						"write to %s races with a parallel instance of the %s region spawned at %v (conflicting access at %v): no happens-before edge orders two instances; index by the worker id, use sync/atomic, or guard both sides with one mutex",
						a.id.Name(), r.Kind, pos(r.Site.Pos()), pos(b.pos))
					break
				}
			}
		}

		// Sibling regions of the same spawner that are never ordered by a
		// join.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				if !regionsMHP(live[i], live[j]) {
					continue
				}
				crossReport(report, pos, accs[i], accs[j],
					"write to %s may happen in parallel with the access at %v: the regions spawned at %v and %v are never ordered by a join (wg.Wait or channel receive)",
					live[i].Site.Pos(), live[j].Site.Pos())
			}
		}

		// The spawner window: code after a go statement and before its join
		// runs concurrently with the region.
		for i, r := range live {
			if r.Kind != RegionGo {
				continue
			}
			wacc := m.windowAccesses(n.Pkg, n.Decl, r)
			if len(wacc) == 0 {
				continue
			}
			edge := "no join (wg.Wait or channel receive) separates them"
			if r.JoinEnd.IsValid() {
				edge = "the spawner reaches this before the join at " + pos(r.JoinEnd).String()
			}
			crossReport(report, pos, accs[i], wacc,
				"write to %s may happen in parallel with the access at %v: the goroutine spawned at %v is unordered with its spawner here — "+edge,
				r.Site.Pos(), token.NoPos)
		}
	}
}

// conflictingPair reports whether two accesses from unordered instances can
// race: same identity, at least one write, not both atomic, not both
// partitioned onto disjoint elements, no common mutex. One atomic side
// orders nothing: a CAS racing a plain read of the same word is still a
// race.
func conflictingPair(a, b *access) bool {
	if a.id == nil || a.id != b.id {
		return false
	}
	if !a.write && !b.write {
		return false
	}
	if a.tier == tierAtomic && b.tier == tierAtomic {
		return false
	}
	if partitionedTier(a.tier) && partitionedTier(b.tier) {
		return false
	}
	return !commonHeld(a, b)
}

// crossReport reports every conflicting pair between two unordered access
// sets, anchored at the write side (preferring the first set's writes).
func crossReport(report func(at, other token.Pos, format string, args ...any),
	pos func(token.Pos) token.Position, as, bs []access, format string,
	siteA, siteB token.Pos) {
	for ai := range as {
		a := &as[ai]
		for bi := range bs {
			b := &bs[bi]
			if !conflictingPair(a, b) {
				continue
			}
			w, o := a, b
			if !a.write {
				w, o = b, a
			}
			if siteB.IsValid() {
				report(w.rep, o.pos, format, w.id.Name(), pos(o.pos), pos(siteA), pos(siteB))
			} else {
				report(w.rep, o.pos, format, w.id.Name(), pos(o.pos), pos(siteA))
			}
		}
	}
}

// regionsMHP reports whether two regions of one spawner may overlap: neither
// is joined before the other is spawned.
func regionsMHP(a, b *ParRegion) bool {
	joinedBefore := func(x, y *ParRegion) bool {
		return x.JoinEnd.IsValid() && x.JoinEnd <= y.Site.Pos()
	}
	return !joinedBefore(a, b) && !joinedBefore(b, a)
}

// regionAccesses collects and classifies the shared accesses one region can
// perform.
func (m *mhpModel) regionAccesses(r *ParRegion) []access {
	body := r.Body()
	if body == nil {
		return nil
	}
	pkg := r.BodyPkg()
	var params []*types.Var
	name := r.EnclFn.Name()
	if r.Lit != nil {
		params = paramVars(pkg, r.Lit.Type)
	} else {
		params = funcParams(pkg, r.CalleeDecl)
		name = r.CalleeFn.Name()
	}
	ctx := &accCtx{
		model: m, pkg: pkg,
		bodyStart: body.Pos(), bodyEnd: body.End(),
		params: params, region: r, fnName: name,
	}
	accs, _ := collectAccesses(pkg, body, ctx, nil)
	return accs
}

// windowAccesses collects the spawner's accesses between a go region's spawn
// site and its join (or the end of the declaration when never joined).
func (m *mhpModel) windowAccesses(pkg *Package, fd *ast.FuncDecl, r *ParRegion) []access {
	from := r.Site.End()
	to := r.JoinEnd
	filter := func(n ast.Node) bool {
		if n.Pos() < from {
			return false
		}
		return !to.IsValid() || n.Pos() < to
	}
	ctx := &accCtx{
		model: m, pkg: pkg,
		bodyStart: fd.Body.Pos(), bodyEnd: fd.Body.End(),
		window: true, fnName: fd.Name.Name,
	}
	accs, _ := collectAccesses(pkg, fd.Body, ctx, filter)
	return accs
}

// ---------------------------------------------------------------------------
// MHP graph dump (schedlint -mhp-dump)

// MHPRegionDump is one parallel region in the JSON graph dump.
type MHPRegionDump struct {
	Package      string          `json:"package"`
	Func         string          `json:"func"`
	Kind         string          `json:"kind"`
	Site         string          `json:"site"`
	Worker       string          `json:"worker,omitempty"`
	Dist         []string        `json:"dist,omitempty"`
	SelfParallel bool            `json:"selfParallel"`
	Join         string          `json:"join,omitempty"`
	Hbimpl       bool            `json:"hbimpl,omitempty"`
	Accesses     []MHPAccessDump `json:"accesses,omitempty"`
}

// MHPAccessDump is one classified access in the dump.
type MHPAccessDump struct {
	Var   string `json:"var"`
	Write bool   `json:"write"`
	Tier  string `json:"tier"`
	Pos   string `json:"pos"`
	In    string `json:"in,omitempty"`
}

// MHPDumpModule runs the MHP engine over a module and returns every
// discovered parallel region with its classified accesses — the auditable
// artifact behind sharedwrite's verdicts.
func MHPDumpModule(mod *Module) []MHPRegionDump {
	var scratch []Diagnostic
	pass := &ModulePass{Analyzer: SharedWrite, Mod: mod, diags: &scratch}
	hbimpl := hbimplFuncs(pass)
	m := newMHPModel(mod, hbimpl)
	var out []MHPRegionDump
	for _, n := range m.graph.SortedNodes() {
		if n.Decl.Body == nil {
			continue
		}
		for _, r := range regionsOf(mod, n.Pkg, n.Fn, n.Decl) {
			d := MHPRegionDump{
				Package:      n.Pkg.RelPath,
				Func:         n.Fn.Name(),
				Kind:         r.Kind.String(),
				Site:         mod.Fset.Position(r.Site.Pos()).String(),
				SelfParallel: r.SelfParallel,
				Hbimpl:       hbimpl[n.Fn] || (r.CalleeFn != nil && hbimpl[r.CalleeFn]),
			}
			if r.Worker != nil {
				d.Worker = r.Worker.Name()
			}
			for v := range r.Dist {
				d.Dist = append(d.Dist, v.Name())
			}
			sort.Strings(d.Dist)
			if r.JoinEnd.IsValid() {
				d.Join = mod.Fset.Position(r.JoinEnd).String()
			}
			if !d.Hbimpl {
				for _, a := range m.regionAccesses(r) {
					d.Accesses = append(d.Accesses, MHPAccessDump{
						Var: a.id.Name(), Write: a.write,
						Tier: a.tier.String(),
						Pos:  mod.Fset.Position(a.pos).String(),
						In:   a.in,
					})
				}
			}
			out = append(out, d)
		}
	}
	return out
}
