package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/par"
	"repro/pcmax"
	"repro/solver"
)

// The traced run replays core.Solve from exported calls only, timing each
// call as a span. The library has no in-program phase trace yet, so these
// spans are stand-ins measured from outside: every replayed op is checked
// against what solver.PTAS (or Session.SolveDelta) returned for the same
// input, and trace.replay_over_e2e shows how closely the replay's time
// tracks the real call's.

// spanKind names a layer boundary.
type spanKind uint8

const (
	spOp spanKind = iota // root: one replayed op
	spValidate
	spBounds
	spPool
	spSplit
	spBuild
	spFill
	spReconstruct
	spPack
	spVerify
	spRepair
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "pcmax.validate", "lb.bounds", "par.pool", "core.split", "dp.build",
	"dp.fill", "dp.reconstruct", "listsched.pack", "core.sparse_verify", "listsched.repair",
}

// span is one recorded interval; Parent indexes the enclosing span (-1 for a
// root). Times are nanoseconds since the run's trace epoch.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	kind  spanKind
	start time.Duration
	child time.Duration
	idx   int
}

// tracer keeps spans in memory (up to maxSpans) and accumulates per-kind
// total and self time as spans end. Self time is a span's duration minus
// the time its child spans cover.
type tracer struct {
	epoch    time.Time
	op       int
	stack    []frame
	total    [numSpanKinds]time.Duration
	self     [numSpanKinds]time.Duration
	count    [numSpanKinds]int
	spans    []span
	maxSpans int
}

func newTracer(maxSpans int) *tracer {
	return &tracer{epoch: time.Now(), maxSpans: maxSpans}
}

func (t *tracer) begin(k spanKind) {
	now := time.Since(t.epoch)
	idx := -1
	if len(t.spans) < t.maxSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: spanNames[k], Op: t.op, Parent: parent, Start: int64(now)})
	}
	t.stack = append(t.stack, frame{kind: k, start: now, idx: idx})
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() time.Duration {
	now := time.Since(t.epoch)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.total[f.kind] += d
	t.self[f.kind] += d - f.child
	t.count[f.kind]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = int64(now)
	}
	return d
}

// solveOpts is what a replayed solve needs to know of its options.
type solveOpts struct {
	eps        float64
	workers    int
	sparse     bool
	maxEntries int64
	warm       *core.Bracket
	cache      *dp.Cache
}

// replayResult carries the replay's outcome in solver.PTASStats terms.
type replayResult struct {
	sched         *pcmax.Schedule
	iterations    int
	finalT        pcmax.Time
	tableEntries  int64
	configs       int
	entriesFilled int64
	certified     bool
	fallback      bool
	finalTable    *dp.Table
}

// enumInput is one configuration-set cache miss, kept for the isolated
// conf.enumerate timing.
type enumInput struct {
	sizes  []pcmax.Time
	counts []int
	T      pcmax.Time
	k      int
	sparse bool
}

// replayer replays solves and accumulates what the per-layer metrics need.
type replayer struct {
	ctx    context.Context
	tr     *tracer
	misses []enumInput

	probes        int
	entries       int64
	tables        int
	finalConfigs  int
	enumTime      time.Duration
	speedSeq      time.Duration
	speedAuto     time.Duration
	speedSamples  int
	speedupPool   *par.BarrierPool
	mismatches    int
	mismatchNotes []string
}

func newReplayer(ctx context.Context, maxSpans int) *replayer {
	return &replayer{ctx: ctx, tr: newTracer(maxSpans), speedupPool: par.NewBarrierPool(2)}
}

// close releases the replayer's barrier pool.
func (r *replayer) close() { r.speedupPool.Close() }

// probe is one bisection attempt.
type probe struct {
	T        pcmax.Time
	tbl      *dp.Table
	feasible bool
}

// solve replays core.Solve on in. It mirrors core.Solve step for step: the
// bounds, the bisection, one probe per target (split, table build, the fill
// arm production picks, OptValue), reconstruction and unrounding, the
// short-job pack, validation, the LPT fallback and, for the sparse
// pipeline, the faithful T-1 certification probe and fallback.
func (r *replayer) solve(in *pcmax.Instance, o solveOpts) (*replayResult, error) {
	tr := r.tr
	tr.begin(spValidate)
	err := in.Validate()
	tr.end()
	if err != nil {
		return nil, err
	}
	k, err := core.KFor(o.eps)
	if err != nil {
		return nil, err
	}

	tr.begin(spBounds)
	lptSched := listsched.LPT(in)
	lptMS := lptSched.Makespan(in)
	lbT := in.LowerBound()
	if b := lb.FromLPT(in, lptSched); b > lbT {
		lbT = b
	}
	ubT := in.UpperBound()
	if lptMS < ubT {
		ubT = lptMS
	}
	tr.end()
	if wb := o.warm; wb != nil {
		wlb, wub := max(lbT, wb.LB), min(ubT, wb.UB)
		if wlb <= wub {
			lbT, ubT = wlb, wub
		}
	}
	lb0 := lbT

	var bp *par.BarrierPool
	if o.workers > 1 {
		tr.begin(spPool)
		bp = par.NewBarrierPool(o.workers)
		tr.end()
		defer func() {
			tr.begin(spPool)
			bp.Close()
			tr.end()
		}()
	}
	if o.cache == nil {
		o.cache = dp.NewCache()
	}
	res := &replayResult{}

	attempt := func(T pcmax.Time, sparse bool) (*probe, error) {
		r.probes++
		var (
			sizes  []pcmax.Time
			counts []int
			err    error
		)
		tr.begin(spSplit)
		if sparse {
			sizes, counts, err = core.SparseRoundedClasses(in, k, T, o.eps)
		} else {
			sizes, counts, err = core.RoundedClasses(in, k, T)
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		p := &probe{T: T}
		if len(sizes) == 0 {
			p.feasible = true
			return p, nil
		}
		missesBefore := o.cache.Stats().ConfigMisses
		var tbl *dp.Table
		tr.begin(spBuild)
		if sparse {
			tbl, err = dp.NewSparse(sizes, counts, T, o.maxEntries, 0, o.cache, conf.DefaultSparseOptions(k))
		} else {
			tbl, err = dp.NewCached(sizes, counts, T, o.maxEntries, 0, o.cache)
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		if o.cache.Stats().ConfigMisses > missesBefore {
			r.misses = append(r.misses, enumInput{sizes: sizes, counts: counts, T: T, k: k, sparse: sparse})
		}
		tr.begin(spFill)
		if bp != nil {
			err = tbl.FillAutoCtx(r.ctx, bp)
		} else {
			err = tbl.FillSequentialCtx(r.ctx)
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		opt, err := tbl.OptValue()
		if err != nil {
			return nil, err
		}
		res.entriesFilled += tbl.Sigma
		r.entries += tbl.Sigma
		p.tbl, p.feasible = tbl, opt <= in.M
		return p, nil
	}

	var final *probe
	for lbT < ubT {
		res.iterations++
		T := lbT + (ubT-lbT)/2
		p, err := attempt(T, o.sparse)
		if err != nil {
			return nil, err
		}
		if p.feasible {
			ubT, final = T, p
		} else {
			lbT = T + 1
		}
	}
	T := lbT
	res.finalT = T
	if final == nil || final.T != T {
		p, err := attempt(T, o.sparse)
		if err != nil {
			return nil, err
		}
		if !p.feasible {
			if o.sparse {
				return r.fallback(in, o)
			}
			return nil, fmt.Errorf("converged T=%d is infeasible", T)
		}
		final = p
	}

	delta := 0.0
	if o.sparse {
		delta = o.eps
	}
	short, buckets := partition(in, k, T, delta)
	sched := pcmax.NewSchedule(in.M, in.N())
	if final.tbl != nil {
		res.finalTable = final.tbl
		res.tableEntries = final.tbl.Sigma
		res.configs = len(final.tbl.Configs)
		tr.begin(spReconstruct)
		err := unround(final.tbl, buckets, sched)
		tr.end()
		if err != nil {
			return nil, err
		}
	}

	tr.begin(spPack)
	sortJobsDesc(in, short)
	listsched.AssignGreedy(in, sched, short)
	tr.end()

	tr.begin(spValidate)
	err = sched.Validate(in)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("replay built an invalid schedule: %v", err)
	}
	if lptMS < sched.Makespan(in) {
		sched = lptSched
	}
	res.sched = sched

	if o.sparse {
		tr.begin(spVerify)
		certified := T <= lb0
		fallback := false
		if !certified {
			p, err := attempt(T-1, false)
			switch {
			case errors.Is(err, dp.ErrTableTooLarge):
				// The faithful verification table does not fit: the sparse
				// result stands, uncertified.
			case err != nil:
				tr.end()
				return nil, err
			default:
				fallback = p.feasible
				certified = !p.feasible
			}
		}
		if !fallback && float64(sched.Makespan(in)) > (1+o.eps)*float64(T)+1e-9 {
			fallback = true
		}
		tr.end()
		if fallback {
			return r.fallback(in, o)
		}
		res.certified = certified
	}
	if res.finalTable != nil {
		r.tables++
		r.finalConfigs += res.configs
	}
	return res, nil
}

// fallback replays the faithful re-solve a failed sparse run takes; it
// shares the sparse attempt's cache, as core.Solve does.
func (r *replayer) fallback(in *pcmax.Instance, o solveOpts) (*replayResult, error) {
	o.sparse = false
	res, err := r.solve(in, o)
	if err != nil {
		return nil, err
	}
	res.fallback = true
	return res, nil
}

// partition rebuilds core's split of the final target T outside the timed
// layers: the short jobs in input order and, per rounded (and, for the
// sparse pipeline, geometrically grouped) class in ascending size order, the
// long jobs in input order.
func partition(in *pcmax.Instance, k int, T pcmax.Time, delta float64) (short []int, buckets [][]int) {
	k2 := pcmax.Time(k) * pcmax.Time(k)
	u := (T + k2 - 1) / k2
	threshold := pcmax.Time(k) * u
	byClass := make(map[pcmax.Time][]int)
	for j, t := range in.Times {
		if t < threshold {
			short = append(short, j)
			continue
		}
		byClass[t/u] = append(byClass[t/u], j)
	}
	classes := make([]pcmax.Time, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
	if delta <= 0 || len(classes) < 2 {
		for _, c := range classes {
			buckets = append(buckets, byClass[c])
		}
		return short, buckets
	}
	for i := 0; i < len(classes); {
		base := classes[i] * u
		limit := pcmax.Time(float64(base) * (1 + delta))
		var bucket []int
		for i < len(classes) && classes[i]*u <= limit {
			bucket = append(bucket, byClass[classes[i]]...)
			i++
		}
		buckets = append(buckets, bucket)
	}
	return short, buckets
}

// unround reconstructs the long-job machines from a filled table and
// assigns the original jobs of each class bucket to them.
func unround(tbl *dp.Table, buckets [][]int, sched *pcmax.Schedule) error {
	machines, err := tbl.Reconstruct()
	if err != nil {
		return err
	}
	if len(buckets) != len(tbl.Counts) {
		return fmt.Errorf("replay split has %d classes, table %d", len(buckets), len(tbl.Counts))
	}
	next := make([]int, len(buckets))
	for mach, cfg := range machines {
		for c, cnt := range cfg {
			for x := int32(0); x < cnt; x++ {
				if next[c] >= len(buckets[c]) {
					return fmt.Errorf("class %d exhausted during unrounding", c)
				}
				sched.Assignment[buckets[c][next[c]]] = mach
				next[c]++
			}
		}
	}
	return nil
}

// sortJobsDesc orders job indices by non-increasing time, ties by index —
// the short-job LPT order core.Solve packs in.
func sortJobsDesc(in *pcmax.Instance, order []int) {
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := in.Times[order[a]], in.Times[order[b]]
		if ta != tb {
			return ta > tb
		}
		return order[a] < order[b]
	})
}

// afterOp runs the untraced side measurements of one replayed op: the
// isolated enumeration timing of its cache misses and, when sample is set,
// the same-table sequential-versus-2-worker fill comparison.
func (r *replayer) afterOp(res *replayResult, sample bool) error {
	for _, e := range r.misses {
		d, err := timeEnumerate(e)
		if err != nil {
			return err
		}
		r.enumTime += d
	}
	r.misses = r.misses[:0]
	if !sample || res == nil || res.finalTable == nil {
		return nil
	}
	// Alternate which fill runs first, so neither always meets a cold cache.
	tbl := res.finalTable
	fills := []func() error{
		func() error { return tbl.FillSequentialCtx(r.ctx) },
		func() error { return tbl.FillAutoCtx(r.ctx, r.speedupPool) },
	}
	first := r.speedSamples % 2
	r.speedSamples++
	var took [2]time.Duration
	for i := 0; i < 2; i++ {
		arm := (first + i) % 2
		t0 := time.Now()
		if err := fills[arm](); err != nil {
			return err
		}
		took[arm] = time.Since(t0)
	}
	r.speedSeq += took[0]
	r.speedAuto += took[1]
	return nil
}

// timeEnumerate times one configuration enumeration on the gcd-canonical
// inputs the dp.Cache builds from on a miss.
func timeEnumerate(e enumInput) (time.Duration, error) {
	g := pcmax.Time(0)
	for _, s := range e.sizes {
		g = gcd(g, s)
	}
	sizes := make([]pcmax.Time, len(e.sizes))
	for i, s := range e.sizes {
		sizes[i] = s / g
	}
	stride := make([]int64, len(e.counts))
	acc := int64(1)
	for i := len(e.counts) - 1; i >= 0; i-- {
		stride[i] = acc
		acc *= int64(e.counts[i]) + 1
	}
	var err error
	t0 := time.Now()
	if e.sparse {
		_, _, err = conf.EnumerateSparse(sizes, e.counts, e.T/g, stride, 0, conf.DefaultSparseOptions(e.k))
	} else {
		_, err = conf.Enumerate(sizes, e.counts, e.T/g, stride, 0)
	}
	return time.Since(t0), err
}

func gcd(a, b pcmax.Time) pcmax.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// checkReplay compares a replayed solve with the real solver's result for
// the same input and counts any difference as a replay mismatch. got and
// want are the replay's and the real call's accepted makespans.
func (r *replayer) checkReplay(label string, res *replayResult, st *solver.PTASStats, got, want pcmax.Time) {
	var diffs []string
	note := func(field string, got, want any) {
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s replay=%v solver=%v", field, got, want))
		}
	}
	note("Iterations", res.iterations, st.Iterations)
	note("FinalT", res.finalT, st.FinalT)
	note("TableEntries", res.tableEntries, st.TableEntries)
	note("Configs", res.configs, st.Configs)
	note("TotalEntriesFilled", res.entriesFilled, st.TotalEntriesFilled)
	note("SparseFallback", res.fallback, st.SparseFallback)
	note("SparseCertified", res.certified, st.SparseCertified)
	note("makespan", got, want)
	if len(diffs) > 0 {
		r.mismatch("%s: %v", label, diffs)
	}
}

func (r *replayer) mismatch(format string, args ...any) {
	r.mismatches++
	if len(r.mismatchNotes) < 10 {
		r.mismatchNotes = append(r.mismatchNotes, fmt.Sprintf(format, args...))
	}
}

// statAgg accumulates the solver's own reported stats over the untraced
// solves of a traced run.
type statAgg struct {
	solves                          int
	lptFallback, warmStart, sparseC int
	cfgEnum, cfgKept                int64
	hits, lookups                   int64
	inline, fused, parallel         int64
	steps, repairs                  int
}

func (a *statAgg) add(st *solver.PTASStats) {
	a.solves++
	if st.UsedLPTFallback {
		a.lptFallback++
	}
	if st.WarmStart {
		a.warmStart++
	}
	if st.SparseCertified {
		a.sparseC++
	}
	a.cfgEnum += int64(st.ConfigsEnumerated)
	a.cfgKept += int64(st.ConfigsAfterSparsification)
	a.hits += st.Cache.ConfigHits + st.Cache.LevelHits
	a.lookups += st.Cache.ConfigHits + st.Cache.ConfigMisses + st.Cache.LevelHits + st.Cache.LevelMisses
	a.inline += int64(st.Auto.LevelsInline)
	a.fused += int64(st.Auto.LevelsFused)
	a.parallel += int64(st.Auto.LevelsParallel)
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric of a traced run from the
// spans' self times, except core.sparse_verify_ms, which is the whole T-1
// probe including its split, build and fill. untraced and replayed are the
// per-op latencies (ns) of the real calls and of their replays.
func layerMetrics(r *replayer, agg *statAgg, untraced, replayed []float64) map[string]float64 {
	tr := r.tr
	ops := float64(len(replayed))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var replayTotal float64
	for _, v := range replayed {
		replayTotal += v
	}
	retained := 1.0
	if agg.cfgEnum > 0 {
		retained = float64(agg.cfgKept) / float64(agg.cfgEnum)
	}
	solves := float64(agg.solves)
	return map[string]float64{
		"lb.bounds_ms":                 ratio(ms(tr.self[spBounds]), ops),
		"pcmax.validate_ms":            ratio(ms(tr.self[spValidate]), ops),
		"core.probes_per_solve":        ratio(float64(r.probes), ops),
		"core.split_ms_per_probe":      ratio(ms(tr.self[spSplit]), float64(tr.count[spSplit])),
		"core.sparse_verify_ms":        ratio(ms(tr.total[spVerify]), ops),
		"conf.enumerate_ms":            ratio(ms(r.enumTime), ops),
		"conf.configs_per_table":       ratio(float64(r.finalConfigs), float64(r.tables)),
		"conf.sparse_retained_frac":    retained,
		"dp.build_ms_per_probe":        ratio(ms(tr.self[spBuild]), float64(tr.count[spBuild])),
		"dp.fill_ms":                   ratio(ms(tr.self[spFill]), ops),
		"dp.fill_ns_per_entry":         ratio(float64(tr.self[spFill]), float64(r.entries)),
		"dp.entries_per_solve":         ratio(float64(r.entries), ops),
		"dp.fill_share":                ratio(float64(tr.self[spFill]), replayTotal),
		"dp.reconstruct_ms":            ratio(ms(tr.self[spReconstruct]), ops),
		"dp.cache_hit_rate":            ratio(float64(agg.hits), float64(agg.lookups)),
		"listsched.pack_ms":            ratio(ms(tr.self[spPack]), ops),
		"listsched.repair_ms":          ratio(ms(tr.self[spRepair]), ops),
		"par.pool_setup_ms":            ratio(ms(tr.self[spPool]), ops),
		"par.fill_speedup_2w":          ratio(float64(r.speedSeq), float64(r.speedAuto)),
		"par.levels_parallel_frac":     ratio(float64(agg.parallel), float64(agg.inline+agg.fused+agg.parallel)),
		"solver.repair_accept_frac":    ratio(float64(agg.repairs), float64(agg.steps)),
		"solver.warm_start_frac":       ratio(float64(agg.warmStart), solves),
		"solver.lpt_fallback_frac":     ratio(float64(agg.lptFallback), solves),
		"solver.sparse_certified_frac": ratio(float64(agg.sparseC), solves),
		"trace.replay_over_e2e":        ratio(median(replayed), median(untraced)),
	}
}
