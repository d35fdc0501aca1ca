package main

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// shape is an instance size.
type shape struct {
	name string
	m, n int
}

// The figure shapes of the paper's Figures 2-4.
var (
	fig2 = shape{"fig2", 20, 100}
	fig3 = shape{"fig3", 10, 50}
	fig4 = shape{"fig4", 10, 30}
)

// cell is one (shape, family) instance recipe.
type cell struct {
	shape
	family workload.Family
}

// coldInstance is one generated instance with its set-up references.
type coldInstance struct {
	label string
	in    *pcmax.Instance
	// lptMS is plain LPT's makespan; certLB is max(Instance.LowerBound,
	// lb.FromLPT), a certified lower bound on OPT.
	lptMS, certLB pcmax.Time
	// ref is the makespan of the warm-up solve, which every later solve of
	// the instance must reproduce.
	ref pcmax.Time
	// maxEntries is the instance's DP table budget (0: the library
	// default); an instance whose warm-up solve exceeds it is dropped.
	maxEntries int64
}

func newColdInstance(label string, in *pcmax.Instance) *coldInstance {
	lpt := listsched.LPT(in)
	certLB := in.LowerBound()
	if b := lb.FromLPT(in, lpt); b > certLB {
		certLB = b
	}
	return &coldInstance{label: label, in: in, lptMS: lpt.Makespan(in), certLB: certLB}
}

func generate(c cell, seed uint64) (*pcmax.Instance, error) {
	return workload.Generate(workload.Spec{Family: c.family, M: c.m, N: c.n, Seed: seed})
}

// admission draws candidates per cell from the seed and admits those whose
// table work falls in the cell's band. The work estimate is deterministic —
// sigma x |configurations| of the DP table at the certified lower bound
// (the first target a bisection can probe and the largest table it
// builds), times the probe count ceil(log2(UB0-LB0+1))+1 — so only counts
// decide admission, never a timing, and a narrow band keeps the admitted
// instances' costs alike.
type admission struct {
	eps    float64
	sparse bool
	cells  []admitCell
}

// admitCell is one cell's admission band, quota and DP table budget.
type admitCell struct {
	cell
	lo, hi     int64
	quota      int
	maxEntries int64
}

// maxAdmitEntries caps the tables admission considers.
const maxAdmitEntries = 1 << 21

// tableWork returns inst's work estimate, and false when its table at the
// lower bound exceeds maxAdmitEntries or its configurations the enumerator's
// cap.
func (a admission) tableWork(inst *coldInstance) (int64, bool) {
	k, err := core.KFor(a.eps)
	if err != nil {
		return 0, false
	}
	var (
		sizes  []pcmax.Time
		counts []int
	)
	if a.sparse {
		sizes, counts, err = core.SparseRoundedClasses(inst.in, k, inst.certLB, a.eps)
	} else {
		sizes, counts, err = core.RoundedClasses(inst.in, k, inst.certLB)
	}
	if err != nil || len(sizes) == 0 {
		return 0, false
	}
	stride := make([]int64, len(counts))
	sigma := int64(1)
	for i := len(counts) - 1; i >= 0; i-- {
		stride[i] = sigma
		sigma *= int64(counts[i]) + 1
		if sigma > maxAdmitEntries {
			return 0, false
		}
	}
	var configs []conf.Config
	if a.sparse {
		configs, _, err = conf.EnumerateSparse(sizes, counts, inst.certLB, stride, 0, conf.DefaultSparseOptions(k))
	} else {
		configs, err = conf.Enumerate(sizes, counts, inst.certLB, stride, 0)
	}
	if err != nil {
		return 0, false
	}
	ub0 := min(inst.in.UpperBound(), inst.lptMS)
	probes := int64(bits.Len64(uint64(ub0-inst.certLB))) + 1
	return sigma * int64(len(configs)) * probes, true
}

// admit returns every cell's quota of admitted instances.
func (a admission) admit(seed uint64) ([]*coldInstance, error) {
	var out []*coldInstance
	for ci, c := range a.cells {
		got := 0
		for trial := 0; got < c.quota; trial++ {
			if trial == 100*c.quota {
				return nil, fmt.Errorf("%s/%v: only %d of %d candidates admitted after %d trials", c.name, c.family, got, c.quota, trial)
			}
			in, err := generate(c.cell, mix(seed, uint64(ci), uint64(trial)))
			if err != nil {
				return nil, err
			}
			inst := newColdInstance(fmt.Sprintf("%s/%v/t%d", c.name, c.family, trial), in)
			if w, ok := a.tableWork(inst); ok && w >= c.lo && w <= c.hi {
				inst.maxEntries = c.maxEntries
				out = append(out, inst)
				got++
			}
		}
	}
	return out, nil
}

// coldBench is a workload of independent cold solver.PTAS calls over a
// fixed instance set. The timed phase visits the set in passes, each in a
// fresh seeded shuffle, and stops at the deadline, so a partial last pass
// is an unbiased sample of the set. With paired set, every op is a
// Workers 2 solve paired with a Workers 1 solve of the same instance, in
// alternating order.
type coldBench struct {
	opts   solver.PTASOptions
	paired bool
	// collect runs a garbage collection between ops, outside the timed
	// region, so every op starts from the same heap.
	collect bool
	gen     func(seed uint64) ([]*coldInstance, error)
	insts   []*coldInstance
	seed    uint64
}

func (b *coldBench) setup(seed uint64) error {
	b.insts = nil // let a repeated set-up collect the previous set
	insts, err := b.gen(seed)
	if err != nil {
		return err
	}
	b.insts, b.seed = insts, seed
	return nil
}

// cursor walks the instance set in shuffled passes.
type cursor struct {
	order []int
	pos   int
	pass  int
	seed  uint64
}

func (b *coldBench) cursor() *cursor { return &cursor{seed: b.seed} }

// next returns the index of the next instance of an n-instance set.
func (c *cursor) next(n int) int {
	if c.pos == len(c.order) {
		c.order = rng.New(mix(c.seed, 300, uint64(c.pass))).Perm(n)
		c.pos = 0
		c.pass++
	}
	c.pos++
	return c.order[c.pos-1]
}

// optsFor returns the solver options of one instance's ops.
func (b *coldBench) optsFor(inst *coldInstance) solver.PTASOptions {
	o := b.opts
	o.MaxTableEntries = inst.maxEntries
	return o
}

// warmup solves every instance once, untimed, to record its reference
// makespan, the makespan digest and the quality ratio. An instance whose
// solve needs a table above its budget is dropped: the budget is part of
// admission (on sparse-fine it turns away the instances whose faithful
// fallback would take seconds).
func (b *coldBench) warmup(ctx context.Context, chk *checker, dg *digest) (float64, int) {
	var ratioSum float64
	kept := b.insts[:0]
	for _, inst := range b.insts {
		if b.collect {
			runtime.GC()
		}
		sched, _, err := solver.PTAS(ctx, inst.in, b.optsFor(inst))
		if errors.Is(err, dp.ErrTableTooLarge) {
			continue
		}
		ms := chk.checkCold(inst.label, inst.in, sched, err, 0, inst.lptMS)
		inst.ref = ms
		dg.add(ms)
		ratioSum += float64(ms) / float64(inst.certLB)
		kept = append(kept, inst)
	}
	b.insts = kept
	return ratioSum, len(b.insts)
}

// Batches bound how much work shares one allocation window: the checks of
// a batch run after its window closes.
const (
	maxBatchOps  = 64
	maxBatchTime = 20 * time.Millisecond
)

func (b *coldBench) timed(ctx context.Context, deadline time.Time, m *meter, chk *checker) map[string]metricValue {
	if b.paired {
		return b.timedPairs(ctx, deadline, m, chk)
	}
	cur := b.cursor()
	// A batch's instances are drawn before its window opens (a new pass
	// shuffles, which allocates); the ones it leaves unused open the next.
	idx := make([]int, 0, maxBatchOps)
	scheds := make([]*pcmax.Schedule, maxBatchOps)
	errs := make([]error, maxBatchOps)
	for len(m.lat) == 0 || time.Now().Before(deadline) {
		for len(idx) < maxBatchOps {
			idx = append(idx, cur.next(len(b.insts)))
		}
		m.reserve(maxBatchOps)
		n := 0
		m.open()
		start := time.Now()
		for n < maxBatchOps && time.Since(start) < maxBatchTime {
			inst := b.insts[idx[n]]
			t0 := time.Now()
			scheds[n], _, errs[n] = solver.PTAS(ctx, inst.in, b.optsFor(inst))
			m.record(time.Since(t0))
			n++
		}
		m.close()
		for x := 0; x < n; x++ {
			inst := b.insts[idx[x]]
			chk.checkCold(inst.label, inst.in, scheds[x], errs[x], inst.ref, inst.lptMS)
			scheds[x] = nil
		}
		idx = append(idx[:0], idx[n:]...)
		if b.collect {
			runtime.GC()
		}
	}
	return map[string]metricValue{"instances": {Value: float64(len(b.insts)), Unit: "count"}}
}

// timedPairs runs Workers 2 ops, each paired with a Workers 1 solve of the
// same instance outside the allocation window, alternating which runs
// first, and reports speedup_vs_1w: the median over pairs of the Workers 1
// time over the Workers 2 time.
func (b *coldBench) timedPairs(ctx context.Context, deadline time.Time, m *meter, chk *checker) map[string]metricValue {
	cur := b.cursor()
	var ratios []float64
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		inst := b.insts[cur.next(len(b.insts))]
		two := b.optsFor(inst)
		one := two
		one.Workers = 1
		var (
			s1   *pcmax.Schedule
			err1 error
			d1   time.Duration
		)
		solveOne := func() {
			t0 := time.Now()
			s1, _, err1 = solver.PTAS(ctx, inst.in, one)
			d1 = time.Since(t0)
		}
		if op%2 == 1 {
			solveOne()
		}
		m.reserve(1)
		m.open()
		t0 := time.Now()
		s2, _, err2 := solver.PTAS(ctx, inst.in, two)
		d2 := time.Since(t0)
		m.close()
		m.record(d2)
		if op%2 == 0 {
			solveOne()
		}
		chk.checkCold(inst.label, inst.in, s2, err2, inst.ref, inst.lptMS)
		chk.checkCold(inst.label+" (1 worker)", inst.in, s1, err1, inst.ref, inst.lptMS)
		ratios = append(ratios, float64(d1)/float64(d2))
	}
	return map[string]metricValue{
		"speedup_vs_1w": {Value: median(ratios), Unit: "x", Samples: len(ratios)},
		"instances":     {Value: float64(len(b.insts)), Unit: "count"},
	}
}

func (b *coldBench) traced(ctx context.Context, deadline time.Time, r *replayer, chk *checker) ([]float64, []float64, *statAgg) {
	agg := &statAgg{}
	var untraced, replayed []float64
	cur := b.cursor()
	// The traced run replays every instance at least once.
	for op := 0; op < len(b.insts) || time.Now().Before(deadline); op++ {
		inst := b.insts[cur.next(len(b.insts))]
		if b.collect {
			runtime.GC()
		}
		t0 := time.Now()
		sched, st, err := solver.PTAS(ctx, inst.in, b.optsFor(inst))
		untraced = append(untraced, float64(time.Since(t0)))
		ms := chk.checkCold(inst.label, inst.in, sched, err, inst.ref, inst.lptMS)
		if st == nil {
			continue
		}
		agg.add(st)
		if b.collect {
			runtime.GC()
		}

		r.tr.op = op
		r.tr.begin(spOp)
		res, rerr := r.solve(inst.in, solveOpts{eps: b.opts.Epsilon, workers: b.opts.Workers, sparse: b.opts.Sparsify, maxEntries: inst.maxEntries})
		replayed = append(replayed, float64(r.tr.end()))
		if rerr != nil {
			r.mismatch("%s: replay failed: %v", inst.label, rerr)
			continue
		}
		r.checkReplay(inst.label, res, st, res.sched.Makespan(inst.in), ms)
		if err := r.afterOp(res, op < len(b.insts)); err != nil {
			r.mismatch("%s: %v", inst.label, err)
		}
	}
	return untraced, replayed, agg
}

// The cold workloads' instance recipes. small selects the smoke test's
// reduced sets.

// grid generates perCell instances of every (shape, family) cell.
func grid(shapes []shape, families []workload.Family, perCell int) func(seed uint64) ([]*coldInstance, error) {
	return func(seed uint64) ([]*coldInstance, error) {
		var out []*coldInstance
		for si, sh := range shapes {
			for _, f := range families {
				for i := 0; i < perCell; i++ {
					in, err := generate(cell{sh, f}, mix(seed, uint64(si), uint64(f), uint64(i)))
					if err != nil {
						return nil, err
					}
					out = append(out, newColdInstance(fmt.Sprintf("%s/%v/%d", sh.name, f, i), in))
				}
			}
		}
		return out, nil
	}
}

func paperCold(small bool) *coldBench {
	perCell := 400
	if small {
		perCell = 1
	}
	return &coldBench{
		opts: solver.DefaultPTASOptions(),
		gen:  grid([]shape{fig2, fig3, fig4}, workload.Families, perCell),
	}
}

func fillPar(small bool) *coldBench {
	opts := solver.DefaultPTASOptions()
	opts.Epsilon = 0.2
	opts.Workers = 2
	// Each cell's band holds its solves to a narrow cost range; the quotas
	// put the median and the tail percentile inside the dominant fig2
	// U(1,100) group rather than in a gap between groups.
	a := admission{eps: 0.2, cells: []admitCell{
		{cell{fig3, workload.U1_100}, 5e5, 1e6, 32, 0},
		{cell{fig3, workload.U1_10n}, 2e6, 3e6, 32, 0},
		{cell{fig2, workload.U1_100}, 6e6, 9e6, 192, 0},
		{cell{fig2, workload.U1_10n}, 3e7, 4.5e7, 8, 0},
	}}
	if small {
		a.cells = []admitCell{{cell{fig3, workload.U1_10n}, 1e5, 3e6, 1, 0}}
	}
	return &coldBench{
		opts:   opts,
		paired: true,
		gen:    a.admit,
	}
}

func sparseFine(small bool) *coldBench {
	opts := solver.DefaultPTASOptions()
	opts.Epsilon = 0.1
	opts.Sparsify = true
	// The table budgets keep the faithful T-1 certification probe and the
	// faithful fallback bounded: a probe above the budget leaves the result
	// uncertified, and an instance whose fallback exceeds it is dropped in
	// the warm-up. fig3 U(1,10n) is left out: at eps 0.1 its admitted
	// instances take a second or more each.
	a := admission{eps: 0.1, sparse: true, cells: []admitCell{
		{cell{fig4, workload.Um_2m1}, 1e6, 2e6, 32, 1 << 17},
		{cell{fig4, workload.U1_100}, 1e7, 2e7, 128, 1 << 17},
		{cell{fig2, workload.U1_2m1}, 1.5e7, 3e7, 32, 1 << 19},
		{cell{fig3, workload.U1_100}, 3e7, 6e7, 8, 1 << 19},
	}}
	if small {
		a.cells = []admitCell{{cell{fig4, workload.Um_2m1}, 1e5, 2e6, 1, 1 << 17}}
	}
	return &coldBench{
		opts: opts,
		gen:  a.admit,
	}
}

func largeN(small bool) *coldBench {
	shapes := []shape{{"m1e3", 1000, 100000}, {"m1e4", 10000, 200000}}
	perCell := 2
	if small {
		shapes, perCell = []shape{{"m100", 100, 5000}}, 1
	}
	families := []workload.Family{workload.U1_100, workload.U1_10n, workload.U1_2m1, workload.U95_105}
	// Each op allocates about twice the live heap, so whether a collection
	// lands inside an op would otherwise decide much of its latency.
	return &coldBench{
		opts:    solver.DefaultPTASOptions(),
		collect: true,
		gen:     grid(shapes, families, perCell),
	}
}
