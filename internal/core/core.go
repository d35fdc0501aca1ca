// Package core implements the paper's contribution: the Hochbaum–Shmoys
// PTAS for P||Cmax (Algorithm 1) with either the sequential DP (Algorithm 2)
// or the Parallel DP (Algorithm 3) filling the dynamic-programming table.
//
// The driver performs a bisection search for the smallest target makespan T
// in [LB, UB] for which the rounded long jobs fit on at most m machines,
// reconstructs the long-job schedule at the final T, replaces rounded jobs
// by the original ones, and packs the short jobs greedily (LPT by default,
// the paper's practical improvement; LS reproduces the original
// Hochbaum–Shmoys rule). Every DP table is filled by the production fill
// (dp.FillAutoCtx), which at Workers > 1 runs the slab phases of a large
// table on a pool of goroutines, unless Options.PaperFaithful selects the
// paper's own algorithms for the faithful tables: the recursive Algorithm 2
// at Workers == 1, and at Workers > 1 the Parallel DP of Algorithm 3, which
// fills the table level by level over its anti-diagonals on the pool.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cancel"
	"repro/internal/conf"
	"repro/internal/dp"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/par"
	"repro/internal/simsched"
	"repro/pcmax"
)

// ShortRule selects how short jobs extend the long-job schedule.
type ShortRule int

const (
	// ShortLPT places short jobs in non-increasing size order (paper).
	ShortLPT ShortRule = iota
	// ShortLS places short jobs in input order (original Hochbaum–Shmoys).
	ShortLS
)

// String names the rule.
func (r ShortRule) String() string {
	switch r {
	case ShortLPT:
		return "LPT"
	case ShortLS:
		return "LS"
	default:
		return fmt.Sprintf("ShortRule(%d)", int(r))
	}
}

// Options configures one Solve call. The zero value is not valid because
// Epsilon must be positive; DefaultOptions gives the paper's configuration.
type Options struct {
	// Epsilon is the relative error; the algorithm is a (1+Epsilon)
	// approximation. The paper's experiments use 0.3.
	Epsilon float64
	// Workers is the number of DP workers P; values below 1 select
	// GOMAXPROCS. At Workers > 1 the solve starts a pool of that many
	// goroutines at its first fill that runs on one, and closes it on
	// return. The production fill runs the slab phases of tables with at
	// least 2^16 relaxations of fill work on it, and every smaller
	// table on the calling goroutine, so a solve of small tables starts no
	// pool; under PaperFaithful the paper's Parallel DP runs on it.
	// Schedules and every Stats field except FillTime and Auto's level
	// counters are the same at any Workers.
	Workers int
	// PaperFaithful fills every faithful DP table with the paper's
	// algorithms instead of the production fill (dp.FillAutoCtx), both
	// re-enumerating each entry's configuration set (Algorithm 3 Line 17):
	// the recursive Algorithm 2 (dp.FillRecursiveCtx) at Workers == 1, and
	// otherwise the Parallel DP of Algorithm 3 (dp.FillParallelCtx) on a pool
	// of Workers goroutines that the solve creates and closes. The sparse
	// tables of a Sparsify solve keep the production fill, since the paper's
	// per-entry search cannot respect their pruned configuration sets; its
	// faithful T-1 certification probe takes the paper's fill. Schedules are
	// identical either way; only the time differs.
	PaperFaithful bool
	// ShortRule selects the short-job placement rule (default ShortLPT).
	ShortRule ShortRule
	// LPTFallback returns plain LPT's schedule when it beats the PTAS
	// construction. It never hurts, and it caps the guarantee at LPT's
	// 4/3 - 1/(3m), which absorbs the +k additive slop of integer rounding
	// (round.go) whenever eps >= 1/3. The paper's algorithm has no such
	// fallback (its Table III shows LPT winning by up to 0.13), so the
	// experiment harness leaves this off; the solver facade enables it.
	LPTFallback bool
	// MaxTableEntries caps the DP table size; <= 0 uses dp.DefaultMaxEntries.
	MaxTableEntries int64
	// Sparsify enables the sparsified DP pipeline (the ptas-sparse registry
	// algorithm): geometric grouping of the rounded size classes within a
	// (1+Epsilon) band (see split.group) shrinks the table's index space, and
	// the sparse configuration enumerator (conf.EnumerateSparse with
	// conf.DefaultSparseOptions(k): support cap plus dominance pruning)
	// shrinks the candidate-move set. Both shrink the per-probe DP cost; the
	// (1+eps) guarantee is preserved a posteriori: the driver certifies the
	// converged target against the faithful enumeration and measures the
	// constructed makespan, falling back to the faithful pipeline when either
	// check fails (Stats.SparseCertified, Stats.SparseFallback).
	Sparsify bool
	// Cache optionally supplies a DP cache shared across Solve calls, so
	// repeated solves over similar instances reuse configuration
	// enumerations. When nil, Solve creates a per-call cache, which the
	// bisection's probes share: their gcd-canonical profiles repeat across
	// targets. (The converged target is attempted after the bisection only
	// when no probe ran at it, so no solve looks one target up twice.)
	// Stats.Cache reports this solve's own traffic even on a shared cache (a
	// before/after snapshot delta).
	Cache *dp.Cache
	// WarmBracket optionally tightens the bisection's initial interval with
	// knowledge from a previous solve of a related instance (see
	// solver.Session). Its LB must be a certified lower bound on this
	// instance's OPT and its UB the makespan of some valid schedule of this
	// instance; Solve intersects it with the fresh [LB0, UB0] bounds and
	// ignores it entirely when the intersection is empty (an inconsistent
	// bracket would break the bisection invariants, and emptiness means one
	// side was wrong). Stats.WarmStart reports whether it was applied.
	WarmBracket *Bracket
	// Profile, when non-nil, receives the work profile of every DP fill
	// (anti-diagonal level sizes, configuration-set sizes and total fill
	// time) for the simulated-multicore model in package simsched. Profiles
	// intended for calibration should come from Workers == 1 runs.
	Profile *simsched.Profile
}

// DefaultOptions returns the paper's configuration: eps = 0.3 (k = 4),
// sequential execution, LPT short-job rule.
func DefaultOptions() Options {
	return Options{Epsilon: 0.3, Workers: 1}
}

// Bracket is a [LB, UB] interval bracketing the optimal makespan, used to
// warm-start the bisection (Options.WarmBracket). LB must be a certified
// lower bound on OPT (so the converged target retains its OPT-witness
// meaning) and UB must be achieved by some valid schedule of the instance
// (so the probe at UB is guaranteed feasible).
type Bracket struct {
	LB, UB pcmax.Time
}

// Stats reports what one Solve call did.
type Stats struct {
	K          int // ceil(1/eps)
	Iterations int // bisection iterations
	// LB0 and UB0 are the initial bisection brackets: the paper's equations
	// (1)-(2), tightened by the bounds an LPT run yields (lb.FromLPT below,
	// and LPT's makespan as the upper bracket). Both still bracket OPT.
	LB0, UB0 pcmax.Time
	FinalT   pcmax.Time // converged target makespan

	// At the final T:
	LongJobs, ShortJobs int
	RoundingUnit        pcmax.Time
	SizeClasses         int
	TableEntries        int64 // sigma of the final table
	Configs             int   // machine configurations of the final table
	MachinesUsed        int   // machines used by the long-job schedule

	// Across all bisection iterations:
	TotalEntriesFilled int64
	// FillTime is the wall-clock time spent inside DP table fills.
	FillTime time.Duration
	// Auto accumulates, over all bisection probes, how dp.FillAutoCtx ran
	// the anti-diagonal levels: LevelsParallel counts the levels of fills
	// whose slab phases ran on the pool, LevelsInline those of fills on the
	// caller, and Relaxations the entry relaxations of every fill, the same
	// at any worker count. A sparse table's fill writes its singleton-and-
	// pair pool in closed form and relaxes only its configurations of three
	// or more jobs, so Relaxations counts those. Under Options.PaperFaithful
	// only the sparse tables of a Sparsify solve run dp.FillAutoCtx, so it
	// is all-zero on faithful tables.
	Auto dp.AutoStats
	// UsedLPTFallback reports that plain LPT beat the PTAS construction on
	// this instance and its schedule was returned instead. The fallback
	// costs O(n log n), never hurts, and caps the guarantee at LPT's
	// 4/3 - 1/(3m) — which absorbs the +k additive slop of integer rounding
	// (see round.go) whenever eps >= 1/3.
	UsedLPTFallback bool
	// WarmStart reports that Options.WarmBracket was supplied and consistent
	// with the fresh bounds, so the bisection started from the intersected
	// (tighter) interval. LB0/UB0 hold the intersected bracket.
	WarmStart bool
	// Cache reports DP-cache traffic for the solve (configuration-set reuse
	// across bisection probes).
	Cache dp.CacheStats

	// Sparse-pipeline observability (Options.Sparsify / the ptas-sparse
	// registry algorithm); all zero on faithful runs.

	// ConfigsEnumerated counts the feasible configurations the sparse
	// enumerator visited at the converged target (after grouping, before
	// pruning); ConfigsAfterSparsification counts the ones it retained —
	// their ratio is the configuration-set reduction of the final table.
	ConfigsEnumerated          int
	ConfigsAfterSparsification int
	// SparseCertified reports that the converged target T was proven to be
	// at most OPT — either T equaled the initial lower bracket, or a faithful
	// DP at T-1 was infeasible (infeasibility of rounded-down jobs is an OPT
	// witness) — so the returned schedule carries the full (1+eps)
	// guarantee. False only when the faithful verification table exceeded
	// the entry budget: the schedule is then valid and gate-checked against
	// (1+eps)T, but T <= OPT is unproven.
	SparseCertified bool
	// SparseFallback reports that a sparse run failed certification or the
	// (1+eps)T quality gate and the result came from a faithful re-solve
	// (FillTime then includes the abandoned sparse attempt).
	SparseFallback bool
}

// Typed failures.
var (
	ErrBadEpsilon      = errors.New("core: epsilon must be positive")
	ErrEpsilonTooSmall = errors.New("core: epsilon too small (k exceeds limit)")
	ErrInternal        = errors.New("core: internal invariant violated")
)

// maxK bounds k = ceil(1/eps); beyond this the DP table cannot possibly fit
// any entry budget, so fail fast with a clear error.
const maxK = 1 << 20

// KFor returns k = ceil(1/eps) with a tiny slack so that eps values like
// 1.0/3.0 map to k = 3 despite floating-point rounding.
func KFor(eps float64) (int, error) {
	if eps <= 0 || math.IsNaN(eps) {
		return 0, fmt.Errorf("%w (eps=%v)", ErrBadEpsilon, eps)
	}
	k := int(math.Ceil(1/eps - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > maxK {
		return 0, fmt.Errorf("%w (eps=%v gives k=%d > %d)", ErrEpsilonTooSmall, eps, k, maxK)
	}
	return k, nil
}

// Solve runs the (parallel) PTAS on the instance and returns the schedule
// and run statistics.
//
// Cancellation: when ctx dies (deadline, explicit cancel, parent teardown)
// the solve aborts cooperatively — inside a running DP fill, not just
// between probes — and degrades gracefully: it returns plain LPT's schedule
// (non-nil, valid, just without the PTAS guarantee), the partial Stats
// accumulated so far, and a *cancel.Error matching cancel.ErrCanceled (and
// cancel.ErrDeadline when a deadline caused it) that carries the iteration
// and entry counts at interruption time. A nil ctx is treated as
// context.Background().
func Solve(ctx context.Context, in *pcmax.Instance, opts Options) (*pcmax.Schedule, *Stats, error) {
	if ctx == nil {
		//lint:ignore ctxfirst canonical nil-ctx normalization at the API boundary, not a minted root for new work
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	k, err := KFor(opts.Epsilon)
	if err != nil {
		return nil, nil, err
	}
	if in.N() == 0 {
		return pcmax.NewSchedule(in.M, 0), &Stats{K: k}, nil
	}
	return solve(ctx, in, in.SortedIndex(), k, opts)
}

// solve is Solve on a validated, non-empty instance whose LPT order
// (in.SortedIndex()) is already known. The order is computed once per
// instance and shared by the LPT bounds, every probe's split, the
// unrounding and the short-job pack, and by the faithful re-solve a sparse
// fallback runs.
func solve(ctx context.Context, in *pcmax.Instance, order []int, k int, opts Options) (*pcmax.Schedule, *Stats, error) {
	stats := &Stats{K: k}
	n, m := in.N(), in.M

	// Paper Lines 2-3: bounds on the optimal makespan — tightened by an LPT
	// run ("LPT revisited": inverting LPT's approximation guarantees turns
	// its makespan W into a lower bound, and W itself is an upper bound that
	// is never worse than equation (2)). The schedule is kept for the
	// LPT-fallback comparison, the graceful-degradation path and an
	// all-short converged split, whose LPT pack it already is; greedy
	// assignment over the shared order is listsched.LPT job for job.
	lptSched := pcmax.NewSchedule(m, n)
	listsched.AssignGreedy(in, lptSched, order)
	lptMS := lptSched.Makespan(in)
	lbT := in.LowerBound()
	if b := lb.FromLPT(in, lptSched); b > lbT {
		lbT = b
	}
	ubT := in.UpperBound()
	if lptMS < ubT {
		ubT = lptMS
	}
	// A warm bracket (Options.WarmBracket) narrows the interval further when
	// it is consistent with the fresh bounds. Intersecting keeps both
	// invariants intact — the warm LB is certified <= OPT by contract, the
	// warm UB is some valid schedule's makespan (>= OPT, hence feasible) —
	// and an empty intersection means the caller's bracket was wrong for
	// this instance, so it is ignored wholesale rather than half-applied.
	if wb := opts.WarmBracket; wb != nil {
		wlb, wub := lbT, ubT
		if wb.LB > wlb {
			wlb = wb.LB
		}
		if wb.UB < wub {
			wub = wb.UB
		}
		if wlb <= wub {
			lbT, ubT = wlb, wub
			stats.WarmStart = true
		}
	}
	stats.LB0, stats.UB0 = lbT, ubT

	// Every fill of the solve shares one pool: the production fill's
	// slab phases and the paper's Parallel DP both run on it.
	pool := &solvePool{workers: par.Normalize(opts.Workers)}
	defer pool.close()

	// Every probe of the bisection shares one DP cache: gcd-canonical
	// profiles repeat across probes, and a caller-supplied cache extends the
	// reuse across Solve calls.
	if opts.Cache == nil {
		opts.Cache = dp.NewCache()
	}
	// Report this solve's own cache traffic: on a caller-shared cache the
	// lifetime counters keep growing across solves, so snapshot them here
	// and store the delta on the way out.
	cacheBefore := opts.Cache.Stats()
	defer func() { stats.Cache = opts.Cache.Stats().Sub(cacheBefore) }()

	// degrade converts a cancellation into the graceful-fallback result:
	// plain LPT's schedule (valid, no PTAS guarantee), the partial stats,
	// and the structured error stamped with the progress made. Any other
	// error passes through with no schedule.
	degrade := func(err error) (*pcmax.Schedule, *Stats, error) {
		var cerr *cancel.Error
		if !errors.As(err, &cerr) {
			return nil, nil, err
		}
		cerr.Iterations = stats.Iterations
		cerr.EntriesFilled += stats.TotalEntriesFilled
		stats.UsedLPTFallback = true
		return lptSched, stats, err
	}

	// attempt builds and fills the DP table for target T and reports whether
	// the rounded long jobs fit on at most m machines. The table and split
	// are returned for reuse when T turns out to be the final target.
	attempt := func(T pcmax.Time) (*split, *dp.Table, bool, error) {
		if err := cancel.Check(ctx); err != nil {
			return nil, nil, false, err
		}
		res, err := runAttempt(ctx, in, order, k, T, opts, pool)
		if err != nil {
			return nil, nil, false, err
		}
		stats.FillTime += res.fill
		stats.Auto.LevelsInline += res.auto.LevelsInline
		stats.Auto.LevelsParallel += res.auto.LevelsParallel
		stats.Auto.Relaxations += res.auto.Relaxations
		if res.tbl != nil {
			stats.TotalEntriesFilled += res.tbl.Sigma
			if opts.Profile != nil {
				opts.Profile.Levels = append(opts.Profile.Levels, dp.LevelSizes(res.sp.counts))
				opts.Profile.Configs = append(opts.Profile.Configs, len(res.tbl.Configs))
				opts.Profile.SeqFill = stats.FillTime
			}
		}
		return res.sp, res.tbl, res.feasible, nil
	}

	// Paper Lines 5-30: bisection search on T.
	var (
		finalSplit *split
		finalTable *dp.Table
	)
	for lbT < ubT {
		stats.Iterations++
		T := lbT + (ubT-lbT)/2
		sp, tbl, ok, err := attempt(T)
		if err != nil {
			return degrade(err)
		}
		if ok {
			ubT = T
			finalSplit, finalTable = sp, tbl
		} else {
			lbT = T + 1
		}
	}
	T := lbT
	stats.FinalT = T
	if finalSplit == nil || finalSplit.T != T {
		// The converged T was never attempted (e.g. LB == UB initially, or
		// the last feasible probe was at a larger T). Attempt it now; it is
		// feasible because every T >= OPT is.
		sp, tbl, ok, err := attempt(T)
		if err != nil {
			return degrade(err)
		}
		if !ok {
			if opts.Sparsify {
				// Sparse feasibility is not monotone in T the way faithful
				// feasibility is: pruning only removes configurations and
				// grouping shifts with T's rounding unit, so the bisection can
				// converge on a target whose own sparse DP is infeasible (e.g.
				// when no probe ever succeeded and T is the initial upper
				// bracket). Over-pruning is a detected condition, not an
				// invariant violation: re-solve faithfully.
				return sparseFaithfulFallback(ctx, in, order, k, opts, stats)
			}
			return nil, nil, fmt.Errorf("%w: converged T=%d is infeasible", ErrInternal, T)
		}
		finalSplit, finalTable = sp, tbl
	}
	stats.LongJobs = finalSplit.nLong
	stats.ShortJobs = n - finalSplit.nLong
	stats.RoundingUnit = finalSplit.u
	stats.SizeClasses = len(finalSplit.sizes)

	// Paper Lines 31-40: reconstruct the long-job schedule and replace the
	// rounded jobs with the original ones.
	var sched *pcmax.Schedule
	if finalTable != nil {
		stats.TableEntries = finalTable.Sigma
		stats.Configs = len(finalTable.Configs)
		machines, err := finalTable.Reconstruct()
		if err != nil {
			return nil, nil, err
		}
		if len(machines) > m {
			return nil, nil, fmt.Errorf("%w: reconstruction used %d machines for m=%d", ErrInternal, len(machines), m)
		}
		stats.MachinesUsed = len(machines)
		sched = pcmax.NewSchedule(m, n)
		remaining := finalSplit.buckets(in)
		for r, cfg := range machines {
			for c, cnt := range cfg {
				for x := int32(0); x < cnt; x++ {
					if len(remaining[c]) == 0 {
						return nil, nil, fmt.Errorf("%w: class %d exhausted during unrounding", ErrInternal, c)
					}
					j := remaining[c][0]
					remaining[c] = remaining[c][1:]
					sched.Assignment[j] = r
				}
			}
		}
		for c := range remaining {
			if len(remaining[c]) != 0 {
				return nil, nil, fmt.Errorf("%w: %d long jobs of class %d left unscheduled", ErrInternal, len(remaining[c]), c)
			}
		}
	}

	// Paper Lines 41-51: extend the schedule with the short jobs. With no
	// long job and the LPT rule, that packs the whole order onto empty
	// machines: the LPT schedule the bounds already built.
	if sched == nil && opts.ShortRule == ShortLPT {
		sched = lptSched
	} else {
		if sched == nil {
			sched = pcmax.NewSchedule(m, n)
		}
		listsched.AssignGreedy(in, sched, finalSplit.short(in, opts.ShortRule))
	}

	if err := sched.Validate(in); err != nil {
		return nil, nil, fmt.Errorf("%w: produced invalid schedule: %v", ErrInternal, err)
	}

	// Optionally return the better of the construction and plain LPT.
	// Deterministic (strict improvement only), guarantee-preserving in both
	// directions.
	if opts.LPTFallback && sched != lptSched && lptMS < sched.Makespan(in) {
		sched = lptSched
		stats.UsedLPTFallback = true
	}

	// Sparse mode surrenders per-probe exactness (grouping under-estimates
	// sizes, pruning drops configurations), so the (1+eps) guarantee is
	// re-established a posteriori before returning; see sparseVerify.
	if opts.Sparsify {
		if finalTable != nil {
			stats.ConfigsEnumerated = finalTable.SparseStats.Enumerated
			stats.ConfigsAfterSparsification = finalTable.SparseStats.Retained
		}
		fallback, err := sparseVerify(ctx, in, order, k, T, sched, opts, stats, pool)
		if err != nil {
			return degrade(err)
		}
		if fallback {
			return sparseFaithfulFallback(ctx, in, order, k, opts, stats)
		}
	}
	return sched, stats, nil
}

// attemptResult carries one probe's outcome.
type attemptResult struct {
	sp       *split
	tbl      *dp.Table // nil when the probe has no long jobs
	feasible bool
	fill     time.Duration
	auto     dp.AutoStats // level routing, when the production fill ran
}

// solvePool is a solve's worker pool, started by the first fill that runs
// on it: a solve whose tables all fill on the calling goroutine starts no
// goroutines.
type solvePool struct {
	workers int
	pool    *par.Pool
}

// get returns the pool, starting it on first use; nil at one worker.
func (s *solvePool) get() *par.Pool {
	if s.pool == nil && s.workers > 1 {
		s.pool = par.NewPool(s.workers)
	}
	return s.pool
}

// forSlabs returns the pool for tbl's production fill: nil when the table
// has no slab phases to run on it.
func (s *solvePool) forSlabs(tbl *dp.Table) *par.Pool {
	if tbl.SlabPhases() == 0 {
		return nil
	}
	return s.get()
}

// close stops the pool if it was started.
func (s *solvePool) close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

// runAttempt builds and fills the DP table for target T. The production
// fill (dp.FillAutoCtx) runs on every sparse table and, unless
// opts.PaperFaithful is set, on every faithful one, on the pool when the
// table has slab phases. Under PaperFaithful a faithful table runs the
// paper's Parallel DP on the pool at more than one worker, and its recursive
// Algorithm 2 otherwise: both re-enumerate each entry's configurations,
// which cannot respect a sparse table's pruned set. The fill honors ctx
// cooperatively: a mid-fill cancellation surfaces as the structured cancel
// error within the fills' check granularity.
func runAttempt(ctx context.Context, in *pcmax.Instance, order []int, k int, T pcmax.Time, opts Options, pool *solvePool) (attemptResult, error) {
	sp, err := newSplit(in, order, k, T)
	if err != nil {
		return attemptResult{}, err
	}
	if opts.Sparsify {
		sp.group(opts.Epsilon)
	}
	if len(sp.sizes) == 0 {
		return attemptResult{sp: sp, feasible: true}, nil // no long jobs
	}
	var tbl *dp.Table
	if opts.Sparsify {
		tbl, err = dp.NewSparse(sp.sizes, sp.counts, T, opts.MaxTableEntries, 0, opts.Cache, conf.DefaultSparseOptions(k))
	} else {
		tbl, err = dp.NewCached(sp.sizes, sp.counts, T, opts.MaxTableEntries, 0, opts.Cache)
	}
	if err != nil {
		return attemptResult{}, err
	}
	t0 := time.Now()
	switch {
	case !opts.PaperFaithful || opts.Sparsify:
		err = tbl.FillAutoCtx(ctx, pool.forSlabs(tbl))
	case pool.workers > 1:
		err = tbl.FillParallelCtx(ctx, pool.get())
	default:
		err = tbl.FillRecursiveCtx(ctx)
	}
	fill := time.Since(t0)
	if err != nil {
		return attemptResult{fill: fill}, err
	}
	opt, err := tbl.OptValue()
	if err != nil {
		return attemptResult{}, err
	}
	return attemptResult{sp: sp, tbl: tbl, feasible: opt <= in.M, fill: fill, auto: tbl.AutoStats}, nil
}

// sparseFaithfulFallback transparently re-solves the instance with the
// faithful pipeline after a sparse run failed verification (certification,
// the quality gate, or outright over-pruned infeasibility at the converged
// target). The returned stats are the faithful solve's, flagged with
// SparseFallback and carrying the abandoned sparse attempt's enumeration
// counts and fill time.
func sparseFaithfulFallback(ctx context.Context, in *pcmax.Instance, order []int, k int, opts Options, stats *Stats) (*pcmax.Schedule, *Stats, error) {
	fopts := opts
	fopts.Sparsify = false
	fsched, fstats, ferr := solve(ctx, in, order, k, fopts)
	if fstats != nil {
		fstats.SparseFallback = true
		fstats.ConfigsEnumerated = stats.ConfigsEnumerated
		fstats.ConfigsAfterSparsification = stats.ConfigsAfterSparsification
		fstats.FillTime += stats.FillTime
	}
	return fsched, fstats, ferr
}

// sparseVerify re-establishes the (1+eps) guarantee after a sparse solve
// converged at T and built sched. Two independent checks:
//
//   - certification that T <= OPT: trivially true when T is the initial
//     lower bracket; otherwise one faithful DP at T-1 decides it — faithful
//     infeasibility at T-1 proves OPT > T-1 (rounded-DOWN long jobs needing
//     more than m machines within T-1 means the originals do too), while
//     faithful feasibility means the sparse bisection over-pruned its way
//     past targets the faithful pipeline can meet, and the solve must fall
//     back. When the verification table exceeds the entry budget — sparse
//     mode solves instances the faithful enumeration cannot — the result is
//     kept but flagged uncertified (Stats.SparseCertified stays false).
//   - a quality gate on the measured construction: makespan <= (1+eps)T.
//     Together with T <= OPT this yields makespan <= (1+eps)OPT, the same
//     guarantee grade as the faithful pipeline; grouping's worst-case
//     under-estimation can exceed the gate, so a violation triggers the
//     faithful fallback rather than a silently weaker schedule.
//
// Returns whether the caller must fall back to a faithful re-solve. Only
// cancellation-grade errors are returned.
func sparseVerify(ctx context.Context, in *pcmax.Instance, order []int, k int, T pcmax.Time, sched *pcmax.Schedule, opts Options, stats *Stats, pool *solvePool) (fallback bool, err error) {
	certified := T <= stats.LB0
	if !certified {
		fopts := opts
		fopts.Sparsify = false
		res, aerr := runAttempt(ctx, in, order, k, T-1, fopts, pool)
		switch {
		case errors.Is(aerr, dp.ErrTableTooLarge):
			// Faithful verification doesn't fit; keep the sparse result,
			// uncertified.
		case aerr != nil:
			return false, aerr
		default:
			stats.FillTime += res.fill
			if res.tbl != nil {
				stats.TotalEntriesFilled += res.tbl.Sigma
			}
			if res.feasible {
				return true, nil
			}
			certified = true
		}
	}
	stats.SparseCertified = certified
	if float64(sched.Makespan(in)) > (1+opts.Epsilon)*float64(T)+1e-9 {
		return true, nil
	}
	return false, nil
}
