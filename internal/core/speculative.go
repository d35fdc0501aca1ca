package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/cancel"
	"repro/internal/dp"
	"repro/internal/par"
	"repro/pcmax"
)

// This file implements speculative bisection, an extension beyond the paper:
// instead of parallelizing within one DP fill (the paper's Parallel DP), the
// bisection search itself is parallelized by probing P target makespans
// concurrently per round, each with a sequential fill. The interval shrinks
// by a factor of about P+1 per round instead of 2, so the number of rounds
// drops from log2(range) to log_{P+1}(range). The two parallelizations are
// complementary: speculative probing wins when tables are small (fill
// parallelism has nothing to chew on) and wastes work when tables are large
// (all but one probe's fill is thrown away).
//
// Correctness does not rely on feasibility being monotone in T (rounding
// changes with T, so in principle a smaller T can be feasible while a larger
// one is not):
//
//   - an infeasible probe T proves OPT > T, because rounded-down jobs
//     needing more than m machines within T implies the original jobs do
//     too, so raising LB to T+1 keeps LB <= OPT;
//   - a feasible probe T yields a concrete schedule with makespan at most
//     (1+eps)T, so lowering UB to T keeps "UB is feasible";
//   - if a feasible probe ever lands below an infeasible one, the feasible
//     construction simply wins: the search settles on it immediately, and
//     its T is below OPT, preserving the (1+eps) guarantee.

// attemptResult carries one probe's outcome.
type attemptResult struct {
	sp       *split
	tbl      *dp.Table // nil when the probe has no long jobs
	feasible bool
	fill     time.Duration
	auto     dp.AutoStats // level routing, when the production fill ran
}

// runAttempt builds and fills the DP table for target T. The production
// fill (dp.FillAutoCtx) runs unless opts.PaperFaithful is set; then the
// paper's Parallel DP runs on the pool's workers when pool is non-nil, and
// its recursive Algorithm 2 otherwise. It touches no shared state, so
// concurrent calls with a nil pool are safe. The fill honors ctx
// cooperatively: a mid-fill cancellation surfaces as the structured cancel
// error within the fills' check granularity.
func runAttempt(ctx context.Context, in *pcmax.Instance, order []int, k int, T pcmax.Time, opts Options, pool *par.Pool) (attemptResult, error) {
	sp, err := newSplit(in, order, k, T)
	if err != nil {
		return attemptResult{}, err
	}
	if opts.Sparsify {
		sp.group(opts.groupDelta())
	}
	if len(sp.sizes) == 0 {
		return attemptResult{sp: sp, feasible: true}, nil // no long jobs
	}
	var tbl *dp.Table
	if opts.Sparsify {
		tbl, err = dp.NewSparse(sp.sizes, sp.counts, T, opts.MaxTableEntries, opts.MaxConfigs, opts.Cache, opts.sparseOptions(k))
	} else {
		tbl, err = dp.NewCached(sp.sizes, sp.counts, T, opts.MaxTableEntries, opts.MaxConfigs, opts.Cache)
	}
	if err != nil {
		return attemptResult{}, err
	}
	tbl.PerEntryEnum = opts.PaperFaithful
	t0 := time.Now()
	switch {
	case !opts.PaperFaithful:
		err = tbl.FillAutoCtx(ctx, nil)
	case pool != nil:
		err = tbl.FillParallelCtx(ctx, pool)
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

// speculativeBisection narrows [lbT, ubT] with opts.SpeculativeProbes
// concurrent probes per round and returns the final split/table at the
// converged target (which it also returns). The caller re-attempts the
// converged T itself when the returned split does not match.
func speculativeBisection(ctx context.Context, in *pcmax.Instance, order []int, k int, lbT, ubT pcmax.Time, opts Options, stats *Stats) (*split, *dp.Table, pcmax.Time, error) {
	probes := opts.SpeculativeProbes
	var (
		finalSplit *split
		finalTable *dp.Table
	)
	for lbT < ubT {
		if err := cancel.Check(ctx); err != nil {
			return nil, nil, 0, err
		}
		stats.Iterations++
		targets := probeTargets(lbT, ubT, probes)
		results := make([]attemptResult, len(targets))
		errs := make([]error, len(targets))
		var wg sync.WaitGroup
		wg.Add(len(targets))
		for i, T := range targets {
			go func(i int, T pcmax.Time) {
				defer wg.Done()
				results[i], errs[i] = runAttempt(ctx, in, order, k, T, opts, nil)
			}(i, T)
		}
		wg.Wait()
		for i := range errs {
			if errs[i] != nil {
				return nil, nil, 0, errs[i]
			}
			stats.FillTime += results[i].fill
			stats.Auto.LevelsInline += results[i].auto.LevelsInline
			if results[i].tbl != nil {
				stats.TotalEntriesFilled += results[i].tbl.Sigma
			}
		}
		// Narrow: the smallest feasible probe bounds UB; infeasible probes
		// below it raise LB.
		newLB, newUB := lbT, ubT
		feasibleAt := -1
		for i, T := range targets {
			if results[i].feasible {
				if T < newUB {
					newUB = T
					feasibleAt = i
				}
			}
		}
		for i, T := range targets {
			if !results[i].feasible && T+1 > newLB && T+1 <= newUB {
				newLB = T + 1
			}
		}
		if feasibleAt >= 0 {
			finalSplit, finalTable = results[feasibleAt].sp, results[feasibleAt].tbl
		}
		if newLB == lbT && newUB == ubT {
			// Every probe landed feasible above ubT-1 impossible by
			// construction; this can only mean a single repeated target.
			// Fall back to a plain halving step to guarantee progress.
			newLB = lbT + 1
		}
		lbT, ubT = newLB, newUB
	}
	return finalSplit, finalTable, lbT, nil
}

// probeTargets picks up to n distinct targets strictly inside [lo, hi),
// spaced evenly, always including the midpoint.
func probeTargets(lo, hi pcmax.Time, n int) []pcmax.Time {
	width := hi - lo
	seen := make(map[pcmax.Time]bool, n)
	var out []pcmax.Time
	add := func(t pcmax.Time) {
		if t >= lo && t < hi && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	add(lo + width/2)
	for i := 1; i <= n; i++ {
		add(lo + width*pcmax.Time(i)/pcmax.Time(n+1))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
