// Package multifit implements the MultiFit (MF) algorithm of Coffman, Garey
// and Johnson, referenced in the paper's related work: P||Cmax is viewed as
// bin packing with the makespan as the bin capacity, and the smallest
// capacity for which first-fit-decreasing needs at most m bins is found by
// binary search.
//
// The classical formulation runs k bisection iterations over real-valued
// capacities, giving a makespan of at most (1.22 + 2^-k) OPT. Processing
// times here are integers, so the capacity search runs to full convergence,
// which dominates any fixed k.
package multifit

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/binpack"
	"repro/internal/cancel"
	"repro/pcmax"
)

// Solve runs MultiFit to convergence and returns the schedule built by FFD
// at the smallest capacity it found feasible. ctx is checked between
// capacity probes (one probe is a single O(n log n) packing, so the abort
// latency is one packing pass); a cancellation surfaces as the structured
// cancel error with no schedule.
func Solve(ctx context.Context, in *pcmax.Instance) (*pcmax.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sum := in.TotalTime()
	m64 := pcmax.Time(in.M)
	// Classical MultiFit bounds: CL = max(sum/m, max t) is an optimal
	// makespan lower bound; CU = max(2*sum/m, max t) is always FFD-feasible.
	lo := (sum + m64 - 1) / m64
	if mx := in.MaxTime(); mx > lo {
		lo = mx
	}
	hi := 2 * ((sum + m64 - 1) / m64)
	if mx := in.MaxTime(); mx > hi {
		hi = mx
	}
	if hi < lo {
		hi = lo
	}
	for lo < hi {
		if err := cancel.Check(ctx); err != nil {
			return nil, err
		}
		c := lo + (hi-lo)/2
		res, err := binpack.FirstFitDecreasing(in.Times, c)
		switch {
		case err == nil && res.Bins <= in.M:
			hi = c
		case err == nil || errors.Is(err, binpack.ErrItemTooLarge):
			lo = c + 1
		default:
			return nil, err
		}
	}
	res, err := binpack.FirstFitDecreasing(in.Times, hi)
	if err != nil {
		return nil, err
	}
	if res.Bins > in.M {
		// Cannot happen: hi is maintained FFD-feasible. Guard anyway so a
		// future regression surfaces as an error, not a corrupt schedule.
		return nil, fmt.Errorf("multifit: internal error, %d bins at capacity %d exceed m=%d", res.Bins, hi, in.M)
	}
	sched := pcmax.NewSchedule(in.M, in.N())
	copy(sched.Assignment, res.Assign)
	return sched, nil
}
