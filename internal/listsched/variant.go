package listsched

import (
	"fmt"

	"repro/pcmax"
)

// Variant-capable list scheduling: LS and LPT generalized to release times,
// machine-dependent setup times and availability windows. The greedy keeps
// the classical priority list (input order for LS, longest-processing-time
// order for LPT) but replaces "least loaded machine" with "machine that
// completes the job earliest" under the variant semantics: a job starts no
// earlier than its release time, pays the machine's setup, and on a
// restricted machine must fit — setup included — entirely inside one
// availability window. Ties break toward the lower machine index, like the
// plain rule.
//
// On plain instances earliest completion time degenerates to least load with
// identical tie-breaking, so LSGeneral/LPTGeneral route plain instances
// through the plain code path (AssignGreedy) and return bit-identical
// schedules.

// ErrNoFit reports a job that fits no machine's availability windows at any
// time, making the instance itself infeasible for sequential placement.
var ErrNoFit = fmt.Errorf("listsched: job fits no machine availability window")

// assignVariantGreedy extends sched by the listed jobs in order, each on the
// machine that completes it earliest. It records the placement order on
// sched.Order so Makespan/Completions reproduce exactly the simulated
// timeline.
func assignVariantGreedy(in *pcmax.Instance, sched *pcmax.Schedule, order []int) error {
	free := make([]pcmax.Time, in.M)
	for _, j := range order {
		best, bestDone := -1, pcmax.Infeasible
		for mi := 0; mi < in.M; mi++ {
			est := free[mi]
			if r := in.ReleaseTime(j); r > est {
				est = r
			}
			dur := in.SetupTime(mi) + in.Times[j]
			start, ok := in.EarliestStart(mi, est, dur)
			if !ok {
				continue
			}
			if done := start + dur; done < bestDone {
				best, bestDone = mi, done
			}
		}
		if best < 0 {
			return fmt.Errorf("%w (job %d, t=%d)", ErrNoFit, j, in.Times[j])
		}
		sched.Assignment[j] = best
		free[best] = bestDone
		sched.Order = append(sched.Order, j)
	}
	return nil
}

// LSGeneral runs list scheduling in job input order on any instance variant.
// Plain instances take the plain greedy path and return exactly LS's
// schedule.
func LSGeneral(in *pcmax.Instance) (*pcmax.Schedule, error) {
	if in.Variant() == pcmax.Plain {
		return LS(in), nil
	}
	sched := pcmax.NewSchedule(in.M, in.N())
	sched.Order = make([]int, 0, in.N())
	order := make([]int, in.N())
	for j := range order {
		order[j] = j
	}
	if err := assignVariantGreedy(in, sched, order); err != nil {
		return nil, err
	}
	return sched, nil
}

// LPTGeneral runs longest-processing-time list scheduling on any instance
// variant: the priority list is the plain LPT order (non-increasing
// processing time, ties by job index), machines are chosen by earliest
// completion. Plain instances take the plain greedy path and return exactly
// LPT's schedule.
func LPTGeneral(in *pcmax.Instance) (*pcmax.Schedule, error) {
	if in.Variant() == pcmax.Plain {
		return LPT(in), nil
	}
	sched := pcmax.NewSchedule(in.M, in.N())
	sched.Order = make([]int, 0, in.N())
	if err := assignVariantGreedy(in, sched, in.SortedIndex()); err != nil {
		return nil, err
	}
	return sched, nil
}
