package listsched

import (
	"cmp"
	"slices"

	"repro/pcmax"
)

// Repair incrementally rebuilds a schedule after an instance mutation: keep
// maps every job of in to the machine it kept from the previous solution
// (0..M-1) or -1 for jobs that need (re)placement — added jobs, or jobs
// whose previous machine no longer exists. Kept jobs stay where they were;
// the unplaced ones are appended in LPT order (non-increasing time, ties by
// index) onto the least-loaded machines, exactly the greedy primitive the
// PTAS short-job phase uses.
//
// The repaired makespan is a valid upper bound for warm-starting a
// bisection, and when the delta is small it is frequently already within the
// (1+eps) certificate of the updated lower bound — the caller decides by
// comparing against its bound (see solver.Session). The returned schedule is
// always complete and valid; Repair never returns nil. keep normally has
// length in.N(): entries outside [0, M) are treated as -1, jobs past the end
// of a shorter keep are placed like added jobs, and entries past in.N() are
// ignored. keep itself is not modified.
func Repair(in *pcmax.Instance, keep []int) *pcmax.Schedule {
	sched := pcmax.NewSchedule(in.M, in.N())
	copy(sched.Assignment, keep)
	RepairInPlace(in, sched.Assignment)
	return sched
}

// RepairInPlace is Repair on an assignment the caller owns: assign holds one
// entry per job of in, entries in [0, M) stay, and every other job is placed
// by the same LPT-ordered greedy pass, its entry overwritten with the machine
// it lands on. It returns the repaired makespan (the largest machine load),
// so the caller needs no rescan, and allocates only the machine tree and the
// list of unplaced jobs. Unlike Repair, assign must hold exactly in.N()
// entries.
func RepairInPlace(in *pcmax.Instance, assign []int) pcmax.Time {
	t := newTourney(in.M)
	var buf [8]int
	loose := buf[:0]
	for j, mi := range assign {
		if mi >= 0 && mi < in.M {
			t.load[mi] += in.Times[j]
		} else {
			loose = append(loose, j)
		}
	}
	if len(loose) == 0 {
		return t.max()
	}
	slices.SortFunc(loose, func(a, b int) int {
		if c := cmp.Compare(in.Times[b], in.Times[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	t.build()
	for _, j := range loose {
		assign[j] = t.place(in.Times[j])
	}
	return t.max()
}
