// Package listsched implements the classical list-scheduling algorithms for
// P||Cmax used as baselines in the paper:
//
//   - LS (Graham): scan jobs in input order, always placing the next job on
//     the machine that becomes available first. 2-approximation.
//   - LPT (Graham): LS on jobs sorted by non-increasing processing time.
//     4/3-approximation.
//
// Ties between machines with equal loads are broken toward the lowest
// machine index, exactly like the paper's Lines 45-48 which scan machines in
// index order and keep the first strict minimum. This makes both algorithms
// fully deterministic. The least-loaded machine is kept by a loser tree
// ordered by (load, index) (tourney.go), whose unique minimum is the machine
// that scan finds, so every job lands where the paper's loop puts it.
package listsched

import "repro/pcmax"

// AssignGreedy appends the jobs listed in order (indices into in.Times) to
// the schedule, each on the currently least-loaded machine, starting from the
// machine loads implied by the schedule's existing assignments. This is the
// primitive shared by LS, LPT and the PTAS short-job phase (paper Lines
// 41-51, which extend the long-job schedule).
func AssignGreedy(in *pcmax.Instance, sched *pcmax.Schedule, order []int) {
	t := newTourney(sched.M)
	for j, mi := range sched.Assignment {
		if mi >= 0 && mi < sched.M && j < len(in.Times) {
			t.load[mi] += in.Times[j]
		}
	}
	t.build()
	for _, j := range order {
		sched.Assignment[j] = t.place(in.Times[j])
	}
}

// LS runs Graham's list scheduling over the jobs in input order.
func LS(in *pcmax.Instance) *pcmax.Schedule {
	sched := pcmax.NewSchedule(in.M, in.N())
	order := make([]int, in.N())
	for j := range order {
		order[j] = j
	}
	AssignGreedy(in, sched, order)
	return sched
}

// LPT runs Graham's longest-processing-time rule: list scheduling over the
// jobs sorted by non-increasing processing time (ties by job index).
func LPT(in *pcmax.Instance) *pcmax.Schedule {
	sched := pcmax.NewSchedule(in.M, in.N())
	AssignGreedy(in, sched, in.SortedIndex())
	return sched
}
