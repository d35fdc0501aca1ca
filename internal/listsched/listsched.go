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
// fully deterministic.
package listsched

import "repro/pcmax"

// machine is one heap slot: a machine's load and its index.
type machine struct {
	load pcmax.Time
	idx  int
}

// before orders heap slots by (load, index). Indices are distinct, so the
// order is total and the least-loaded, lowest-index machine is unique.
func (a machine) before(b machine) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	return a.idx < b.idx
}

// machineHeap is a binary min-heap of machines keyed by (load, index), one
// slot per machine in a single slice.
type machineHeap []machine

// newMachineHeap returns m empty machines in index order. Callers add
// existing loads with h[i].load += t and then call init.
func newMachineHeap(m int) machineHeap {
	h := make(machineHeap, m)
	for i := range h {
		h[i].idx = i
	}
	return h
}

// init establishes the heap order: sift down from the last internal node.
func (h machineHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts slot i toward the leaves, moving smaller children up into the
// hole instead of swapping at every level.
func (h machineHeap) down(i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// assign places job time t on the least-loaded machine and returns its index.
func (h machineHeap) assign(t pcmax.Time) int {
	mi := h[0].idx
	h[0].load += t
	h.down(0)
	return mi
}

// max returns the largest machine load.
func (h machineHeap) max() pcmax.Time {
	var ms pcmax.Time
	for _, s := range h {
		if s.load > ms {
			ms = s.load
		}
	}
	return ms
}

// AssignGreedy appends the jobs listed in order (indices into in.Times) to
// the schedule, each on the currently least-loaded machine, starting from the
// machine loads implied by the schedule's existing assignments. This is the
// primitive shared by LS, LPT and the PTAS short-job phase (paper Lines
// 41-51, which extend the long-job schedule).
func AssignGreedy(in *pcmax.Instance, sched *pcmax.Schedule, order []int) {
	h := newMachineHeap(sched.M)
	for j, mi := range sched.Assignment {
		if mi >= 0 && mi < sched.M && j < len(in.Times) {
			h[mi].load += in.Times[j]
		}
	}
	h.init()
	for _, j := range order {
		sched.Assignment[j] = h.assign(in.Times[j])
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
