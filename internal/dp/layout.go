package dp

// The index layout of a configuration set and the slab-phase plan of the
// production fill (ALGORITHM.md section 7).
//
// A configuration c with c_a = 0 never moves an entry between the slabs
// v_a = x, so relaxing c over the table is the same as relaxing it over each
// slab on its own, in any slab order. The plan groups the configurations into
// phases by a class they leave empty; a phase's slabs are then mutually
// independent for every configuration in it, and each phase runs as one
// parallel round over its slabs. Storing the phase classes most significant,
// in phase order, keeps each slab a contiguous range inside every block of
// the earlier phase classes, so the runs of the config-outer kernel stay
// intact. The layout only permutes the strides: Table.Configs, their Jobs
// order and Reconstruct's choices are those of the class order, and since a
// single pass per configuration in any order yields the unique
// shortest-distance table (as in min-coin change), every table is
// bit-identical to the class-order fill.

import (
	"repro/internal/conf"
)

// The plan's two thresholds. They are variables only so that tests can zero
// them (forcePlans) and reach the phased kernel on small tables.
var (
	// planMinWork is the fill work, sigma·|C|, from which a configuration
	// set gets a slab-phase plan. A smaller table keeps the class order and
	// fills on the calling goroutine: the first pool round of a fill pays a
	// cross-core wake, which a smaller fill cannot repay.
	planMinWork int64 = 1 << 18
	// phaseMinSave is the least 2-worker saving, in relaxations, that earns
	// a phase its own pool round: a round wakes the parked workers, so the
	// configurations of a smaller phase join the tail on the caller.
	phaseMinSave float64 = 1 << 15
)

// layout is the index layout of one configuration set: the strides of
// Table.Stride, the class order they induce, the strides and counts in that
// order, and the phase plan. It is a function of the Cache key, so it is
// built and cached with the set, and one allocation backs all of its slices;
// every table of the set aliases them.
type layout struct {
	// stride holds each class's mixed-radix stride.
	stride []int64
	// order lists the classes from the most significant stride to the
	// least: order[q] is the class at position q. It is the identity when
	// the set has no plan.
	order []int64
	// pstride and pcount hold the stride and the count n of the class at
	// each position: the production kernel walks positions, and the set's
	// columns are in position order too.
	pstride, pcount []int64
	// ends delimits the phases among the set's rows: phase k holds rows
	// [ends[k-1], ends[k]) (from row 0 for k = 0), none of which uses the
	// class at position k. The rows from the last end on use every phase
	// class and form the tail. ends is empty when the set has no plan.
	ends []int64
}

// newLayout returns the class-order layout of d classes with the given
// counts, with room for a plan of up to d phases in the same allocation.
func newLayout(counts []int) layout {
	d := len(counts)
	buf := make([]int64, 5*d)
	lay := layout{
		stride:  buf[:d:d],
		order:   buf[d : 2*d : 2*d],
		pstride: buf[2*d : 3*d : 3*d],
		pcount:  buf[3*d : 4*d : 4*d],
		ends:    buf[4*d : 4*d],
	}
	for q := range lay.order {
		lay.order[q] = int64(q)
	}
	lay.setStrides(counts)
	return lay
}

// setStrides derives the row-major strides of the layout's class order (the
// last class in order has stride 1) and the per-position strides and counts.
func (lay *layout) setStrides(counts []int) {
	s := int64(1)
	for q := len(lay.order) - 1; q >= 0; q-- {
		c := lay.order[q]
		lay.stride[c] = s
		lay.pstride[q], lay.pcount[q] = s, int64(counts[c])
		s *= int64(counts[c]) + 1
	}
}

// plan computes the slab-phase plan of configs (Jobs-sorted, with offsets in
// the class order) over classes with the given counts. Greedily, phase k
// slabs the class whose still unassigned configurations leaving it empty
// save the most 2-worker time: with r = n_a+1 equal slabs, a phase of work W
// takes ceil(r/2)/r of W on two workers, saving floor(r/2)/r of it. The
// phase classes take the most significant positions in phase order, the
// other classes follow in class order, and the strides and every
// configuration's Offset are rewritten for the new order. plan returns each
// configuration's phase, len(lay.ends) standing for the tail.
func (lay *layout) plan(configs []conf.Config, counts []int) []int64 {
	n, d := len(configs), len(counts)
	scratch := make([]int64, 2*n)
	work, phase := scratch[:n], scratch[n:]
	for ci := range configs {
		w := int64(1)
		for i, c := range configs[ci].Counts {
			w *= int64(counts[i]) - int64(c) + 1
		}
		work[ci], phase[ci] = w, -1
	}
	var phases int64
	for {
		best, bestSave := -1, 0.0
		for a := 0; a < d; a++ {
			// A picked class saves nothing again: every configuration
			// leaving it empty already has a phase.
			var w int64
			for ci := range configs {
				if phase[ci] < 0 && configs[ci].Counts[a] == 0 {
					w += work[ci]
				}
			}
			r := int64(counts[a]) + 1
			if save := float64(w) * float64(r/2) / float64(r); save > bestSave {
				best, bestSave = a, save
			}
		}
		if best < 0 || bestSave < phaseMinSave {
			break
		}
		for ci := range configs {
			if phase[ci] < 0 && configs[ci].Counts[best] == 0 {
				phase[ci] = phases
			}
		}
		lay.order[phases] = int64(best)
		phases++
	}
	q := phases
	for c := 0; c < d; c++ {
		picked := false
		for _, p := range lay.order[:phases] {
			picked = picked || p == int64(c)
		}
		if !picked {
			lay.order[q] = int64(c)
			q++
		}
	}
	lay.setStrides(counts)
	for ci := range configs {
		var off int64
		for i, c := range configs[ci].Counts {
			off += int64(c) * lay.stride[i]
		}
		configs[ci].Offset = off
		if phase[ci] < 0 {
			phase[ci] = phases
		}
	}
	lay.ends = lay.ends[:phases]
	return phase
}

// newPhasedSet flattens configs into a Set whose rows are grouped by phase
// (stable within a phase, the tail last) and whose columns are in position
// order, and records each phase's end row in lay.ends.
func newPhasedSet(configs []conf.Config, d int, phase []int64, lay *layout) *conf.Set {
	s := &conf.Set{D: d, N: len(configs), Counts: make([]int32, len(configs)*d), Offsets: make([]int64, len(configs))}
	row := 0
	for k := int64(0); k <= int64(len(lay.ends)); k++ {
		for ci := range configs {
			if phase[ci] != k {
				continue
			}
			for q, c := range lay.order {
				s.Counts[row*d+q] = configs[ci].Counts[c]
			}
			s.Offsets[row] = configs[ci].Offset
			row++
		}
		if k < int64(len(lay.ends)) {
			lay.ends[k] = int64(row)
		}
	}
	return s
}
