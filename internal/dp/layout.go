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
// order and Reconstruct's choices are those of the class order, and every
// table is bit-identical to the class-order fill. The production fill
// relaxes each configuration of a faithful set only where it is maximal
// (its pins, ALGORITHM.md section 7), which is exact only when every row c
// comes before every row c + e_j; a phase-grouped, Jobs-ascending row order
// keeps that, since a sub-configuration has no later first empty phase
// class and fewer jobs.

import (
	"repro/internal/conf"
	"repro/pcmax"
)

// The plan's two thresholds. They are variables only so that tests can zero
// them (forcePlans) and reach the phased kernel on small tables.
var (
	// planMinWork is the fill work, the relaxations of the configurations'
	// pinned boxes, from which a configuration set gets a slab-phase plan.
	// A smaller table keeps the class order and fills on the calling
	// goroutine: the first pool round of a fill pays a cross-core wake,
	// which a smaller fill cannot repay.
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

// pins gives each configuration of a faithful set its fit(c): the number of
// classes whose size is at most c's slack T - weight(c). Sizes ascend, so
// these are the classes 0..fit(c)-1, and a job of any of them still fits on
// a machine configured as c. The production fill relaxes c only at entries
// v with v_j = c_j for every such class, where c is maximal (ALGORITHM.md
// section 7). The zero value, which a sparse set gets, pins nothing: a
// sparse set is not closed under removing a job, so the exchange argument
// behind the pins fails for it.
type pins struct {
	sizes []pcmax.Time
	T     pcmax.Time
}

// pinned reports whether c pins class a, that is whether a < fit(c): a
// job of class a fits in c's slack (sizes and c.Weight in the same units).
func (p pins) pinned(c *conf.Config, a int) bool {
	return a < len(p.sizes) && p.sizes[a] <= p.T-c.Weight
}

// box returns the number of entries the production fill relaxes c at over
// classes with the given counts: its pinned box, the product over the
// classes it does not pin of n_i - c_i + 1.
func (p pins) box(c *conf.Config, counts []int) int64 {
	w := int64(1)
	for i, n := range counts {
		if !p.pinned(c, i) {
			w *= int64(n) - int64(c.Counts[i]) + 1
		}
	}
	return w
}

// plan computes the slab-phase plan of configs (Jobs-sorted, with offsets in
// the class order) over classes with the given counts. Greedily, phase k
// slabs the class whose still unassigned configurations leaving it empty
// save the most 2-worker time: with r = n_a+1 equal slabs, a phase of work W
// takes ceil(r/2)/r of W on two workers, saving floor(r/2)/r of it. A
// configuration's work is its pinned box, the entries the production fill
// relaxes it at; a configuration pinned on class a relaxes only the slab
// v_a = 0, so it joins a's phase without adding to its saving. The phase
// classes take the most significant positions in phase order, the other
// classes follow in class order, and the strides and every configuration's
// Offset are rewritten for the new order. plan returns each configuration's
// phase, len(lay.ends) standing for the tail.
func (lay *layout) plan(configs []conf.Config, counts []int, pin pins) []int64 {
	n, d := len(configs), len(counts)
	scratch := make([]int64, 2*n)
	work, phase := scratch[:n], scratch[n:]
	for ci := range configs {
		work[ci], phase[ci] = pin.box(&configs[ci], counts), -1
	}
	var phases int64
	for {
		best, bestSave := -1, 0.0
		for a := 0; a < d; a++ {
			// A picked class is not picked again: every configuration
			// leaving it empty already has a phase.
			var w int64
			empty := false
			for ci := range configs {
				if phase[ci] < 0 && configs[ci].Counts[a] == 0 {
					empty = true
					if !pin.pinned(&configs[ci], a) {
						w += work[ci]
					}
				}
			}
			if !empty {
				continue
			}
			r := int64(counts[a]) + 1
			if save := float64(w) * float64(r/2) / float64(r); best < 0 || save > bestSave {
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

// scanSet is the flat view of a configuration set that the production
// kernel walks: the configurations structure-of-arrays, so the kernel reads
// one contiguous counts block instead of chasing a heap slice per Config.
// Row i of counts spans [i*d, (i+1)*d); its columns are in position order,
// and a position the row pins (see pins) holds ^c_j, a negative value, so
// the pins cost no memory of their own. offsets holds each row's table
// displacement. A scanSet is immutable once built and shared between the
// tables of its cache entry and their workers.
type scanSet struct {
	d, n    int
	counts  []int32
	offsets []int64
}

// newScanSet flattens configs into the scanSet of the production kernel,
// marking each row's pins. The rows are grouped by phase (stable within a
// phase, the tail last; a nil phase puts every row in the tail), and each
// phase's end row is recorded in lay.ends.
func newScanSet(configs []conf.Config, d int, phase []int64, lay *layout, pin pins) *scanSet {
	n := len(configs)
	s := &scanSet{d: d, n: n, counts: make([]int32, n*d), offsets: make([]int64, n)}
	row := 0
	for k := int64(0); k <= int64(len(lay.ends)); k++ {
		for ci := range configs {
			if phase != nil && phase[ci] != k {
				continue
			}
			for q, c := range lay.order {
				x := configs[ci].Counts[c]
				if pin.pinned(&configs[ci], int(c)) {
					x = ^x
				}
				s.counts[row*d+q] = x
			}
			s.offsets[row] = configs[ci].Offset
			row++
		}
		if k < int64(len(lay.ends)) {
			lay.ends[k] = int64(row)
		}
	}
	return s
}
