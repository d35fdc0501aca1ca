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
// relaxes each configuration of a faithful set only where no remaining job
// can join it or upgrade it (its pins, ALGORITHM.md section 7), which is
// exact only when every row c comes before every row c + e_j and every row
// c - e_j + e_a with j < a that its pins allow. The scan set's rows are
// grouped by phase and, inside a phase, ordered by Jobs and within equal
// Jobs in reverse enumeration order (lex-descending), which keeps both: an
// added job never empties a class, a pinned swap never empties an earlier
// phase class, and c - e_j + e_a has c's Jobs and is lex-smaller. A sparse
// set pins nothing and leaves its configurations of at most two jobs out of
// its rows and its plan: the fill writes their share of the table in closed
// form (pairs.go).

import (
	"repro/internal/conf"
	"repro/pcmax"
)

// The plan's two thresholds. They are variables only so that tests can zero
// them (forcePlans) and reach the phased kernel on small tables.
var (
	// planMinWork is the fill work, the relaxations of the configurations'
	// pinned boxes before the phase rule, from which a configuration set
	// gets a slab-phase plan.
	// A smaller table keeps the class order and fills on the calling
	// goroutine: the first pool round of a fill pays a cross-core wake,
	// which a smaller fill cannot repay.
	planMinWork int64 = 1 << 16
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
	// least: order[q] is the class at position q, and pos is its inverse,
	// pos[order[q]] = q. Both are the identity when the set has no plan.
	order, pos []int64
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
	buf := make([]int64, 6*d)
	lay := layout{
		stride:  buf[:d:d],
		order:   buf[d : 2*d : 2*d],
		pos:     buf[2*d : 3*d : 3*d],
		pstride: buf[3*d : 4*d : 4*d],
		pcount:  buf[4*d : 5*d : 5*d],
		ends:    buf[5*d : 5*d],
	}
	for q := range lay.order {
		lay.order[q] = int64(q)
	}
	lay.setStrides(counts)
	return lay
}

// setStrides derives the row-major strides of the layout's class order (the
// last class in order has stride 1), the classes' positions and the
// per-position strides and counts.
func (lay *layout) setStrides(counts []int) {
	s := int64(1)
	for q := len(lay.order) - 1; q >= 0; q-- {
		c := lay.order[q]
		lay.stride[c], lay.pos[c] = s, int64(q)
		lay.pstride[q], lay.pcount[q] = s, int64(counts[c])
		s *= int64(counts[c]) + 1
	}
}

// pins gives each configuration c of a faithful set the classes it pins,
// those of which no remaining job can join c or upgrade it. c pins class a
// when a job of class a fits in its slack T - weight(c), so that it could
// be added, or in its slack plus the size s_j of a job of a smaller class
// j < a that c holds, so that it could replace that job one for one. The
// one exception is c's last job of a phase class of an earlier phase than
// c's: swapping it out would move the configuration into that earlier
// phase, before c in row order. The production fill relaxes c only at
// entries v with v_a = c_a for every pinned class a (ALGORITHM.md section
// 7). The zero value, which a sparse set gets, pins nothing: a sparse set
// is not closed under removing or adding a job, so the exchange argument
// behind the pins fails for it.
type pins struct {
	sizes []pcmax.Time
	T     pcmax.Time
}

// pinWalk answers, for one configuration and its classes taken in
// ascending order, which of them it pins (sizes and c.Weight in the same
// units). reach bounds the sizes it pins: its slack plus the size of the
// largest job it may swap out among the classes walked so far, which is the
// last such class, sizes being ascending.
type pinWalk struct {
	sizes        []pcmax.Time
	slack, reach pcmax.Time
}

// walk starts c's pin walk at class 0.
func (p pins) walk(c *conf.Config) pinWalk {
	s := p.T - c.Weight
	return pinWalk{sizes: p.sizes, slack: s, reach: s}
}

// next reports whether the configuration pins class a, the walk's next
// class, of which it holds held jobs. early reports whether a is a phase
// class of an earlier phase than the configuration's, whose last job it may
// not swap out; the plan's estimate, made before the phases exist, passes
// false.
func (w *pinWalk) next(a int, held int32, early bool) bool {
	if a >= len(w.sizes) {
		return false
	}
	pinned := w.sizes[a] <= w.reach
	if held > 1 || held == 1 && !early {
		w.reach = w.slack + w.sizes[a]
	}
	return pinned
}

// box returns the number of entries the production fill relaxes c at over
// classes with the given counts, before the phase rule: its pinned box, the
// product over the classes it does not pin of n_i - c_i + 1.
func (p pins) box(c *conf.Config, counts []int) int64 {
	w := int64(1)
	pw := p.walk(c)
	for i, n := range counts {
		if !pw.next(i, c.Counts[i], false) {
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
// configuration's work is its pinned box before the phase rule, the entries
// the production fill relaxes it at; a configuration pinned on class a
// relaxes only the slab v_a = 0, so it joins a's phase without adding to its
// saving. The phase classes take the most significant positions in phase
// order, the other classes follow in class order, and the strides are
// rewritten for the new order (the caller rewrites the Offsets, see offset).
// plan returns each configuration's phase, len(lay.ends) standing for the
// tail.
func (lay *layout) plan(configs []conf.Config, counts []int, pin pins) []int64 {
	n, d := len(configs), len(counts)
	scratch := make([]int64, 2*n+d)
	work, phase, save := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for ci := range configs {
		work[ci], phase[ci] = pin.box(&configs[ci], counts), -1
	}
	var phases int64
	for {
		// save[a] sums the work of the still unassigned configurations
		// that leave class a empty and do not pin it, and is -1 when none
		// leaves it empty. A picked class is not picked again: every
		// configuration leaving it empty already has a phase.
		for a := range save {
			save[a] = -1
		}
		for ci := range configs {
			if phase[ci] >= 0 {
				continue
			}
			c := &configs[ci]
			pw := pin.walk(c)
			for a, x := range c.Counts {
				if pinned := pw.next(a, x, false); x == 0 {
					save[a] = max(save[a], 0)
					if !pinned {
						save[a] += work[ci]
					}
				}
			}
		}
		best, bestSave := -1, 0.0
		for a, w := range save {
			if w < 0 {
				continue
			}
			r := int64(counts[a]) + 1
			if s := float64(w) * float64(r/2) / float64(r); best < 0 || s > bestSave {
				best, bestSave = a, s
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
	for ci := range phase {
		if phase[ci] < 0 {
			phase[ci] = phases
		}
	}
	lay.ends = lay.ends[:phases]
	return phase
}

// offset returns the table displacement of a configuration with the given
// class counts in the layout.
func (lay *layout) offset(counts []int32) int64 {
	var off int64
	for i, c := range counts {
		off += int64(c) * lay.stride[i]
	}
	return off
}

// scanSet is the flat view of a configuration set that the production
// kernel walks: the configurations structure-of-arrays, so the kernel reads
// one contiguous counts block instead of chasing a heap slice per Config.
// Row i of counts spans [i*d, (i+1)*d); its columns are in position order,
// and a position the row pins (see pins) holds ^c_j, a negative value, so
// the pins cost no memory of their own. offsets holds each row's table
// displacement. The rows are every configuration of a faithful set; a
// sparse set's rows are its configurations of three or more jobs, and pairs
// holds the closed form of its singleton-and-pair pool (pairs.go). A
// scanSet is immutable once built and shared between the tables of its
// cache entry and their workers.
type scanSet struct {
	d, n    int
	counts  []int32
	offsets []int64
	pairs   pairPool
}

// newScanSet flattens configs (Jobs-sorted, in enumeration order within
// equal Jobs) into the scanSet of the production kernel, marking each row's
// pins under the phase rule. The rows are grouped by phase (the tail last; a
// nil phase puts every row in the tail), and each phase's end row is
// recorded in lay.ends. Inside a phase the rows keep the Jobs order, and
// within equal Jobs a pinning set's rows run in reverse enumeration order,
// lex-descending, so every row comes before the swaps its pins allow; a
// sparse set pins nothing and keeps the enumeration order. With pairs, the
// configs leave out the set's singleton-and-pair pool, and the set carries
// its closed form over classes of the given sizes under T, which shares the
// offsets' allocation.
func newScanSet(configs []conf.Config, sizes []pcmax.Time, T pcmax.Time, pairs bool, phase []int64, lay *layout, pin pins) *scanSet {
	d, n := len(sizes), len(configs)
	words := n
	if pairs {
		words += 4 * d
	}
	buf := make([]int64, words)
	s := &scanSet{d: d, n: n, counts: make([]int32, n*d), offsets: buf[:n:n]}
	if pairs {
		s.pairs = newPairPool(sizes, T, lay, buf[n:]) // not nil, even at d = 0
	}
	rev := len(pin.sizes) > 0
	row := 0
	for k := int64(0); k <= int64(len(lay.ends)); k++ {
		for g0 := 0; g0 < n; {
			g1 := g0 + 1
			for g1 < n && configs[g1].Jobs == configs[g0].Jobs {
				g1++
			}
			for i := g0; i < g1; i++ {
				ci := i
				if rev {
					ci = g0 + g1 - 1 - i
				}
				if phase != nil && phase[ci] != k {
					continue
				}
				c := &configs[ci]
				r := s.counts[row*d : row*d+d]
				pw := pin.walk(c)
				for a, x := range c.Counts {
					q := lay.pos[a]
					if pw.next(a, x, q < k) {
						x = ^x
					}
					r[q] = x
				}
				s.offsets[row] = c.Offset
				row++
			}
			g0 = g1
		}
		if k < int64(len(lay.ends)) {
			lay.ends[k] = int64(row)
		}
	}
	return s
}
