package dp

// The closed form of the singleton-and-pair pool (ALGORITHM.md section 7).
//
// A sparse set holds, among its moves, every feasible singleton and pair:
// conf.EnumerateSparse prunes no configuration of at most two jobs. Over those moves alone the
// recurrence is cardinality-two bin packing, OPT2(v), and a greedy solves
// that exactly: some optimal packing puts v's largest job L on a machine of
// its own when it fits beside no other job, and beside v's smallest job S
// otherwise (if L shares with y and S with x, then x + y <= L + y <= T, so
// {L, S} and {x, y} is a packing of the same size). Hence
//
//	OPT2(v) = 1 + OPT2(v - g(v)),  OPT2(0) = 0,
//
// with g(v) = L + S when v holds two or more jobs and they fit in T, and
// g(v) = L otherwise. The production fill writes OPT2 into the table in one
// ascending pass where resetOpt would write fillHuge, and the sweep then
// relaxes only the set's configurations of three or more jobs, once each:
// a set that pins nothing gets the exact shortest distances from any start
// that is exact over a subset of its moves, in any row order. So every Opt
// entry is the one a sweep of the whole set leaves.

import (
	"math/bits"

	"repro/pcmax"
)

// pairPool is the closed form of a sparse set's singleton-and-pair pool,
// whose rows the set's scan view leaves out; it is nil on a faithful set,
// whose rows include every configuration. The classes that hold a job
// (count above 0) take one bit each of a vector's class mask, by rank in
// ascending size order; there are at most 62 of them, since each at least
// doubles sigma. Its 4·d words
// hold, in parts' order, the mask bit of the class at each position (0 for
// a class of count 0), then by rank the class's stride, its position, and
// fit, the largest rank whose size fits beside its size within T (-1 when
// none does; sizes ascend, so the fitting ranks are 0..fit).
type pairPool []int64

// newPairPool returns the closed form of the pool of classes with the given
// sizes under T, in layout lay (its final strides), in buf's 4·d words.
func newPairPool(sizes []pcmax.Time, T pcmax.Time, lay *layout, buf []int64) pairPool {
	p := pairPool(buf[:4*len(sizes)])
	bit, stride, pos, fit := p.parts()
	r := 0
	for c, s := range sizes {
		q := lay.pos[c]
		if lay.pcount[q] == 0 {
			continue
		}
		bit[q] = 1 << r
		stride[r], pos[r], fit[r] = lay.pstride[q], q, -1
		for c2, s2 := range sizes {
			if lay.pcount[lay.pos[c2]] > 0 && s+s2 <= T {
				fit[r]++
			}
		}
		r++
	}
	return p
}

// parts returns the pool's mask bits by position and its strides,
// positions and fits by rank.
func (p pairPool) parts() (bit, stride, pos, fit []int64) {
	d := len(p) / 4
	return p[:d:d], p[d : 2*d : 2*d], p[2*d : 3*d : 3*d], p[3*d:]
}

// pairStep returns the offset of g(v) for a vector v whose classes with a
// job form mask (non-zero): its largest class, with its smallest when they
// fit, where many reports whether v holds more than one job (a mask of one
// class and many false is a single job).
func pairStep(stride, fit []int64, mask uint64, many bool) int64 {
	hi := bits.Len64(mask) - 1
	lo := bits.TrailingZeros64(mask)
	off := stride[hi]
	if many && int64(lo) <= fit[hi] {
		off += stride[lo]
	}
	return off
}

// pairPass starts the fill of a set with a pairPool: it writes OPT2(v) into
// every entry, on worker sw's odometer scratch. The table's indices run in
// the odometer order of the positions with a job class, the least
// significant of which, last, has stride 1, so the pass visits the entries
// in ascending order as rows: one odometer point over the positions before
// last, and x = 0..n_last along it. Along a row the classes v holds are the
// same for every x >= 1, and so is g(v): after the entry x = 0, a row is one
// run copy Opt[i] = Opt[i-off] + 1, whose source may overlap it (pairs of
// the class at last chain inside the run of the row where v holds nothing
// else). It records in f.written the entries it wrote, every entry of the
// table when it completes. A cancelable fill polls every fillCheckEvery
// entries; pairPass returns false when the fill was stopped.
func (f *slabFill) pairPass(sw *slabWorker) bool {
	t := f.t
	bit, stride, pos, fit := t.set.pairs.parts()
	opt, count := t.Opt, t.lay.pcount
	opt[0] = 0
	last := len(count) - 1
	for last >= 0 && count[last] == 0 {
		last--
	}
	if last < 0 {
		f.written = t.Sigma
		return true // no job: the table is the zero vector
	}
	n, lastBit := count[last], uint64(bit[last])
	w := sw.odo[:last] // the odometer over the positions before last
	clear(w)
	var mask uint64 // the classes holding a job among those positions
	done := f.done
	next := int64(fillCheckEvery) // the entry at which the pass polls
	for base := int64(0); ; base += n + 1 {
		x := base + 1
		if mask == 0 {
			opt[1] = 1 // the row of v = x·e_last: one job alone, then pairs
			x = 2
		} else {
			many := mask&(mask-1) != 0 || w[pos[bits.TrailingZeros64(mask)]] > 1
			opt[base] = opt[base-pairStep(stride, fit, mask, many)] + 1
		}
		off := pairStep(stride, fit, mask|lastBit, true)
		for end := base + n + 1; x < end; {
			if done != nil && x >= next {
				if f.stopped() {
					f.written = x
					return false
				}
				next = x + fillCheckEvery
			}
			hi := end
			if done != nil {
				hi = min(end, next)
			}
			pairRun(opt, x, hi, off)
			x = hi
		}
		q := last - 1
		for ; q >= 0; q-- {
			b := uint64(bit[q])
			if int64(w[q]) < count[q] {
				w[q]++
				mask |= b
				break
			}
			w[q] = 0
			mask &^= b
		}
		if q < 0 {
			f.written = t.Sigma
			return true
		}
	}
}

// pairRun is the closed form's run copy: Opt[i] = Opt[i-off] + 1 for i in
// [lo, hi), in ascending i, so a source overlapping its run (off < hi-lo)
// reads entries the run already wrote.
//
// Hot path: one call per row of the closed-form pass.
func pairRun(opt []int32, lo, hi, off int64) {
	// Neither guard is ever taken: the pass keeps the run and its source
	// inside Opt. They let the compiler drop the bounds checks.
	if off <= 0 || lo < off || hi < lo || hi > int64(len(opt)) {
		return
	}
	dst := opt[lo:hi]
	src := opt[lo-off : hi-off]
	if len(src) != len(dst) {
		return
	}
	for i := range dst {
		dst[i] = src[i] + 1
	}
}
