// Package dp implements the dynamic-programming table at the heart of the
// Hochbaum–Shmoys PTAS and its parallel variant from the paper.
//
// The table entry OPT(v), for a vector v = (v_1, ..., v_d) with
// 0 <= v_i <= n_i over the d distinct rounded long-job sizes, is the minimum
// number of machines that schedule v_i jobs of each rounded size i within the
// target makespan T. It satisfies the paper's recurrence (equation 4):
//
//	OPT(v) = 1 + min over machine configurations s <= v, weight(s) <= T
//	             of OPT(v - s),      with OPT(0) = 0.
//
// Entries are stored in mixed-radix order (the paper's one-dimensional array
// V), so idx(v) = sum_i v_i * stride_i and, for a configuration s <= v,
// idx(v-s) = idx(v) - offset(s) with no borrows. The strides are row-major
// in the class order, except on a large table whose configuration set has a
// slab-phase plan (layout.go): its phase classes take the most significant
// strides, a permutation that leaves every OPT(v) unchanged.
//
// Three fills are provided, and all of them produce the same table:
//
//   - FillAutoCtx: the production kernel, a config-outer sweep: each
//     configuration relaxes its sub-lattice as contiguous runs of the table,
//     in ascending order, and on a faithful table only the part of it where
//     no remaining job can join or upgrade the configuration. On a pool of
//     two or more workers it runs a planned table's phases as parallel
//     rounds over independent slabs; FillSequentialCtx is the same sweep on
//     the calling goroutine.
//   - FillRecursiveCtx: top-down memoized recursion starting from the last
//     entry, faithful to the paper's Algorithm 2 description ("starts from
//     the last entry of the DP-table and recursively computes the other
//     entries until it ends up at the first element").
//   - FillParallelCtx: the paper's Algorithm 3 as printed. Entries on the
//     same anti-diagonal (equal digit sum, the paper's d_i values) are
//     mutually independent; levels l = 1..n' run in sequence with a barrier,
//     and within a level P workers scan all sigma entries round-robin and
//     compute the ones on that level.
//
// The paper's two fills evaluate the recurrence entry by entry, and each
// entry re-enumerates its own configuration set C_v by depth-first search
// (Algorithm 3, Line 17). That search regenerates the faithful configuration
// set, so both fills reject an EnumSparse table (ErrSparseTable): they could
// reach an OPT through configurations the table pruned, which Reconstruct,
// walking Configs, cannot explain. The parallel fill replaces per-entry
// division loops with odometer decoding: the digit sums advance an odometer
// inside each worker chunk, and each worker's decoder advances from the last
// index it visited.
package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

// DefaultMaxEntries caps the table size (number of entries). 1<<25 entries
// occupy 128 MiB of OPT values, plus 128 MiB of digit sums in the parallel
// fill.
const DefaultMaxEntries = 1 << 25

// Typed failures.
var (
	// ErrTableTooLarge reports that prod(n_i+1) exceeds the entry budget.
	ErrTableTooLarge = errors.New("dp: DP table exceeds the entry budget")
	// ErrNotFilled reports use of results before any Fill method ran.
	ErrNotFilled = errors.New("dp: table not filled")
	// ErrInconsistent reports a corrupted table during reconstruction.
	ErrInconsistent = errors.New("dp: inconsistent table")
	// ErrSparseTable reports a paper fill (FillRecursiveCtx,
	// FillParallelCtx) asked to fill an EnumSparse table, whose pruned
	// configuration set its per-entry search cannot respect.
	ErrSparseTable = errors.New("dp: the paper's fills need a faithful table")
)

// unset marks entries not yet computed by FillRecursive.
const unset = int32(-1)

// EnumMode selects which configuration enumerator a table is built with.
type EnumMode int

const (
	// EnumFaithful lists every feasible non-zero configuration
	// (conf.Enumerate), the paper's semantics.
	EnumFaithful EnumMode = iota
	// EnumSparse applies the Jansen–Klein–Verschae-style prunes
	// (conf.EnumerateSparse): support cap plus dominance, with the
	// singleton-and-pair pool always retained.
	EnumSparse
)

func (m EnumMode) String() string {
	if m == EnumSparse {
		return "sparse"
	}
	return "faithful"
}

// Table is the DP table for one (sizes, counts, T) triple.
type Table struct {
	// Sizes holds the distinct rounded long-job sizes, strictly ascending.
	Sizes []pcmax.Time
	// Counts holds n_i, the number of long jobs of each rounded size.
	Counts []int
	// T is the target makespan (machine capacity).
	T pcmax.Time

	// Stride holds the mixed-radix strides, one per class, so that
	// idx(v) = sum_i v_i*Stride[i]. They are row-major in the class order
	// (Stride[d-1] == 1) unless the configuration set has a slab-phase plan,
	// whose classes then take the most significant strides (ALGORITHM.md
	// section 7). Shared with every table of the same cached set: read-only.
	Stride []int64
	// Sigma is the number of entries, prod(n_i + 1).
	Sigma int64
	// NPrime is the number of long jobs, sum(n_i); the table has NPrime+1
	// anti-diagonal levels.
	NPrime int
	// Configs are all feasible non-zero machine configurations, stably
	// sorted by ascending Jobs, in enumeration (lexicographic) order within
	// equal Jobs. Reconstruct relies on this order, and so do the pins of
	// the production fill, whose scan set keeps the Jobs order and walks
	// each equal-Jobs group backwards.
	Configs []conf.Config
	// Opt holds OPT(v) per entry after a Fill method ran.
	Opt []int32

	// AutoStats reports how FillAutoCtx ran the anti-diagonal levels; it is
	// meaningful only after a FillAutoCtx call (other fill variants leave it
	// untouched).
	AutoStats AutoStats

	// Mode records which enumerator built Configs.
	Mode EnumMode
	// SparseStats reports the sparsification outcome (enumerated vs
	// retained vs pruned counts); zero for EnumFaithful tables.
	SparseStats conf.SparseStats

	// set is the flat scan view of Configs the production kernel walks,
	// its rows grouped by phase, its columns in stride order and its pins
	// marked, and lay is the layout both are expressed in (shared with the
	// cache, read-only).
	set *scanSet
	lay layout

	filled bool
}

// New builds an empty table. Sizes must be strictly ascending, positive and
// at most T; counts must be non-negative and parallel to sizes. maxEntries
// <= 0 selects DefaultMaxEntries, maxConfigs <= 0 selects
// conf.DefaultMaxConfigs.
func New(sizes []pcmax.Time, counts []int, T pcmax.Time, maxEntries int64, maxConfigs int) (*Table, error) {
	return NewCached(sizes, counts, T, maxEntries, maxConfigs, nil)
}

// NewCached is New with a shared Cache: the configuration enumeration is
// reused when another table with the same canonical profile was built
// against the same cache — which is exactly what a bisection search
// produces. A nil cache disables reuse.
func NewCached(sizes []pcmax.Time, counts []int, T pcmax.Time, maxEntries int64, maxConfigs int, cache *Cache) (*Table, error) {
	return build(sizes, counts, T, maxEntries, maxConfigs, cache, EnumFaithful, conf.SparseOptions{})
}

// NewSparse is NewCached with the sparse enumerator: Configs holds only the
// configurations conf.EnumerateSparse retains under sopts, and
// Table.SparseStats reports the reduction. Index space, fill paths and
// reconstruction are those of a faithful table over the same classes (the
// strides may differ, since each set's slab-phase plan derives from its own
// configurations); only the candidate-move set shrinks, so OPT values can only grow
// and a feasible sparse table always reconstructs a valid packing. Sparse
// and faithful tables never share cached configuration sets, even for
// identical (sizes, counts, T).
func NewSparse(sizes []pcmax.Time, counts []int, T pcmax.Time, maxEntries int64, maxConfigs int, cache *Cache, sopts conf.SparseOptions) (*Table, error) {
	return build(sizes, counts, T, maxEntries, maxConfigs, cache, EnumSparse, sopts)
}

func build(sizes []pcmax.Time, counts []int, T pcmax.Time, maxEntries int64, maxConfigs int, cache *Cache, mode EnumMode, sopts conf.SparseOptions) (*Table, error) {
	if len(sizes) != len(counts) {
		return nil, fmt.Errorf("dp: %d sizes but %d counts", len(sizes), len(counts))
	}
	if T < 1 {
		return nil, fmt.Errorf("dp: target makespan T=%d < 1", T)
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("dp: size class %d has non-positive size %d", i, s)
		}
		if s > T {
			return nil, fmt.Errorf("dp: size class %d (%d) exceeds T=%d; no configuration can hold it", i, s, T)
		}
		if i > 0 && sizes[i-1] >= s {
			return nil, fmt.Errorf("dp: sizes not strictly ascending at class %d (%d >= %d)", i, sizes[i-1], s)
		}
		if counts[i] < 0 {
			return nil, fmt.Errorf("dp: size class %d has negative count %d", i, counts[i])
		}
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	d := len(sizes)
	t := &Table{
		Sizes:  append([]pcmax.Time(nil), sizes...),
		Counts: append([]int(nil), counts...),
		T:      T,
		Mode:   mode,
	}
	sigma := int64(1)
	for i := d - 1; i >= 0; i-- {
		radix := int64(counts[i]) + 1
		if radix > maxEntries || sigma > maxEntries/radix {
			return nil, fmt.Errorf("%w (needs more than the %d-entry budget)", ErrTableTooLarge, maxEntries)
		}
		sigma *= radix
		t.NPrime += counts[i]
	}
	t.Sigma = sigma
	e, err := cache.configSet(t.Sizes, t.Counts, T, sigma, maxConfigs, mode, sopts)
	if err != nil {
		return nil, err
	}
	t.Configs = e.configs
	t.set = e.set
	t.Stride, t.lay = e.lay.stride, e.lay
	t.SparseStats = e.sstats
	t.Opt = make([]int32, sigma)
	return t, nil
}

// digits decodes the entry index into the vector v, writing into dst
// (len(dst) == d) and returning it.
func (t *Table) digits(idx int64, dst []int32) []int32 {
	rem := idx
	for _, i := range t.lay.order {
		dst[i] = int32(rem / t.Stride[i])
		rem %= t.Stride[i]
	}
	return dst
}

// sumDigits returns the digit sum (anti-diagonal level) of a decoded vector.
func sumDigits(v []int32) int32 {
	var s int32
	for _, x := range v {
		s += x
	}
	return s
}

// advance adds delta >= 0 to the mixed-radix digit vector v, with carries,
// and returns the resulting change of the digit sum. The result index must
// stay inside the table. Cost is O(d) worst case but the loop exits as soon
// as the remaining delta is zero, so advancing between nearby entries only
// touches the fastest digits.
//
// Hot path: odometer advancement runs once per table entry.
func (t *Table) advance(v []int32, delta int64) int32 {
	counts, order := t.Counts, t.lay.order
	var dl int32
	for q := len(order) - 1; q >= 0 && delta > 0; q-- {
		i := order[q]
		// Never taken: order permutes the d classes of Counts and v. The
		// guard lets the compiler drop the bounds checks on counts[i] and v[i].
		if i < 0 || i >= int64(len(v)) || i >= int64(len(counts)) {
			return dl
		}
		radix := int64(counts[i]) + 1
		digit := delta % radix
		delta /= radix
		nv := int64(v[i]) + digit
		if nv >= radix {
			nv -= radix
			delta++
		}
		dl += int32(nv) - v[i]
		v[i] = int32(nv)
	}
	return dl
}

// advanceOne is the odometer increment (advance by exactly 1), returning the
// digit-sum change. Incrementing the last entry wraps to the zero vector;
// callers never advance past the end.
//
// Hot path: odometer increment runs once per table entry.
func (t *Table) advanceOne(v []int32) int32 {
	counts, order := t.Counts, t.lay.order
	var dl int32
	for q := len(order) - 1; q >= 0; q-- {
		i := order[q]
		// Never taken: order permutes the d classes of Counts and v. The
		// guard lets the compiler drop the bounds checks on counts[i] and v[i].
		if i < 0 || i >= int64(len(v)) || i >= int64(len(counts)) {
			return dl
		}
		if int(v[i]) < counts[i] {
			v[i]++
			return dl + 1
		}
		dl -= v[i]
		v[i] = 0
	}
	return dl
}

// decoder incrementally decodes ascending entry indices for one worker: the
// first index (and any backward jump) pays a full division decode, every
// later index is reached by mixed-radix advancement.
type decoder struct {
	t    *Table
	v    []int32
	last int64
}

func newDecoders(t *Table, workers int) []decoder {
	decs := make([]decoder, workers)
	for w := range decs {
		decs[w] = decoder{t: t, v: make([]int32, len(t.Stride)), last: -1}
	}
	return decs
}

func (dc *decoder) reset() { dc.last = -1 }

// at returns the digit vector of idx. Successive calls on one decoder must
// use non-decreasing indices for the incremental path to engage; a backward
// jump falls back to a full decode.
//
// Hot path: per-entry index decode on the fill loop.
func (dc *decoder) at(idx int64) []int32 {
	t := dc.t
	switch {
	case dc.last < 0 || idx < dc.last:
		t.digits(idx, dc.v)
	case idx > dc.last:
		t.advance(dc.v, idx-dc.last)
	}
	dc.last = idx
	return dc.v
}

// computeEntry evaluates the recurrence for one non-zero entry whose decoded
// digits are v by regenerating the entry's own configuration set C_v (paper
// Algorithm 3, Lines 16-24): every s with 0 < s <= v and weight(s) <= T is
// visited by depth-first search and the minimum OPT(v-s) is collected. All
// dependencies (smaller digit sums) must be final.
//
// The wavefront ordering keeps the Parallel DP race-free: every dependency
// read Opt[idx-off] targets a strictly smaller digit sum, and the fill
// separates levels with a full dispatch barrier, so each read is ordered
// after its write by the level boundary.
func (t *Table) computeEntry(idx int64, v []int32) {
	best := int32(math.MaxInt32)
	d := len(t.Sizes)
	var rec func(dim int, weight pcmax.Time, off int64, jobs int32)
	rec = func(dim int, weight pcmax.Time, off int64, jobs int32) {
		if dim == d {
			if jobs > 0 {
				if o := t.Opt[idx-off]; o < best {
					best = o
				}
			}
			return
		}
		for s := int32(0); s <= v[dim]; s++ {
			w := weight + pcmax.Time(s)*t.Sizes[dim]
			if w > t.T {
				break
			}
			rec(dim+1, w, off+int64(s)*t.Stride[dim], jobs+s)
		}
	}
	rec(0, 0, 0, 0)
	t.Opt[idx] = best + 1
}

// fillCheckEvery is the cooperative-cancellation granularity of the
// sequential fill paths: the structured cancellation error lands within this
// many entry relaxations of the context dying, so a mid-fill abort costs
// microseconds, not the rest of the fill. It is amortized over a countdown
// counter — contexts that can never be canceled (nil Done channel) skip the
// checks entirely.
const fillCheckEvery = 1 << 15

// ctxDone returns the context's done channel, or nil when the context can
// never be canceled (Background, TODO, nil), which disables the amortized
// checks on the hot paths.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// fillHuge is the transient "not yet reached" value of the config-outer
// sweep. It must survive a +1 without overflowing; it never appears in a
// finished table because every non-empty entry admits a singleton
// configuration.
const fillHuge = int32(1) << 30

// FillSequentialCtx fills the table with the production kernel on the
// calling goroutine: the loop FillAutoCtx runs without a pool. It is a loop
// interchange of the recurrence: instead of scanning the configuration list
// per entry, each configuration c relaxes its sub-lattice {v : v >= c} in
// one streaming pass,
//
//	Opt[v] = min(Opt[v], Opt[v-c] + 1),
//
// visiting entries in ascending index order so repeated uses of c chain
// within the pass. This is the unbounded min-coin-change loop interchange on
// the mixed-radix lattice: a single pass per configuration over its whole
// sub-lattice, in any order, leaves the (unique) shortest distances of the
// recurrence. On a faithful set the pass covers only the entries where no
// remaining job can join c or replace one of its smaller jobs (its pinned
// box, see pins and relaxRows), which still leaves them provided every row
// c comes before every row c + e_j and every row c - e_j + e_a its pins
// allow; the set's rows, grouped by phase when the set has a slab-phase
// plan, Jobs-ascending and lex-descending within equal Jobs, are in such an
// order (ALGORITHM.md section 7). A sparse set starts the sweep from the
// closed form of its singleton-and-pair pool, written in one ascending pass
// (pairPass), and relaxes only its configurations of three or more jobs;
// its rows pin nothing, so any row order still leaves the shortest
// distances. So the table is bit-identical to the entry-ordered fills, but
// no entry ever pays a fits check or an index decode.
//
// A cancelable ctx is polled every fillCheckEvery relaxations, and every
// fillCheckEvery entries of the closed-form pass. On cancellation the table
// is left unfilled (Opt holds partial garbage) and the structured cancel
// error is returned.
func (t *Table) FillSequentialCtx(ctx context.Context) error {
	_, err := t.fillCaller(ctx)
	return err
}

// fillCaller is FillSequentialCtx, returning the relaxations it did.
func (t *Table) fillCaller(ctx context.Context) (int64, error) {
	t.filled = false
	f := slabFill{t: t, done: ctxDone(ctx), workers: make([]slabWorker, 1)}
	sw := &f.workers[0]
	sw.odo = make([]int32, 2*t.set.d)
	if !f.start(sw) || !f.relaxRows(sw, 0, t.set.n, -1, 0, 0) {
		return 0, f.canceled(ctx)
	}
	t.filled = true
	return sw.work, nil
}

// start writes the config-outer sweep's start into the table on worker sw:
// the closed form of a sparse set's singleton-and-pair pool (pairPass), and
// resetOpt's on a faithful set. It returns false when the fill was
// stopped.
func (f *slabFill) start(sw *slabWorker) bool {
	if f.t.set.pairs != nil {
		return f.pairPass(sw)
	}
	f.t.resetOpt()
	return true
}

// resetOpt sets every entry to the config-outer sweep's start on a
// faithful set: OPT(0) = 0 and fillHuge elsewhere.
func (t *Table) resetOpt() {
	opt := t.Opt
	for i := range opt {
		opt[i] = fillHuge
	}
	opt[0] = 0
}

// slabFill is the state of one fill, shared by its workers: the table, the
// cancellation plumbing, each worker's scratch and, in the production fill,
// the phase the current pool round relaxes. The paper's fills stop and count
// their work through it too.
type slabFill struct {
	t    *Table
	done <-chan struct{}
	// stop is set by the first worker that sees done closed, so every other
	// worker stops at its next poll.
	stop    atomic.Bool
	workers []slabWorker
	// written counts the entries the closed-form pass wrote.
	written int64
	// The current phase, written by the caller before each round: rows
	// [r0, r1) of the set, over the slabs of the class at position pos,
	// cut into chunks contiguous slab ranges.
	r0, r1, pos   int
	slabs, chunks int
}

// slabWorker is one worker's part of a fill: its odometer scratch (the
// digits and limits of relaxRows, 2·d of them, or the digits of the paper's
// fills), the work it did (relaxations in the production fill, entries
// computed in the paper's fills) and the units of work since its last poll
// in the paper's fills, padded so that any two workers' counters are at
// least a cache line apart.
type slabWorker struct {
	odo   []int32
	work  int64
	since int64
	_     [40]byte
}

// work returns the work the fill's workers did.
func (f *slabFill) work() int64 {
	var n int64
	for i := range f.workers {
		n += f.workers[i].work
	}
	return n
}

// canceled returns the structured cancel error of an aborted fill, carrying
// the entries its closed-form pass wrote and the work its workers did.
func (f *slabFill) canceled(ctx context.Context) error {
	err := cancel.From(ctx)
	err.EntriesFilled = f.written + f.work()
	return err
}

// stopped is the fill's cancellation poll: it reports whether the fill was
// stopped, stopping it first when done is closed.
func (f *slabFill) stopped() bool {
	if f.stop.Load() {
		return true
	}
	select {
	case <-f.done:
		f.stop.Store(true)
		return true
	default:
		return false
	}
}

// tick is the paper's fills' cancellation poll, made by worker sw once per
// unit of work of a cancelable fill: it reports whether the fill was
// stopped, and looks at done on sw's every-th call since its last look.
func (f *slabFill) tick(sw *slabWorker, every int64) bool {
	if f.stop.Load() {
		return true
	}
	if sw.since++; sw.since < every {
		return false
	}
	sw.since = 0
	return f.stopped()
}

// relaxRows is the config-outer sweep over rows [r0, r1) of the table's
// configuration set. With p >= 0 it is restricted to the slabs
// x0 <= v < x1 of the class at position p, which none of the rows may use:
// a row c then reads and writes only inside those slabs, so workers holding
// disjoint slab ranges never touch the same entry. It runs on worker sw's
// scratch and counts its relaxations there, and returns false when the fill
// was stopped.
//
// Each row c relaxes its pinned box: the entries v >= c (within the slabs)
// with v_j = c_j at every position the row marks as pinned (see pins and
// scanSet), where no remaining job can join or upgrade c. It walks the box
// run by run, positions in stride order. Let jp be the last position that
// c uses or pins, or the slab position when that comes later: every later
// position spans its full range 0..n, so for each point of an odometer over
// the positions before jp the pass is one contiguous run of
// (lim_jp+1)*stride_jp entries. Stepping
// position jp-1 moves a run by its stride, so the runs of one odometer
// point over the positions before jp-1 are evenly spaced and relaxRuns
// relaxes them in one call: the odometer steps once per such row of runs.
// Runs are visited in ascending index order, as the per-entry walk would
// visit them. A row pinned on the slab class relaxes only the slab v = 0,
// so it runs only in the chunk that holds that slab.
//
// A cancelable fill polls every fillCheckEvery relaxations: a row or run
// longer than the remaining budget is split where the budget runs out.
func (f *slabFill) relaxRows(sw *slabWorker, r0, r1, p int, x0, x1 int64) bool {
	t := f.t
	s := t.set
	d := s.d
	opt, stride, count := t.Opt, t.lay.pstride, t.lay.pcount
	w := sw.odo[:d]        // odometer over positions 0..jp-2, w = v - lower corner
	lim := sw.odo[d : 2*d] // per-position odometer limits
	if p >= 0 && x0 == 0 && x1 == count[p]+1 {
		p = -1 // a chunk of every slab restricts nothing
	}
	done := f.done
	budget := int64(fillCheckEvery)
	var relaxed int64
	for ci := r0; ci < r1; ci++ {
		row := s.counts[ci*d : ci*d+d]
		jp := d - 1
		for jp > 0 && row[jp] == 0 && jp != p {
			jp--
		}
		for j := 0; j <= jp; j++ {
			lim[j] = int32(count[j]) - row[j]
			if row[j] < 0 {
				lim[j] = 0 // pinned
			}
			w[j] = 0
		}
		off := s.offsets[ci]
		base := off
		if p >= 0 {
			if row[p] < 0 {
				if x0 > 0 {
					continue // the pinned box lies in slab 0
				}
			} else {
				base += x0 * stride[p]
				lim[p] = int32(x1 - 1 - x0)
			}
		}
		runLen := (int64(lim[jp]) + 1) * stride[jp]
		runs, gap := int64(1), int64(0)
		if jp > 0 {
			runs, gap = int64(lim[jp-1])+1, stride[jp-1]
		}
		for {
			if work := runs * runLen; done == nil || work < budget {
				relaxRuns(opt, base, off, runLen, gap, runs)
				relaxed += work
				budget -= work
			} else {
				for r := int64(0); r < runs; r++ {
					lo := base + r*gap
					for hi := lo + runLen; lo < hi; {
						n := min(hi-lo, budget)
						relaxRuns(opt, lo, off, n, 0, 1)
						lo += n
						relaxed += n
						if budget -= n; budget <= 0 {
							if f.stopped() {
								sw.work += relaxed
								return false
							}
							budget = fillCheckEvery
						}
					}
				}
			}
			q := jp - 2
			for ; q >= 0; q-- {
				if w[q] < lim[q] {
					w[q]++
					base += stride[q]
					break
				}
				base -= int64(w[q]) * stride[q]
				w[q] = 0
			}
			if q < 0 {
				break
			}
		}
	}
	sw.work += relaxed
	return true
}

// relaxRuns is the config-outer kernel: for each of runs runs of runLen
// entries, starting at lo and gap apart, it relaxes
// Opt[i] = min(Opt[i], Opt[i-off]+1) in ascending i. The source run may
// overlap its destination (off < runLen); the ascending order is what lets
// repeated uses of the configuration chain within one run.
//
// Slab disjointness keeps a slab-parallel fill race-free: every call relaxes
// runs inside one worker's slab range of the phase class, which no
// configuration of the phase leaves (c_a = 0), so no two workers touch one
// entry, and the pool round's join orders the phases and the tail.
//
// Hot path: the config-outer relaxation, one call per row of runs of the fill.
func relaxRuns(opt []int32, lo, off, runLen, gap, runs int64) {
	for ; runs > 0; runs-- {
		hi := lo + runLen
		// Neither guard is ever taken: the fill keeps every run and its
		// source inside Opt, and both runs hold hi-lo entries. They let the
		// compiler drop bounds checks, the first on slicing dst and the
		// second on dst[i] in the inner loop.
		if off < 0 || lo < off || hi < lo || hi > int64(len(opt)) {
			return
		}
		dst := opt[lo:hi]
		src := opt[lo-off : hi-off]
		if len(src) != len(dst) {
			return
		}
		for i, o := range src {
			dst[i] = min(dst[i], o+1)
		}
		lo += gap
	}
}

// FillRecursiveCtx computes the table top-down with memoization, starting
// from the last entry, exactly as the paper describes the sequential
// Algorithm 2. Only entries reachable from N by configuration subtractions
// are computed; unreachable entries keep an internal "unset" marker that
// OptValue and Reconstruct never observe. Each computed entry re-enumerates
// its own configurations, as computeEntry does; an EnumSparse table is
// rejected with ErrSparseTable and left untouched. The memoized recursion
// polls ctx every fillCheckEvery visits, and on cancellation unwinds
// immediately, leaves the table unfilled (memoized values are partial
// garbage) and returns the structured cancel error, carrying the entries it
// computed.
func (t *Table) FillRecursiveCtx(ctx context.Context) error {
	if t.Mode == EnumSparse {
		return ErrSparseTable
	}
	t.filled = false
	for i := range t.Opt {
		t.Opt[i] = unset
	}
	t.Opt[0] = 0
	stack := make([]int32, (t.NPrime+1)*len(t.Stride))
	f := slabFill{t: t, done: ctxDone(ctx), workers: []slabWorker{{odo: stack}}}
	f.solve(t.Sigma-1, 0)
	if f.stop.Load() {
		return f.canceled(ctx)
	}
	t.filled = true
	return nil
}

// solve returns OPT of entry idx, computing it at recursion depth depth
// when it is not memoized yet. It runs Algorithm 2 on the fill's one worker:
// its work counts the computed entries, and its odometer scratch holds one
// digit vector per depth. Each computed entry takes one configuration from
// N, so the recursion is at most NPrime deep, and the entry computed at
// depth k decodes into odo[k*d : (k+1)*d], which its deeper calls leave
// alone. A stopped fill returns at once, so the recursion unwinds without
// another poll.
func (f *slabFill) solve(idx int64, depth int) int32 {
	sw := &f.workers[0]
	if f.done != nil && f.tick(sw, fillCheckEvery) {
		return 0
	}
	t := f.t
	if t.Opt[idx] != unset {
		return t.Opt[idx]
	}
	sw.work++
	d := len(t.Stride)
	v := t.digits(idx, sw.odo[depth*d:(depth+1)*d])
	best := f.search(idx, v, depth, 0, 0, 0, 0, math.MaxInt32)
	t.Opt[idx] = best + 1
	return t.Opt[idx]
}

// search enumerates the configurations s <= v of entry idx with weight(s)
// <= T by depth-first search over the classes from dim on, the classes
// before dim having put weight, offset off and jobs jobs into s, and
// returns the least of best and OPT(idx - off(s)) over the non-zero ones.
func (f *slabFill) search(idx int64, v []int32, depth, dim int, weight pcmax.Time, off int64, jobs int32, best int32) int32 {
	t := f.t
	if dim == len(v) {
		if jobs > 0 {
			best = min(best, f.solve(idx-off, depth+1))
		}
		return best
	}
	for s := int32(0); s <= v[dim]; s++ {
		w := weight + pcmax.Time(s)*t.Sizes[dim]
		if w > t.T {
			break
		}
		best = f.search(idx, v, depth, dim+1, w, off+int64(s)*t.Stride[dim], jobs+s, best)
	}
	return best
}

// scanCheckEvery is the poll stride of Algorithm 3's level scan, in scan
// iterations of one worker. Most iterations skip an entry of another level
// for a load and a compare, so the stride is far below fillCheckEvery.
const scanCheckEvery = 256

// fillLevels writes the digit sum of every entry into levels, on the pool,
// and reports whether it wrote them all. It splits the table into
// contiguous chunks; a worker decodes a chunk's first index into its slot's
// odometer scratch and advances the odometer through the rest of the chunk.
// A cancelable fill's workers poll at the start of each chunk and every
// fillCheckEvery entries inside it.
func (f *slabFill) fillLevels(pool *par.Pool, levels []int32) bool {
	t := f.t
	chunkLen := max(t.Sigma/int64(8*len(f.workers)), 1024)
	nChunks := int((t.Sigma + chunkLen - 1) / chunkLen)
	d := len(t.Stride)
	pool.ForWorker(nChunks, par.RoundRobin, 0, func(w, c int) {
		lo := int64(c) * chunkLen
		hi := min(lo+chunkLen, t.Sigma)
		v := t.digits(lo, f.workers[w].odo[:d])
		lvl := sumDigits(v)
		for lo < hi {
			if f.done != nil && f.stopped() {
				return
			}
			for end := min(lo+fillCheckEvery, hi); lo < end; lo++ {
				levels[lo] = lvl
				lvl += t.advanceOne(v)
			}
		}
	})
	return !f.stop.Load()
}

// FillParallelCtx computes the table with the paper's Parallel DP
// (Algorithm 3) as printed, on the given worker pool: it computes the digit
// sum d_i of every entry in parallel, then for each level l = 1..n' in
// sequence the workers scan all sigma entries round-robin (Lines 11-12) and
// compute the entries whose d_i is l, re-enumerating each entry's
// configurations (Line 17). An EnumSparse table is rejected with
// ErrSparseTable and left untouched. The pool may be reused across calls
// and bisection iterations. The digit-sum pass polls ctx as fillLevels
// says. In every level's round each worker polls ctx every scanCheckEvery
// scan iterations, and the first to see it done stops the others through a
// shared flag, so an abort lands within the round of the level it hits. The
// round still joins (no leaked goroutines, the pool stays reusable), the
// table is left unfilled and the structured cancel error is returned,
// carrying the entries computed.
func (t *Table) FillParallelCtx(ctx context.Context, pool *par.Pool) error {
	if t.Mode == EnumSparse {
		return ErrSparseTable
	}
	t.filled = false
	f := &slabFill{t: t, done: ctxDone(ctx), workers: newSlabWorkers(len(t.Stride), pool.Workers())}
	// Lines 4-8: the digit sums d_i of every entry, in parallel.
	levels := make([]int32, t.Sigma)
	if !f.fillLevels(pool, levels) || !f.scanLevels(pool, levels) {
		return f.canceled(ctx)
	}
	t.filled = true
	return nil
}

// scanLevels runs Algorithm 3's level rounds on the pool over the digit
// sums in levels, and reports whether it computed every level.
func (f *slabFill) scanLevels(pool *par.Pool, levels []int32) bool {
	t := f.t
	decs := newDecoders(t, len(f.workers))
	t.Opt[0] = 0
	// One body serves every level's round, so a round allocates nothing.
	var l int32
	scan := func(w, i int) {
		sw := &f.workers[w]
		if f.done != nil && f.tick(sw, scanCheckEvery) {
			return
		}
		if levels[i] != l {
			return
		}
		idx := int64(i)
		t.computeEntry(idx, decs[w].at(idx))
		sw.work++
	}
	for l = 1; l <= int32(t.NPrime); l++ {
		for w := range decs {
			decs[w].reset()
		}
		pool.ForWorker(int(t.Sigma), par.RoundRobin, 0, scan)
		if f.stop.Load() {
			return false
		}
	}
	return true
}

// LevelSizes returns q_l for l = 0..sum(counts): the number of table entries
// on each anti-diagonal of a table with the given per-class counts. It is
// computed by convolution, without enumerating entries, and is the input to
// the simulated-multicore model of package simsched (and to the paper's
// Section IV cost analysis).
func LevelSizes(counts []int) []int64 {
	q := []int64{1}
	for _, n := range counts {
		if n < 0 {
			n = 0
		}
		nq := make([]int64, len(q)+n)
		var window int64
		for l := range nq {
			if l < len(q) {
				window += q[l]
			}
			if prev := l - n - 1; prev >= 0 && prev < len(q) {
				window -= q[prev]
			}
			nq[l] = window
		}
		q = nq
	}
	return q
}

// OptValue returns OPT(N), the minimum machine count for the full job vector
// within T.
func (t *Table) OptValue() (int, error) {
	if !t.filled {
		return 0, ErrNotFilled
	}
	return int(t.Opt[t.Sigma-1]), nil
}

// Reconstruct walks the filled table back from the full vector N and returns
// one machine configuration (a per-size-class job count vector) per machine,
// OPT(N) machines in total. The walk tracks the current entry's level and,
// because Configs is Jobs-sorted, stops each scan at the first configuration
// placing more jobs than remain — so a machine's re-search costs only the
// level's candidate prefix instead of the full configuration list.
func (t *Table) Reconstruct() ([][]int32, error) {
	if !t.filled {
		return nil, ErrNotFilled
	}
	d := len(t.Stride)
	v := make([]int32, d)
	t.digits(t.Sigma-1, v)
	idx := t.Sigma - 1
	level := int32(t.NPrime)
	var machines [][]int32
	for idx != 0 {
		target := t.Opt[idx]
		if target <= 0 {
			return nil, fmt.Errorf("%w: entry %d has OPT=%d on the walk", ErrInconsistent, idx, target)
		}
		found := -1
		for ci := range t.Configs {
			c := &t.Configs[ci]
			if c.Jobs > level {
				break // Jobs-sorted: nothing beyond can fit v
			}
			if conf.Fits(c.Counts, v) && t.Opt[idx-c.Offset] == target-1 {
				found = ci
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: no configuration explains OPT=%d at entry %d", ErrInconsistent, target, idx)
		}
		c := &t.Configs[found]
		machines = append(machines, append([]int32(nil), c.Counts...))
		idx -= c.Offset
		level -= c.Jobs
		for i := range v {
			v[i] -= c.Counts[i]
		}
	}
	return machines, nil
}
