package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/pcmax"
)

// split is the short/long partition and long-job rounding of one bisection
// iteration at target makespan T (paper Algorithm 1, Lines 7-24).
//
// Arithmetic is exact, with one deliberate correction to the paper. The
// paper's real-arithmetic presentation takes jobs with t > T/k as long and
// rounds them down to multiples of T/k^2; its (1+1/k)T bound for the
// long-job schedule needs every rounded size to stay >= T/k, which holds in
// real arithmetic because T/k is itself a multiple of T/k^2. With integer
// rounding unit u = ceil(T/k^2) that divisibility breaks: a job just above
// T/k can round to below T/k (e.g. T=21, k=2: u=6 and t=11 rounds to 6),
// letting one machine hold more than k long jobs and pushing the un-rounded
// load past (1+1/k)T — an observable guarantee violation. The repository
// therefore defines long as t >= k*u, which restores the invariant exactly:
//
//   - every long job's class index i = floor(t/u) satisfies k <= i <= k^2,
//     so every rounded size is >= k*u >= T/k and a machine fits at most k
//     long jobs within T;
//   - un-rounding adds less than u per job, at most k*u - k <= T/k + k per
//     machine, keeping the long-job schedule within (1+1/k)T + k;
//   - jobs in the reclassified band (T/k, k*u) are short; they are at most
//     k*u - 1 <= T/k + k long, which keeps the short-job LPT argument intact
//     up to the same +k additive slop (absorbed by the driver's LPT
//     fallback; see core.Solve).
//
// Every probe of a solve splits the same job order: the instance's jobs by
// non-increasing time, ties by index (pcmax.Instance.SortedIndex, the LPT
// order), sorted once per solve. The long jobs are then the prefix
// order[:nLong], each rounding class is a run inside it (classes descend
// along the order, so class runs sit back to back), and the short jobs are
// the suffix order[nLong:], already in the LPT rule's order. A split costs a
// binary search per class boundary, not a pass over the jobs; the unrounding
// buckets are built once, at the converged target (see buckets).
type split struct {
	k int
	T pcmax.Time
	u pcmax.Time // rounding unit ceil(T/k^2)

	order []int // every job in LPT order, shared read-only by all probes
	nLong int   // order[:nLong] are the long jobs

	// Per distinct rounded size, ascending by size. Size c's jobs are the run
	// of order that ends where the runs of the smaller sizes begin:
	// order[nLong-cum(c)-counts[c] : nLong-cum(c)], cum(c) summing counts[:c].
	sizes  []pcmax.Time // rounded size i*u (the group floor after group)
	counts []int        // n_i
}

// newSplit partitions and rounds the instance's jobs for target T; order
// must be in.SortedIndex().
func newSplit(in *pcmax.Instance, order []int, k int, T pcmax.Time) (*split, error) {
	k2 := pcmax.Time(k) * pcmax.Time(k)
	sp := &split{
		k:     k,
		T:     T,
		u:     (T + k2 - 1) / k2,
		order: order,
	}
	times := in.Times
	threshold := pcmax.Time(k) * sp.u
	sp.nLong = sort.Search(len(order), func(x int) bool { return times[order[x]] < threshold })
	if sp.nLong == 0 {
		return sp, nil
	}
	if j := order[0]; times[j] > T {
		return nil, fmt.Errorf("core: internal error: job %d (t=%d) exceeds target T=%d", j, times[j], T)
	}
	// Walk the class runs from the smallest long job up: the run of class i
	// starts at the first position whose time is below (i+1)*u.
	for end := sp.nLong; end > 0; {
		j := order[end-1]
		i := times[j] / sp.u
		if i < pcmax.Time(k) || i > k2 {
			return nil, fmt.Errorf("core: internal error: job %d (t=%d) rounds to class %d outside [%d,%d] at T=%d u=%d",
				j, times[j], i, k, k2, T, sp.u)
		}
		next := (i + 1) * sp.u
		start := sort.Search(end, func(x int) bool { return times[order[x]] < next })
		sp.sizes = append(sp.sizes, i*sp.u)
		sp.counts = append(sp.counts, end-start)
		end = start
	}
	return sp, nil
}

// RoundedClasses exposes the long-job rounding of one bisection probe: the
// distinct rounded sizes and per-class counts the DP table would be built
// over at target makespan T with k = ceil(1/eps). Benchmark harnesses
// (bench_test.go, cmd/schedbench) use it to isolate the DP fill a solve
// performs at its converged target. Each call sorts the instance (Solve
// sorts once and splits every probe over that order).
func RoundedClasses(in *pcmax.Instance, k int, T pcmax.Time) (sizes []pcmax.Time, counts []int, err error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("core: k=%d < 1", k)
	}
	sp, err := newSplit(in, in.SortedIndex(), k, T)
	if err != nil {
		return nil, nil, err
	}
	return sp.sizes, sp.counts, nil
}

// SparseRoundedClasses is RoundedClasses for the sparse pipeline: the size
// classes after geometric grouping with band delta (what a sparse solve's DP
// table is built over at target T). Benchmark harnesses use it to isolate
// the sparse fill; delta <= 0 degenerates to RoundedClasses.
func SparseRoundedClasses(in *pcmax.Instance, k int, T pcmax.Time, delta float64) (sizes []pcmax.Time, counts []int, err error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("core: k=%d < 1", k)
	}
	sp, err := newSplit(in, in.SortedIndex(), k, T)
	if err != nil {
		return nil, nil, err
	}
	sp.group(delta)
	return sp.sizes, sp.counts, nil
}

// group merges consecutive rounded classes whose sizes lie within (1+delta)
// of the group's smallest member, rounding every member down to that size —
// the geometric grouping of the sparsification literature (Jansen–Klein–
// Verschae Section 3), applied on top of the paper's arithmetic rounding.
// Rounding down preserves completeness (any packing of the true sizes packs
// the grouped ones), so a grouped DP can only be more often feasible at a
// given T; the under-estimation is bounded by delta per job and is enforced
// a posteriori by the driver's quality gate (core.Solve certifies the
// converged target and measures the construction before returning it).
// Merged classes are adjacent runs of the order, so a group is one run and
// reconstruction is unchanged (see buckets). delta <= 0 is a no-op.
func (sp *split) group(delta float64) {
	if delta <= 0 || len(sp.sizes) < 2 {
		return
	}
	var (
		sizes  []pcmax.Time
		counts []int
	)
	i := 0
	for i < len(sp.sizes) {
		base := sp.sizes[i]
		limit := pcmax.Time(float64(base) * (1 + delta))
		count := 0
		for i < len(sp.sizes) && sp.sizes[i] <= limit {
			count += sp.counts[i]
			i++
		}
		sizes = append(sizes, base)
		counts = append(counts, count)
	}
	sp.sizes, sp.counts = sizes, counts
}

// buckets returns, per size, the long jobs unrounding assigns to it, in the
// order it consumes them: input order within a rounding class, and a merged
// group's classes concatenated in ascending size. Each size's run of the
// order is copied and sorted by (class, index), which is exactly that order.
func (sp *split) buckets(in *pcmax.Instance) [][]int {
	long := make([]int, sp.nLong)
	out := make([][]int, len(sp.counts))
	pos, end := 0, sp.nLong
	for c, cnt := range sp.counts {
		bucket := long[pos : pos+cnt]
		copy(bucket, sp.order[end-cnt:end])
		slices.SortFunc(bucket, func(a, b int) int {
			if r := cmp.Compare(in.Times[a]/sp.u, in.Times[b]/sp.u); r != 0 {
				return r
			}
			return cmp.Compare(a, b)
		})
		out[c] = bucket
		pos += cnt
		end -= cnt
	}
	return out
}

// short returns the short jobs in the given rule's order: the order's
// suffix for LPT, a filter of input order for LS.
func (sp *split) short(in *pcmax.Instance, rule ShortRule) []int {
	if rule != ShortLS {
		return sp.order[sp.nLong:]
	}
	threshold := pcmax.Time(sp.k) * sp.u
	short := make([]int, 0, len(sp.order)-sp.nLong)
	for j, t := range in.Times {
		if t < threshold {
			short = append(short, j)
		}
	}
	return short
}
