// Package exact computes optimal P||Cmax schedules. It stands in for the
// CPLEX-based integer-program solver the paper uses as its optimality
// baseline ("IP"): both produce the optimal makespan, which is what the
// paper compares against for running time and approximation ratios.
//
// The solver binary-searches the smallest feasible makespan C in
// [lower bound, LPT/MultiFit incumbent] and decides feasibility of each C
// with a depth-first bin-completion search:
//
//   - bins (machines) are completed one at a time; when a bin opens it
//     receives the largest unassigned job (bins are interchangeable, and that
//     job has to go somewhere);
//   - the bin is completed with further jobs in non-increasing size order,
//     branching on include/exclude, where excluding a size excludes all
//     remaining jobs of that size (identical jobs are interchangeable);
//   - a bin may only be closed when no unassigned job fits its residual
//     capacity (if a fitting job lived in another bin, moving it here keeps
//     feasibility, so maximal bins dominate);
//   - a branch dies when the unassigned total exceeds the capacity of the
//     remaining bins.
//
// Search effort is bounded by a node limit and by ctx; when either stops
// the search, the best incumbent is returned with Optimal=false, mirroring
// a MIP solver hitting its time limit.
package exact

import (
	"context"
	"fmt"

	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/multifit"
	"repro/internal/par"
	"repro/pcmax"
)

// Options bounds the search.
type Options struct {
	// NodeLimit caps decision nodes over the whole solve; <= 0 selects
	// DefaultNodeLimit.
	NodeLimit int64
	// DisableMultiFitIncumbent drops the MultiFit upper bound and keeps
	// only LPT (ablation of the incumbent choice).
	DisableMultiFitIncumbent bool
}

// DefaultNodeLimit is large enough for every instance family in the paper's
// evaluation while still terminating pathological searches.
const DefaultNodeLimit = 50_000_000

// Result reports how the solve went.
type Result struct {
	Makespan pcmax.Time
	// Optimal is true when Makespan is proved optimal; false when the node
	// limit or ctx interrupted the proof.
	Optimal bool
	// Nodes is the number of decision nodes explored.
	Nodes int64
	// LowerBound is the best combinatorial lower bound (also the optimality
	// certificate when Makespan == LowerBound).
	LowerBound pcmax.Time
}

// Solve returns an optimal schedule for the instance (or the best incumbent
// with Result.Optimal == false when a limit interrupts the proof). It is
// SolveParallel on one worker.
//
// Cancellation mirrors a MIP solver's time limit: when ctx dies mid-search
// the best incumbent is returned with Optimal == false and a nil error — a
// valid schedule, just without the optimality proof. Callers who need the
// interruption surfaced as an error should test ctx after the call (the
// solver registry does exactly that).
func Solve(ctx context.Context, in *pcmax.Instance, opts Options) (*pcmax.Schedule, Result, error) {
	return SolveParallel(ctx, in, opts, 1)
}

// SolveParallel is Solve with each feasibility probe split at the root
// across workers, in the spirit of the paper's program of parallelizing
// algorithms for NP-hard problems. A probe enumerates the completions of the
// first bin (the largest job and a maximal filling) sequentially; when there
// are several, it explores the resulting independent subtrees as one round
// on a par.Pool of `workers` workers, each subtree on its own searcher
// state, and the first worker to find a packing publishes it while the
// remaining subtrees are skipped through a shared atomic flag. A probe that
// does not split, and every probe at one worker, runs on the solve's own
// searcher. The pool starts at the first probe that splits and is closed
// before SolveParallel returns.
//
// The optimal makespan is Solve's; the optimal schedule may differ, since
// subtree completion order varies, and so may a node-limited result.
func SolveParallel(ctx context.Context, in *pcmax.Instance, opts Options, workers int) (*pcmax.Schedule, Result, error) {
	if err := in.Validate(); err != nil {
		return nil, Result{}, err
	}
	if opts.NodeLimit <= 0 {
		opts.NodeLimit = DefaultNodeLimit
	}
	res := Result{LowerBound: lb.Best(in)}
	if in.N() == 0 {
		res.Optimal = true
		return pcmax.NewSchedule(in.M, 0), res, nil
	}

	// Incumbent: the better of LPT and MultiFit.
	best := listsched.LPT(in)
	if !opts.DisableMultiFitIncumbent {
		if mf, err := multifit.Solve(ctx, in); err == nil && mf.Makespan(in) < best.Makespan(in) {
			best = mf
		}
	}
	res.Makespan = best.Makespan(in)
	if res.Makespan == res.LowerBound {
		res.Optimal = true
		return best, res, nil
	}

	s := newSearcher(ctx, in, opts.NodeLimit)
	s.workers = workers
	defer func() {
		if s.pool != nil {
			s.pool.Close()
		}
	}()
	lo, hi := res.LowerBound, res.Makespan
	// Invariant: a schedule with makespan hi is known (best); lo <= OPT.
	// A split probe may find a packing in the round in which a subtree
	// aborts: its schedule is kept.
	for lo < hi && !s.aborted {
		c := lo + (hi-lo)/2
		if s.feasible(c) {
			hi = c
			best = s.takeSchedule()
		} else if !s.aborted {
			lo = c + 1
		}
	}
	res.Nodes = s.nodes
	res.Makespan = best.Makespan(in)
	res.Optimal = !s.aborted
	if err := best.Validate(in); err != nil {
		return nil, res, fmt.Errorf("exact: internal error: %v", err)
	}
	return best, res, nil
}

// searcher carries the DFS state across feasibility probes.
type searcher struct {
	in    *pcmax.Instance
	order []int        // job indices by non-increasing size
	times []pcmax.Time // times in that order
	total pcmax.Time   // sum of all times
	used  []bool       // per position in order
	bin   []int        // bin per position in order (valid on success)
	m     int
	c     pcmax.Time // capacity of the current probe

	nodes     int64
	nodeLimit int64
	done      <-chan struct{} // context cancellation, polled by tick
	aborted   bool

	// workers is the number of workers a probe may split across, and pool
	// runs the split probes' rounds; nil until the first one.
	workers int
	pool    *par.Pool
}

func newSearcher(ctx context.Context, in *pcmax.Instance, nodeLimit int64) *searcher {
	order := in.SortedIndex()
	times := make([]pcmax.Time, len(order))
	for p, j := range order {
		times[p] = in.Times[j]
	}
	s := &searcher{
		in:        in,
		order:     order,
		times:     times,
		total:     in.TotalTime(),
		used:      make([]bool, len(order)),
		bin:       make([]int, len(order)),
		m:         in.M,
		nodeLimit: nodeLimit,
	}
	if ctx != nil {
		s.done = ctx.Done()
	}
	return s
}

// feasible reports whether all jobs pack into m bins of capacity c.
// On success the packing is left in s.bin.
func (s *searcher) feasible(c pcmax.Time) bool {
	if s.aborted {
		return false
	}
	// Certified refutation without search: the Martello–Toth bound on bins
	// of capacity c already exceeds m.
	if lb.BinPackingL2(s.times, c) > s.m {
		return false
	}
	s.c = c
	clear(s.used)
	if tasks := s.split(); len(tasks) > 1 {
		return s.round(tasks)
	}
	return s.packBin(0, s.total)
}

// tick counts a node and applies the limits: the node budget on every call
// and the context every 8192 nodes (a non-blocking poll of Done, cheap
// enough to keep the abort latency in the microseconds at B&B node rates).
// It reports whether the search must abort.
func (s *searcher) tick() bool {
	s.nodes++
	if s.nodes > s.nodeLimit {
		s.aborted = true
	} else if s.nodes&8191 == 0 && s.done != nil {
		select {
		case <-s.done:
			s.aborted = true
		default:
		}
	}
	return s.aborted
}

// packBin opens bin b, seeds it with the largest unassigned job, and tries
// every maximal completion. rem is the total unassigned processing time.
func (s *searcher) packBin(b int, rem pcmax.Time) bool {
	if rem == 0 {
		return true
	}
	if b == s.m {
		return false
	}
	// Remaining bins cannot hold the remaining work.
	if rem > pcmax.Time(s.m-b)*s.c {
		return false
	}
	if s.tick() {
		return false
	}
	seed := -1
	for p := range s.used {
		if !s.used[p] {
			seed = p
			break
		}
	}
	if s.times[seed] > s.c {
		return false
	}
	s.used[seed] = true
	s.bin[seed] = b
	ok := s.fillBin(b, seed+1, s.c-s.times[seed], rem-s.times[seed])
	s.used[seed] = false
	return ok
}

// fillBin extends bin b with jobs at positions >= from, space left in the
// bin, rem total unassigned time. It enumerates maximal completions only.
func (s *searcher) fillBin(b, from int, space, rem pcmax.Time) bool {
	if s.aborted {
		return false
	}
	// Find the first unassigned job that fits.
	p := from
	for p < len(s.times) && (s.used[p] || s.times[p] > space) {
		p++
	}
	if p == len(s.times) {
		// Bin is maximal w.r.t. jobs at positions >= from. Jobs before
		// 'from' were all excluded at larger sizes, so none of them fits
		// either (sizes are non-increasing: excluded sizes > current fits
		// were already > space at exclusion time... they may fit now only
		// if space grew, which it never does). Close the bin.
		return s.packBin(b+1, rem)
	}
	if s.tick() {
		return false
	}
	t := s.times[p]
	// Branch 1: include job p.
	s.used[p] = true
	s.bin[p] = b
	if s.fillBin(b, p+1, space-t, rem-t) {
		s.used[p] = false // restore probe state; s.bin keeps the packing
		return true
	}
	s.used[p] = false
	// Branch 2: exclude job p and every remaining unassigned job of equal
	// size (identical jobs are interchangeable, so including a later equal
	// job instead of p is symmetric).
	q := p + 1
	for q < len(s.times) && (s.used[q] || s.times[q] == t) {
		q++
	}
	// Maximality: if excluding size t leaves no smaller fitting job, the bin
	// would close while job p still fits — dominated, prune the branch.
	fitsLater := false
	for r := q; r < len(s.times); r++ {
		if !s.used[r] && s.times[r] <= space {
			fitsLater = true
			break
		}
	}
	if !fitsLater {
		return false
	}
	return s.fillBin(b, q, space, rem)
}

// collectCompletions mirrors fillBin on bin 0, but records each maximal
// completion in tasks where fillBin would open the next bin. It reports
// false when the fan-out exceeded maxRootTasks.
func (s *searcher) collectCompletions(from int, space, rem pcmax.Time, tasks *[]rootTask) bool {
	p := from
	for p < len(s.times) && (s.used[p] || s.times[p] > space) {
		p++
	}
	if p == len(s.times) {
		if len(*tasks) >= maxRootTasks {
			return false
		}
		*tasks = append(*tasks, rootTask{
			used: append([]bool(nil), s.used...),
			bin:  append([]int(nil), s.bin...),
			rem:  rem,
		})
		return true
	}
	t := s.times[p]
	s.used[p] = true
	s.bin[p] = 0
	if !s.collectCompletions(p+1, space-t, rem-t, tasks) {
		s.used[p] = false
		return false
	}
	s.used[p] = false
	q := p + 1
	for q < len(s.times) && (s.used[q] || s.times[q] == t) {
		q++
	}
	fitsLater := false
	for r := q; r < len(s.times); r++ {
		if !s.used[r] && s.times[r] <= space {
			fitsLater = true
			break
		}
	}
	if !fitsLater {
		return true
	}
	return s.collectCompletions(q, space, rem, tasks)
}

// takeSchedule converts the searcher's packing into a schedule.
func (s *searcher) takeSchedule() *pcmax.Schedule {
	sched := pcmax.NewSchedule(s.in.M, s.in.N())
	for p, j := range s.order {
		sched.Assignment[j] = s.bin[p]
	}
	return sched
}

// BruteForce enumerates all m^n assignments and returns a provably optimal
// schedule. It is a test oracle; n is capped to keep it tractable.
func BruteForce(in *pcmax.Instance) (*pcmax.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n, m := in.N(), in.M
	if n > 14 {
		return nil, fmt.Errorf("exact: BruteForce limited to 14 jobs, got %d", n)
	}
	bestMS := pcmax.Time(-1)
	best := pcmax.NewSchedule(m, n)
	cur := make([]int, n)
	loads := make([]pcmax.Time, m)
	var rec func(j int, curMax pcmax.Time)
	rec = func(j int, curMax pcmax.Time) {
		if bestMS >= 0 && curMax >= bestMS {
			return
		}
		if j == n {
			bestMS = curMax
			copy(best.Assignment, cur)
			return
		}
		// Symmetry: only the first machine of any given load value.
		for mi := 0; mi < m; mi++ {
			dup := false
			for mj := 0; mj < mi; mj++ {
				if loads[mj] == loads[mi] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			loads[mi] += in.Times[j]
			cur[j] = mi
			nm := curMax
			if loads[mi] > nm {
				nm = loads[mi]
			}
			rec(j+1, nm)
			loads[mi] -= in.Times[j]
		}
	}
	rec(0, 0)
	return best, nil
}

// TwoMachineOpt returns the optimal makespan for m=2 via subset-sum dynamic
// programming, as an independent oracle for tests. The instance must have
// exactly two machines and a total time at most 1<<22.
func TwoMachineOpt(in *pcmax.Instance) (pcmax.Time, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if in.M != 2 {
		return 0, fmt.Errorf("exact: TwoMachineOpt needs m=2, got m=%d", in.M)
	}
	total := in.TotalTime()
	if total > 1<<22 {
		return 0, fmt.Errorf("exact: TwoMachineOpt total %d exceeds 1<<22", total)
	}
	half := total / 2
	reach := make([]bool, half+1)
	reach[0] = true
	for _, t := range in.Times {
		for v := half; v >= t; v-- {
			if reach[v-t] {
				reach[v] = true
			}
		}
	}
	for v := half; v >= 0; v-- {
		if reach[v] {
			return total - v, nil
		}
	}
	return total, nil
}
