package exact

import (
	"context"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/multifit"
	"repro/internal/par"
	"repro/pcmax"
)

// SolveParallel is a shared-memory parallel variant of Solve, in the spirit
// of the paper's program of parallelizing algorithms for NP-hard problems:
// each feasibility probe of the makespan search is parallelized by splitting
// the search at the root. The completions of the first bin (which seed-job
// and which maximal filling it gets) are enumerated sequentially, then the
// resulting independent subtrees are explored as one round on a par.Pool of
// `workers` workers, each subtree on its own searcher state; the first
// worker to find a packing publishes it, and the remaining subtrees are
// skipped through a shared atomic flag. The pool starts at the first probe
// that splits and is closed before SolveParallel returns.
//
// The result is identical to Solve's (the same optimal makespan — though
// possibly a different optimal schedule, since subtree completion order
// varies); only wall-clock time changes.
func SolveParallel(ctx context.Context, in *pcmax.Instance, opts Options, workers int) (*pcmax.Schedule, Result, error) {
	if err := in.Validate(); err != nil {
		return nil, Result{}, err
	}
	if workers < 1 {
		workers = 1
	}
	if opts.NodeLimit <= 0 {
		opts.NodeLimit = DefaultNodeLimit
	}
	ctx, cancelTL := cancel.WithTimeout(ctx, opts.TimeLimit)
	defer cancelTL()
	res := Result{LowerBound: lb.Best(in)}
	if in.N() == 0 {
		res.Optimal = true
		return pcmax.NewSchedule(in.M, 0), res, nil
	}
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

	ps := &parSearch{
		in:      in,
		workers: workers,
		budget:  opts.NodeLimit,
	}
	defer ps.close()
	if ctx != nil {
		ps.done = ctx.Done()
	}

	lo, hi := res.LowerBound, res.Makespan
	for lo < hi {
		c := lo + (hi-lo)/2
		sched, ok, aborted := ps.feasible(c)
		if aborted {
			break
		}
		if ok {
			hi = c
			best = sched
		} else {
			lo = c + 1
		}
	}
	res.Nodes = ps.nodes.Load()
	res.Makespan = best.Makespan(in)
	res.Optimal = !ps.abortedFlag.Load()
	return best, res, best.Validate(in)
}

// parSearch coordinates parallel feasibility probes.
type parSearch struct {
	in      *pcmax.Instance
	workers int
	// pool runs the split probes' subtrees; nil until the first one.
	pool *par.Pool

	nodes       atomic.Int64
	budget      int64
	done        <-chan struct{} // context cancellation, shared by all searchers
	abortedFlag atomic.Bool
}

// rootTask is one completed first bin: the jobs it holds (positions in the
// sorted order) and the remaining unassigned total.
type rootTask struct {
	used []bool
	bin  []int
	rem  pcmax.Time
}

// maxRootTasks caps the first-bin split fan-out; beyond it the probe falls
// back to the sequential search (splitting overhead would dominate anyway).
const maxRootTasks = 4096

// feasible reports whether the jobs pack into m bins of capacity c, racing
// the root subtrees across workers. On success the winning packing's
// schedule is returned.
func (ps *parSearch) feasible(c pcmax.Time) (*pcmax.Schedule, bool, bool) {
	// Enumerate the first bin's maximal completions sequentially using a
	// plain searcher. Each completion becomes an independent subtree.
	seed := newSearcher(nil, ps.in, Options{NodeLimit: 1 << 62})
	if lb.BinPackingL2(seed.times, c) > ps.in.M {
		return nil, false, false
	}
	seed.c = c
	var tasks []rootTask
	overflow := !collectFirstBinCompletions(seed, &tasks)
	if len(tasks) == 0 && !overflow {
		return nil, false, false
	}
	if overflow || ps.in.M == 1 || len(tasks) == 1 || ps.workers == 1 {
		// No useful split: run the plain searcher under the shared budget.
		s := newSearcher(nil, ps.in, Options{NodeLimit: ps.budget - ps.nodes.Load()})
		s.done = ps.done
		ok := s.feasible(c)
		ps.nodes.Add(s.nodes)
		if s.aborted {
			ps.abortedFlag.Store(true)
			return nil, false, true
		}
		if !ok {
			return nil, false, false
		}
		return s.takeSchedule(), true, false
	}

	perSplit := (ps.budget - ps.nodes.Load()) / int64(len(tasks))
	if perSplit < 1 {
		ps.abortedFlag.Store(true)
		return nil, false, true
	}
	if ps.pool == nil {
		ps.pool = par.NewPool(ps.workers)
	}
	var (
		found  atomic.Bool
		winner atomic.Pointer[pcmax.Schedule]
	)
	// Grain 1: a worker claims the next subtree when it finishes one.
	ps.pool.ForWorker(len(tasks), par.Dynamic, 1, func(_, ti int) {
		if found.Load() || ps.abortedFlag.Load() {
			return
		}
		task := tasks[ti]
		s := newSearcher(nil, ps.in, Options{NodeLimit: perSplit})
		s.done = ps.done
		s.c = c
		copy(s.used, task.used)
		copy(s.bin, task.bin)
		ok := s.packBin(1, task.rem)
		ps.nodes.Add(s.nodes)
		if s.aborted {
			ps.abortedFlag.Store(true)
			return
		}
		if ok && found.CompareAndSwap(false, true) {
			winner.Store(s.takeSchedule())
		}
	})
	if sched := winner.Load(); sched != nil {
		return sched, true, false
	}
	return nil, false, ps.abortedFlag.Load()
}

// close stops the pool if a probe started it.
func (ps *parSearch) close() {
	if ps.pool != nil {
		ps.pool.Close()
	}
}

// collectFirstBinCompletions fills tasks with every maximal completion of
// bin 0 (seeded by the largest job), by running the fill search with a
// sentinel continuation that records the state instead of recursing to the
// next bin. It reports false when the fan-out exceeded maxRootTasks.
func collectFirstBinCompletions(s *searcher, tasks *[]rootTask) bool {
	if len(s.times) == 0 || s.times[0] > s.c {
		return true
	}
	s.used[0] = true
	s.bin[0] = 0
	ok := s.collectCompletions(1, s.c-s.times[0], s.total-s.times[0], tasks)
	s.used[0] = false
	return ok
}

// collectCompletions mirrors fillBin but records states at bin closure.
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
