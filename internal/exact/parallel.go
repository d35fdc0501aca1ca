package exact

import (
	"sync/atomic"

	"repro/internal/par"
	"repro/pcmax"
)

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

// split returns every maximal completion of bin 0 (seeded by the largest
// job) at the probe's capacity, each the root of an independent subtree,
// when the probe may run on more than one worker. It returns nil on one
// worker or machine, and when the fan-out exceeds maxRootTasks.
func (s *searcher) split() []rootTask {
	if s.workers < 2 || s.m == 1 || s.times[0] > s.c {
		return nil
	}
	var tasks []rootTask
	s.used[0] = true
	s.bin[0] = 0
	ok := s.collectCompletions(1, s.c-s.times[0], s.total-s.times[0], &tasks)
	s.used[0] = false
	if !ok {
		return nil
	}
	return tasks
}

// round races the probe's subtrees across the pool, one searcher per
// subtree, each with an even share of the solve's remaining node budget.
// Grain 1: a worker claims the next subtree when it finishes one. The first
// packing found is copied into s.bin and the remaining subtrees are
// skipped; a subtree that aborts stops the solve.
func (s *searcher) round(tasks []rootTask) bool {
	perSplit := (s.nodeLimit - s.nodes) / int64(len(tasks))
	if perSplit < 1 {
		s.aborted = true
		return false
	}
	if s.pool == nil {
		s.pool = par.NewPool(s.workers)
	}
	var (
		nodes          atomic.Int64
		found, aborted atomic.Bool
	)
	s.pool.ForWorker(len(tasks), par.Dynamic, 1, func(_, ti int) {
		if found.Load() || aborted.Load() {
			return
		}
		task := tasks[ti]
		sub := &searcher{
			in: s.in, order: s.order, times: s.times, used: task.used, bin: task.bin,
			m: s.m, c: s.c, nodeLimit: perSplit, done: s.done,
		}
		ok := sub.packBin(1, task.rem)
		nodes.Add(sub.nodes)
		if sub.aborted {
			aborted.Store(true)
		} else if ok && found.CompareAndSwap(false, true) {
			copy(s.bin, sub.bin)
		}
	})
	s.nodes += nodes.Load()
	s.aborted = aborted.Load()
	return found.Load()
}
