package exact

import (
	"context"

	"repro/internal/listsched"
	"repro/pcmax"
)

// SolveAssignment is an IP-style branch-and-bound over the assignment
// formulation of P||Cmax: binary variables x[j][i] ("job j runs on machine
// i"), branched job by job in non-increasing size order, bounded by the LP
// relaxation bound max(ceil(sum/m), max t) and the incumbent, with
// equal-load machine symmetry breaking.
//
// This mirrors how a MIP solver attacks the paper's integer program far more
// closely than the bin-completion search in Solve: no combinatorial lower
// bounds, no MultiFit incumbent, no bin-oriented dominance. The experiment
// harness uses it as the "IP" baseline so that the IP running-time profile
// (strongly family-dependent, occasionally exploding) reproduces the paper's
// CPLEX observations, while Solve provides the certified optimum for
// approximation ratios.
func SolveAssignment(ctx context.Context, in *pcmax.Instance, opts Options) (*pcmax.Schedule, Result, error) {
	if err := in.Validate(); err != nil {
		return nil, Result{}, err
	}
	if opts.NodeLimit <= 0 {
		opts.NodeLimit = DefaultNodeLimit
	}
	res := Result{LowerBound: in.LowerBound()} // the LP relaxation bound
	if in.N() == 0 {
		res.Optimal = true
		return pcmax.NewSchedule(in.M, 0), res, nil
	}

	s := &assignSearcher{
		in:        in,
		order:     in.SortedIndex(),
		loads:     make([]pcmax.Time, in.M),
		cur:       make([]int, in.N()),
		lower:     in.LowerBound(),
		nodeLimit: opts.NodeLimit,
	}
	s.times = make([]pcmax.Time, in.N())
	for p, j := range s.order {
		s.times[p] = in.Times[j]
	}
	if ctx != nil {
		s.done = ctx.Done()
	}

	// Incumbent: the root heuristic (LPT), like a MIP solver's first
	// feasible solution from rounding/heuristics.
	lpt := listsched.LPT(in)
	s.best = lpt.Makespan(in)
	s.bestAssign = append([]int(nil), lpt.Assignment...)

	s.dfs(0, 0)

	res.Nodes = s.nodes
	res.Makespan = s.best
	res.Optimal = !s.aborted
	sched := pcmax.NewSchedule(in.M, in.N())
	copy(sched.Assignment, s.bestAssign)
	return sched, res, nil
}

type assignSearcher struct {
	in    *pcmax.Instance
	order []int
	times []pcmax.Time
	loads []pcmax.Time
	cur   []int

	best       pcmax.Time
	bestAssign []int
	lower      pcmax.Time

	nodes     int64
	nodeLimit int64
	done      <-chan struct{} // context cancellation, polled every 8192 nodes
	aborted   bool
}

func (s *assignSearcher) dfs(p int, curMax pcmax.Time) {
	if s.aborted || s.best == s.lower {
		return
	}
	if p == len(s.times) {
		if curMax < s.best {
			s.best = curMax
			for q, j := range s.order {
				s.bestAssign[j] = s.cur[q]
			}
		}
		return
	}
	s.nodes++
	if s.nodes > s.nodeLimit {
		s.aborted = true
		return
	}
	if s.nodes&8191 == 0 && s.done != nil {
		select {
		case <-s.done:
			s.aborted = true
			return
		default:
		}
	}
	t := s.times[p]
	for mi := 0; mi < s.in.M; mi++ {
		l := s.loads[mi]
		// Prune: this branch cannot beat the incumbent.
		if l+t >= s.best {
			continue
		}
		// Symmetry: machines with equal loads are interchangeable; keep the
		// first.
		dup := false
		for mj := 0; mj < mi; mj++ {
			if s.loads[mj] == l {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		s.loads[mi] = l + t
		s.cur[p] = mi
		nm := curMax
		if l+t > nm {
			nm = l + t
		}
		s.dfs(p+1, nm)
		s.loads[mi] = l
		if s.aborted {
			return
		}
	}
}
