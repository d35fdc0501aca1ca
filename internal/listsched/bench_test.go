package listsched

import (
	"fmt"
	"testing"

	"repro/internal/workload"
	"repro/pcmax"
)

// BenchmarkAssignGreedy times one LPT pass onto empty machines over the
// instance's shared order, the call core.Solve makes for its bounds: the
// paper's shapes (m 10/20, n 30/100, U(1,100)), where the cost of each call
// decides the result, and the large-n workload's shapes, where the pass over
// n jobs does. The order is sorted once outside the timer; each iteration
// resets the assignment, which AssignGreedy reads as starting loads.
func BenchmarkAssignGreedy(b *testing.B) {
	type shape struct {
		m, n int
		fam  workload.Family
	}
	var shapes []shape
	for _, m := range []int{10, 20} {
		for _, n := range []int{30, 100} {
			shapes = append(shapes, shape{m, n, workload.U1_100})
		}
	}
	for _, mn := range [][2]int{{1000, 100000}, {10000, 200000}} {
		for _, fam := range []workload.Family{workload.U1_100, workload.U1_10n, workload.U95_105} {
			shapes = append(shapes, shape{mn[0], mn[1], fam})
		}
	}
	for _, s := range shapes {
		in := workload.MustGenerate(workload.Spec{Family: s.fam, M: s.m, N: s.n, Seed: 1})
		order := in.SortedIndex()
		sched := pcmax.NewSchedule(in.M, in.N())
		b.Run(fmt.Sprintf("m=%d/n=%d/%v", s.m, s.n, s.fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range sched.Assignment {
					sched.Assignment[j] = -1
				}
				AssignGreedy(in, sched, order)
			}
		})
	}
}
