package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/listsched"
	"repro/internal/workload"
	"repro/pcmax"
)

// allShortFamilies are job-time families whose converged target leaves no
// long job at m = 50: every job stays far below T/k.
var allShortFamilies = []workload.Family{workload.U1_100, workload.U1_10n, workload.U95_105}

// TestAllShortSolveIsListScheduling pins the path a solve takes when its
// converged target has no long job: the short-job pack onto empty machines
// is the whole construction, so with the LPT rule the schedule is
// listsched.LPT's job for job (Solve returns the schedule it built for the
// bounds), and with ShortLS it is listsched.LS's.
func TestAllShortSolveIsListScheduling(t *testing.T) {
	for _, fam := range allShortFamilies {
		in := workload.MustGenerate(workload.Spec{Family: fam, M: 50, N: 2000, Seed: 5})
		for _, tc := range []struct {
			rule ShortRule
			want *pcmax.Schedule
		}{
			{ShortLPT, listsched.LPT(in)},
			{ShortLS, listsched.LS(in)},
		} {
			sched, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3, ShortRule: tc.rule})
			if err != nil {
				t.Fatalf("%v/%v: %v", fam, tc.rule, err)
			}
			if st.LongJobs != 0 || st.ShortJobs != in.N() {
				t.Fatalf("%v/%v: %d long and %d short jobs at T=%d, want 0 and %d",
					fam, tc.rule, st.LongJobs, st.ShortJobs, st.FinalT, in.N())
			}
			if !slices.Equal(sched.Assignment, tc.want.Assignment) {
				t.Fatalf("%v/%v: assignment differs from listsched's", fam, tc.rule)
			}
		}
	}
}

// TestAllShortSolveAllocations pins what an all-short solve allocates: the
// sorted order, the LPT schedule, the bounds and per-solve bookkeeping, plus
// one split per bisection probe. Nothing may grow with n: between n = 2e3
// and n = 1e5 the allocation count may rise by at most the extra probes.
// A per-probe pass that collects the short jobs, or a short-job pack that
// re-sorts them, allocates more as n grows and fails here.
func TestAllShortSolveAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 1e5-job instances")
	}
	for _, fam := range allShortFamilies[:2] {
		type point struct {
			allocs float64
			probes int
		}
		var pts []point
		for _, n := range []int{2000, 100000} {
			in := workload.MustGenerate(workload.Spec{Family: fam, M: 50, N: n, Seed: 5})
			var st *Stats
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if _, st, err = Solve(context.Background(), in, Options{Epsilon: 0.3}); err != nil {
					t.Fatal(err)
				}
			})
			if st.LongJobs != 0 {
				t.Fatalf("%v n=%d: %d long jobs; the instance no longer exercises the all-short path", fam, n, st.LongJobs)
			}
			pts = append(pts, point{allocs, st.Iterations})
		}
		small, large := pts[0], pts[1]
		if limit := small.allocs + float64(max(0, large.probes-small.probes)); large.allocs > limit {
			t.Errorf("%v: %.0f allocations at n=1e5 (%d probes) vs %.0f at n=2e3 (%d probes); at most %.0f allowed",
				fam, large.allocs, large.probes, small.allocs, small.probes, limit)
		}
		t.Logf("%v: %.0f allocations, %d probes at n=2e3; %.0f, %d at n=1e5",
			fam, small.allocs, small.probes, large.allocs, large.probes)
	}
}
