package core

import (
	"context"
	"testing"

	"repro/internal/dp"
	"repro/internal/workload"
)

// TestAutoFillMatchesSequential checks the production fill end to end on an
// instance whose tables reach the slab-phase plan: at any worker count it
// produces the paper's sequential Algorithm 2 schedule, and Stats.Auto
// accounts for every anti-diagonal level the bisection filled, inline at one
// worker and on the pool at four, and for the same relaxations at both,
// while a PaperFaithful solve reports none. Every other Stats field except
// FillTime is the same at both worker counts.
func TestAutoFillMatchesSequential(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 12, N: 39, Seed: 1})
	ref, refSt, err := Solve(context.Background(), in, Options{Epsilon: 0.2, PaperFaithful: true})
	if err != nil {
		t.Fatal(err)
	}
	if refSt.Auto != (dp.AutoStats{}) {
		t.Fatalf("paper-faithful solve reported production-fill levels: %+v", refSt.Auto)
	}
	var one *Stats
	for _, workers := range []int{1, 4} {
		got, st, err := Solve(context.Background(), in, Options{Epsilon: 0.2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan(in) != ref.Makespan(in) {
			t.Fatalf("workers=%d: production makespan %d != Algorithm 2's %d", workers, got.Makespan(in), ref.Makespan(in))
		}
		if workers == 1 {
			if st.Auto.LevelsInline == 0 || st.Auto.LevelsFused+st.Auto.LevelsParallel != 0 {
				t.Fatalf("workers=1: Stats.Auto %+v, want every level inline", st.Auto)
			}
			one = st
			continue
		}
		if st.Auto.LevelsParallel == 0 || st.Auto.LevelsFused != 0 || st.Auto.LevelsInline+st.Auto.LevelsParallel != one.Auto.LevelsInline {
			t.Fatalf("workers=%d: Stats.Auto %+v, want parallel levels summing with the inline ones to the 1-worker %d", workers, st.Auto, one.Auto.LevelsInline)
		}
		if st.Auto.Relaxations == 0 || st.Auto.Relaxations != one.Auto.Relaxations {
			t.Fatalf("workers=%d: %d relaxations, 1 worker %d", workers, st.Auto.Relaxations, one.Auto.Relaxations)
		}
		a, b := *st, *one
		a.FillTime, b.FillTime, a.Auto, b.Auto = 0, 0, dp.AutoStats{}, dp.AutoStats{}
		if a != b {
			t.Fatalf("workers=%d: Stats %+v, 1 worker %+v", workers, a, b)
		}
	}
}

// TestSolvePoolStartsOnFirstSlabFill pins when a solve starts its pool: at
// the first fill that runs on it. A Workers 2 solve whose tables all fill on
// the caller starts none, so it allocates exactly what the 1-worker solve
// does; a solve whose tables have slab phases starts one.
func TestSolvePoolStartsOnFirstSlabFill(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 12, N: 39, Seed: 1})
	allocs := func(eps float64, workers int) (float64, dp.AutoStats) {
		var auto dp.AutoStats
		a := testing.AllocsPerRun(5, func() {
			_, st, err := Solve(context.Background(), in, Options{Epsilon: eps, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			auto = st.Auto
		})
		return a, auto
	}
	one, _ := allocs(0.3, 1)
	two, auto := allocs(0.3, 2)
	if auto.LevelsParallel != 0 {
		t.Fatalf("eps 0.3: %d levels ran on the pool, want a solve of unplanned tables", auto.LevelsParallel)
	}
	if two != one {
		t.Fatalf("eps 0.3: Workers 2 allocated %v times per solve, Workers 1 %v: a solve with no slab phases started a pool", two, one)
	}
	one, _ = allocs(0.2, 1)
	two, auto = allocs(0.2, 2)
	if auto.LevelsParallel == 0 {
		t.Fatal("eps 0.2: no level ran on the pool")
	}
	if two <= one {
		t.Fatalf("eps 0.2: Workers 2 allocated %v times per solve, Workers 1 %v: the pool's allocations are not visible", two, one)
	}
}
