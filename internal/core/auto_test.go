package core

import (
	"context"
	"testing"

	"repro/internal/dp"
	"repro/internal/workload"
)

// TestAutoFillMatchesSequential checks the production fill end to end: at
// any worker count it produces the paper's sequential Algorithm 2 schedule,
// and Stats.Auto accounts for every anti-diagonal level the bisection
// filled, while a PaperFaithful solve reports none.
func TestAutoFillMatchesSequential(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 8, N: 60, Seed: 11})
	ref, refSt, err := Solve(context.Background(), in, Options{Epsilon: 0.3, PaperFaithful: true})
	if err != nil {
		t.Fatal(err)
	}
	if refSt.Auto != (dp.AutoStats{}) {
		t.Fatalf("paper-faithful solve reported production-fill levels: %+v", refSt.Auto)
	}
	for _, workers := range []int{1, 4} {
		got, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan(in) != ref.Makespan(in) {
			t.Fatalf("workers=%d: production makespan %d != Algorithm 2's %d", workers, got.Makespan(in), ref.Makespan(in))
		}
		if st.Auto.LevelsInline == 0 || st.Auto.LevelsFused+st.Auto.LevelsParallel != 0 {
			t.Fatalf("workers=%d: Stats.Auto %+v, want every level inline", workers, st.Auto)
		}
	}
}
