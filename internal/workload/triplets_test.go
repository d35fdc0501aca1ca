package workload_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/listsched"
	"repro/internal/workload"
	"repro/pcmax"
)

func TestTripletsShape(t *testing.T) {
	for _, m := range []int{1, 2, 5, 10} {
		in, err := workload.Triplets(m, 120, uint64(m))
		if err != nil {
			t.Fatal(err)
		}
		if in.M != m || in.N() != 3*m {
			t.Fatalf("m=%d: got n=%d, want %d", m, in.N(), 3*m)
		}
		if got, want := in.TotalTime(), pcmax.Time(120*m); got != want {
			t.Fatalf("m=%d: total %d, want %d", m, got, want)
		}
		if got := in.LowerBound(); got != 120 {
			t.Fatalf("m=%d: lower bound %d, want 120 (perfect partition)", m, got)
		}
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTripletsDeterministic(t *testing.T) {
	a, err := workload.Triplets(6, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Triplets(6, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Times {
		if a.Times[j] != b.Times[j] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTripletsOptimumIsB(t *testing.T) {
	// A perfect schedule with makespan exactly B exists by construction;
	// the exact solver must find it.
	for _, m := range []int{2, 4, 6, 8} {
		in, err := workload.Triplets(m, 100, uint64(3*m))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		_, res, err := exact.Solve(ctx, in, exact.Options{})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Makespan != 100 {
			t.Fatalf("m=%d: makespan %d (optimal %v), want 100", m, res.Makespan, res.Optimal)
		}
	}
}

func TestTripletsHardForLPT(t *testing.T) {
	// Not a theorem per instance, but across seeds LPT should miss the
	// perfect partition on a solid fraction of triplet instances — that is
	// the point of the family.
	misses := 0
	for seed := uint64(0); seed < 20; seed++ {
		in, err := workload.Triplets(8, 999, seed)
		if err != nil {
			t.Fatal(err)
		}
		if listsched.LPT(in).Makespan(in) > 999 {
			misses++
		}
	}
	if misses < 5 {
		t.Fatalf("LPT solved %d/20 triplet instances perfectly; family too easy", 20-misses)
	}
}

func TestTripletsErrors(t *testing.T) {
	if _, err := workload.Triplets(0, 100, 1); err == nil {
		t.Fatal("want error for m=0")
	}
	if _, err := workload.Triplets(3, 5, 1); err == nil {
		t.Fatal("want error for tiny B")
	}
}
