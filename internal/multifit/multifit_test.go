package multifit_test

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/listsched"
	"repro/internal/multifit"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
)

func TestSolveSimpleOptimal(t *testing.T) {
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{5, 4, 3, 2}}
	s, err := multifit.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(in); got != 7 {
		t.Fatalf("MultiFit makespan = %d, want 7 (optimal)", got)
	}
}

func TestSolveEqualJobs(t *testing.T) {
	in := &pcmax.Instance{M: 3, Times: []pcmax.Time{4, 4, 4, 4, 4, 4}}
	s, err := multifit.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(in); got != 8 {
		t.Fatalf("makespan = %d, want 8", got)
	}
}

func TestSolveSingleMachine(t *testing.T) {
	in := &pcmax.Instance{M: 1, Times: []pcmax.Time{3, 9, 2}}
	s, err := multifit.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(in); got != 14 {
		t.Fatalf("makespan = %d, want 14", got)
	}
}

func TestSolveMoreMachinesThanJobs(t *testing.T) {
	in := &pcmax.Instance{M: 5, Times: []pcmax.Time{8, 2}}
	s, err := multifit.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(in); got != 8 {
		t.Fatalf("makespan = %d, want 8", got)
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	if _, err := multifit.Solve(context.Background(), &pcmax.Instance{M: 0, Times: []pcmax.Time{1}}); err == nil {
		t.Fatal("want validation error")
	}
}

func TestKnownBoundAgainstOptimumProperty(t *testing.T) {
	// MultiFit run to convergence is within 13/11 of optimal (Yue's bound);
	// assert the looser classical 1.22 against brute force.
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%4) + 1
		n := int(nRaw%10) + 1
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(60))
		}
		in := &pcmax.Instance{M: m, Times: times}
		s, err := multifit.Solve(context.Background(), in)
		if err != nil || s.Validate(in) != nil {
			return false
		}
		opt, err := exact.BruteForce(in)
		if err != nil {
			return false
		}
		return float64(s.Makespan(in)) <= 1.22*float64(opt.Makespan(in))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBeatsLPTOnAdversarialFamily(t *testing.T) {

	// LPT-adversarial family: FFD at capacity 3m pairs 2m-j with m+j and
	// fills one bin with the three size-m jobs, so converged MultiFit finds
	// the optimum 3m while LPT is stuck at 4m-1.
	for _, m := range []int{2, 3, 5, 8, 10} {
		in, err := workload.AdversarialLPT(m)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := multifit.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mf.Makespan(in), pcmax.Time(3*m); got != want {
			t.Fatalf("m=%d: MultiFit makespan %d, want %d", m, got, want)
		}
		if lpt := listsched.LPT(in).Makespan(in); mf.Makespan(in) >= lpt {
			t.Fatalf("m=%d: MultiFit %d did not beat LPT %d", m, mf.Makespan(in), lpt)
		}
	}
}
