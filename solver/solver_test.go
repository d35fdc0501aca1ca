package solver_test

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dp"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

func sampleInstance() *pcmax.Instance {
	return workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 5, N: 30, Seed: 12})
}

func TestLSValid(t *testing.T) {
	in := sampleInstance()
	s, err := solver.LS(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestLPTValid(t *testing.T) {
	in := sampleInstance()
	s, err := solver.LPT(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestMultiFitValid(t *testing.T) {
	in := sampleInstance()
	s, err := solver.MultiFit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestAllRejectInvalidInstances(t *testing.T) {
	bad := &pcmax.Instance{M: 0, Times: []pcmax.Time{1}}
	if _, err := solver.LS(context.Background(), bad); err == nil {
		t.Fatal("LS accepted invalid instance")
	}
	if _, err := solver.LPT(context.Background(), bad); err == nil {
		t.Fatal("LPT accepted invalid instance")
	}
	if _, err := solver.MultiFit(context.Background(), bad); err == nil {
		t.Fatal("MultiFit accepted invalid instance")
	}
	if _, _, err := solver.PTAS(context.Background(), bad, solver.DefaultPTASOptions()); err == nil {
		t.Fatal("PTAS accepted invalid instance")
	}
	if _, _, err := solver.Exact(context.Background(), bad, solver.ExactOptions{}); err == nil {
		t.Fatal("Exact accepted invalid instance")
	}
}

func TestPTASDefaultsMatchPaper(t *testing.T) {
	opts := solver.DefaultPTASOptions()
	if opts.Epsilon != 0.3 || opts.Workers != 1 {
		t.Fatalf("defaults = %+v", opts)
	}
	in := sampleInstance()
	s, st, err := solver.PTAS(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 4 {
		t.Fatalf("k = %d, want 4 for eps=0.3", st.K)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestPTASRejectsZeroOptions(t *testing.T) {
	if _, _, err := solver.PTAS(context.Background(), sampleInstance(), solver.PTASOptions{}); err == nil {
		t.Fatal("zero options (eps=0) must be rejected")
	}
}

func TestPTASVariantsAgree(t *testing.T) {
	in := sampleInstance()
	base := solver.DefaultPTASOptions()
	ref, _, err := solver.PTAS(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []solver.PTASOptions{
		{Epsilon: 0.3, Workers: 4},
		{Epsilon: 0.3, Workers: 1, PaperFaithful: true},
		{Epsilon: 0.3, Workers: 4, PaperFaithful: true},
		{Epsilon: 0.3, Workers: 1, ShortJobsLS: false},
	}
	for i, opts := range variants {
		got, _, err := solver.PTAS(context.Background(), in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got.Makespan(in) != ref.Makespan(in) {
			t.Fatalf("variant %d: makespan %d != %d", i, got.Makespan(in), ref.Makespan(in))
		}
	}
}

func TestPTASAdaptiveFillReportsRouting(t *testing.T) {
	// Every default solve runs the production fill. On an instance whose
	// tables reach the slab-phase plan, a 4-worker solve runs their phases
	// on the pool: the schedules agree, PTASStats.Auto counts those levels
	// as parallel, and the levels sum to the 1-worker solve's.
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 12, N: 39, Seed: 1})
	seq := solver.DefaultPTASOptions()
	seq.Epsilon = 0.2
	ref, refSt, err := solver.PTAS(context.Background(), in, seq)
	if err != nil {
		t.Fatal(err)
	}
	if refSt.TotalEntriesFilled == 0 {
		t.Fatal("instance has no long jobs; pick a seed whose solve fills DP tables")
	}
	if refSt.Auto.LevelsInline == 0 || refSt.Auto.LevelsParallel != 0 {
		t.Fatalf("PTASStats.Auto after a 1-worker solve: %+v, want every level inline", refSt.Auto)
	}
	par := seq
	par.Workers = 4
	got, st, err := solver.PTAS(context.Background(), in, par)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan(in) != ref.Makespan(in) {
		t.Fatalf("4-worker makespan %d != 1-worker %d", got.Makespan(in), ref.Makespan(in))
	}
	if st.Auto.LevelsParallel == 0 || st.Auto.LevelsInline+st.Auto.LevelsParallel != refSt.Auto.LevelsInline {
		t.Fatalf("PTASStats.Auto %+v at 4 workers, %+v at 1: want the planned tables' levels on the pool", st.Auto, refSt.Auto)
	}
	// PaperFaithful runs the paper's per-level dispatch: no production
	// fill levels.
	pf := par
	pf.PaperFaithful = true
	_, pfSt, err := solver.PTAS(context.Background(), in, pf)
	if err != nil {
		t.Fatal(err)
	}
	if pfSt.Auto.LevelsInline+pfSt.Auto.LevelsFused+pfSt.Auto.LevelsParallel != 0 {
		t.Fatalf("paper-faithful solve reported adaptive routing: %+v", pfSt.Auto)
	}
}

func TestPTASShortJobsLSMayDifferButIsValid(t *testing.T) {
	in := sampleInstance()
	s, _, err := solver.PTAS(context.Background(), in, solver.PTASOptions{Epsilon: 0.3, Workers: 1, ShortJobsLS: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryKeepsPTASOptionsWithDefaultEpsilon is the regression test for
// the registry's zero-Epsilon defaulting, which used to replace the caller's
// PTAS options wholesale and keep only Workers: a table budget of one entry
// must fail the solve whether or not Epsilon is set.
func TestRegistryKeepsPTASOptionsWithDefaultEpsilon(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 8, N: 60, Seed: 11})
	for _, eps := range []float64{0, 0.3} {
		opts := solver.Options{PTAS: solver.PTASOptions{Epsilon: eps, MaxTableEntries: 1}}
		if _, _, err := solver.Solve(context.Background(), "ptas", in, opts); !errors.Is(err, dp.ErrTableTooLarge) {
			t.Fatalf("eps=%v: want dp.ErrTableTooLarge, got %v", eps, err)
		}
	}
}

func TestPTASTableBudgetError(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.Um_2m1, M: 20, N: 41, Seed: 2})
	opts := solver.DefaultPTASOptions()
	opts.MaxTableEntries = 2
	if _, _, err := solver.PTAS(context.Background(), in, opts); err == nil {
		t.Fatal("want table budget error")
	}
}

func TestExactOptimalAndOrdered(t *testing.T) {
	in := sampleInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, res, err := solver.Exact(ctx, in, solver.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("small instance not proved optimal")
	}
	if res.Makespan != s.Makespan(in) || res.Makespan < res.LowerBound {
		t.Fatalf("inconsistent result %+v vs schedule %d", res, s.Makespan(in))
	}
}

func TestEndToEndOrderingProperty(t *testing.T) {
	// Fundamental ordering on every random instance:
	// opt <= PTAS <= (1+eps)*opt, opt <= LPT, opt <= MultiFit, opt <= LS.
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%5) + 1
		n := int(nRaw%25) + 1
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(99))
		}
		in := &pcmax.Instance{M: m, Times: times}
		exactS, res, err := solver.Exact(context.Background(), in, solver.ExactOptions{})
		if err != nil || !res.Optimal {
			return false
		}
		opt := exactS.Makespan(in)
		ptas, _, err := solver.PTAS(context.Background(), in, solver.DefaultPTASOptions())
		if err != nil {
			return false
		}
		lpt, err := solver.LPT(context.Background(), in)
		if err != nil {
			return false
		}
		ls, err := solver.LS(context.Background(), in)
		if err != nil {
			return false
		}
		mf, err := solver.MultiFit(context.Background(), in)
		if err != nil {
			return false
		}
		return ptas.Makespan(in) >= opt &&
			float64(ptas.Makespan(in)) <= 1.3*float64(opt)+1e-9 &&
			lpt.Makespan(in) >= opt &&
			ls.Makespan(in) >= opt &&
			mf.Makespan(in) >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
