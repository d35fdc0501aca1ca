package solver_test

import (
	"context"
	"testing"

	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

func TestSahniExactMatchesExactSolver(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_10, M: 3, N: 20, Seed: 6})
	s, err := solver.Sahni(context.Background(), in, solver.SahniOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := solver.Exact(context.Background(), in, solver.ExactOptions{})
	if err != nil || !res.Optimal {
		t.Fatalf("exact: %v optimal=%v", err, res.Optimal)
	}
	if s.Makespan(in) != res.Makespan {
		t.Fatalf("Sahni %d != optimal %d", s.Makespan(in), res.Makespan)
	}
}

func TestSahniFPTASGuarantee(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 3, N: 25, Seed: 6})
	s, err := solver.Sahni(context.Background(), in, solver.SahniOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := solver.Exact(context.Background(), in, solver.ExactOptions{})
	if err != nil || !res.Optimal {
		t.Fatalf("exact: %v", err)
	}
	if float64(s.Makespan(in)) > 1.2*float64(res.Makespan)+1e-9 {
		t.Fatalf("FPTAS guarantee broken: %d vs %d", s.Makespan(in), res.Makespan)
	}
}

func TestSahniRejectsLargeM(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_10, M: 12, N: 20, Seed: 6})
	if _, err := solver.Sahni(context.Background(), in, solver.SahniOptions{}); err == nil {
		t.Fatal("want machine-limit error")
	}
}

func TestSahniEmptyInstance(t *testing.T) {
	in := &pcmax.Instance{M: 2}
	s, err := solver.Sahni(context.Background(), in, solver.SahniOptions{})
	if err != nil || s.Makespan(in) != 0 {
		t.Fatalf("%v", err)
	}
}

func TestExactParallelWorkers(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 5, N: 30, Seed: 14})
	_, seq, err := solver.Exact(context.Background(), in, solver.ExactOptions{})
	if err != nil || !seq.Optimal {
		t.Fatalf("%v optimal=%v", err, seq.Optimal)
	}
	_, par, err := solver.Exact(context.Background(), in, solver.ExactOptions{Workers: 4})
	if err != nil || !par.Optimal {
		t.Fatalf("%v optimal=%v", err, par.Optimal)
	}
	if seq.Makespan != par.Makespan {
		t.Fatalf("parallel exact %d != sequential %d", par.Makespan, seq.Makespan)
	}
}
