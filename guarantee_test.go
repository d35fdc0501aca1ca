package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/solver"
)

// TestGuaranteeAcrossFamiliesAndEpsilons is the repository's capstone
// property: on every paper instance family and a grid of epsilons, the
// public PTAS keeps its (1+eps) guarantee against certified optima, and the
// algorithm ordering opt <= PTAS, LPT, LS holds.
func TestGuaranteeAcrossFamiliesAndEpsilons(t *testing.T) {
	if testing.Short() {
		t.Skip("capstone sweep is not short")
	}
	for _, fam := range workload.Families {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			m, n := 6, 30
			if fam == workload.Um_2m1 {
				n = 2*m + 1
			}
			for rep := 0; rep < 3; rep++ {
				in := workload.MustGenerate(workload.Spec{Family: fam, M: m, N: n, Seed: 555 + uint64(rep)})
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				_, res, err := solver.Exact(ctx, in, solver.ExactOptions{})
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Optimal {
					t.Skipf("optimum not certified on rep %d", rep)
				}
				opt := float64(res.Makespan)
				for _, eps := range []float64{0.2, 0.3, 0.5, 1.0} {
					opts := solver.DefaultPTASOptions()
					opts.Epsilon = eps
					opts.Workers = 2
					sched, _, err := solver.PTAS(context.Background(), in, opts)
					if err != nil {
						t.Fatalf("eps=%v rep=%d: %v", eps, rep, err)
					}
					if got := float64(sched.Makespan(in)); got > (1+eps)*opt+1e-9 {
						t.Fatalf("eps=%v rep=%d: makespan %v > (1+eps)*opt (%v)", eps, rep, got, opt)
					}
					if float64(sched.Makespan(in)) < opt {
						t.Fatalf("eps=%v rep=%d: beat the certified optimum", eps, rep)
					}
				}
			}
		})
	}
}
