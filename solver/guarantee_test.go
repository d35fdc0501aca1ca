package solver_test

import (
	"context"
	"testing"

	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// TestSparseGuaranteeAgainstExactOptima is the differential anchor of the
// ptas-sparse registry algorithm: across all six workload families and
// eps in {0.5, 0.2, 0.1}, the sparse schedule's makespan stays within
// (1+eps) of the certified optimum from the branch-and-bound solver.
func TestSparseGuaranteeAgainstExactOptima(t *testing.T) {
	shapes := []struct{ m, n int }{{3, 12}, {4, 16}}
	for _, eps := range []float64{0.5, 0.2, 0.1} {
		for _, fam := range workload.Families {
			for _, sh := range shapes {
				n := sh.n
				m := sh.m
				if fam == workload.Um_2m1 {
					// Sizes are U(m, 2m-1), so OPT scales with m. Small m
					// leaves OPT comparable to k at eps=0.1, where integer
					// rounding's documented additive slop (round.go) exceeds
					// the multiplicative band for faithful and sparse alike;
					// m=12 keeps OPT large enough for the strict ratio while
					// staying certifiable by branch-and-bound.
					m = 12
					n = 2*m + 1
				}
				in := workload.MustGenerate(workload.Spec{Family: fam, M: m, N: n, Seed: 11})

				exactS, res, err := solver.Exact(context.Background(), in, solver.ExactOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Optimal {
					t.Fatalf("%v m=%d n=%d: exact did not certify", fam, m, n)
				}
				opt := exactS.Makespan(in)

				sched, rep, err := mustSparse(t, in, eps)
				if err != nil {
					t.Fatalf("%v m=%d n=%d eps=%v: %v", fam, m, n, eps, err)
				}
				ms := sched.Makespan(in)
				if ms < opt {
					t.Fatalf("%v m=%d n=%d eps=%v: makespan %d below optimum %d", fam, m, n, eps, ms, opt)
				}
				if float64(ms) > (1+eps)*float64(opt)+1e-9 {
					t.Fatalf("%v m=%d n=%d eps=%v: makespan %d exceeds (1+eps)*opt = %.1f (stats %+v)",
						fam, m, n, eps, ms, (1+eps)*float64(opt), rep.PTAS)
				}
				if rep.PTAS == nil {
					t.Fatalf("%v m=%d n=%d eps=%v: registry dispatch returned no PTAS stats", fam, m, n, eps)
				}
			}
		}
	}
}

// mustSparse dispatches ptas-sparse through the registry, validating the
// returned schedule.
func mustSparse(t *testing.T, in *pcmax.Instance, eps float64) (*pcmax.Schedule, solver.Report, error) {
	t.Helper()
	a, err := solver.Lookup("ptas-sparse")
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.Options{PTAS: solver.DefaultPTASOptions()}
	opts.PTAS.Epsilon = eps
	sched, rep, err := a.Solve(context.Background(), in, opts)
	if err != nil {
		return nil, rep, err
	}
	if verr := sched.Validate(in); verr != nil {
		t.Fatalf("invalid sparse schedule: %v", verr)
	}
	return sched, rep, nil
}

// TestSparseNeverWorseThanFaithfulGuarantee runs a 50-instance differential
// suite: on every instance the sparse pipeline's makespan stays within
// (1+eps) of the faithful PTAS's makespan. (When the sparse run certifies its
// target — or falls back — it matches the faithful guarantee exactly; this
// suite pins the composite behavior across families, shapes and seeds.)
func TestSparseNeverWorseThanFaithfulGuarantee(t *testing.T) {
	const eps = 0.2
	count := 0
	for _, fam := range workload.Families {
		for seed := uint64(1); seed <= 9 && count < 50; seed++ {
			m := 2 + int(seed%4)
			n := 3*m + int(seed%7)
			if fam == workload.Um_2m1 {
				n = 2*m + 1
			}
			in := workload.MustGenerate(workload.Spec{Family: fam, M: m, N: n, Seed: seed})
			count++

			fopts := solver.DefaultPTASOptions()
			fopts.Epsilon = eps
			fsched, _, err := solver.PTAS(context.Background(), in, fopts)
			if err != nil {
				t.Fatal(err)
			}
			ssched, rep, err := mustSparse(t, in, eps)
			if err != nil {
				t.Fatalf("%v seed=%d: %v", fam, seed, err)
			}
			fms, sms := fsched.Makespan(in), ssched.Makespan(in)
			if float64(sms) > (1+eps)*float64(fms)+1e-9 {
				t.Fatalf("%v m=%d n=%d seed=%d: sparse %d vs faithful %d exceeds (1+eps) (stats %+v)",
					fam, m, n, seed, sms, fms, rep.PTAS)
			}
		}
	}
	if count < 50 {
		t.Fatalf("suite covered only %d instances", count)
	}
}

// TestSparsePaperFaithfulMatchesProduction is the regression test for
// sparse solves under PaperFaithful. Per-entry enumeration regenerates the
// faithful configuration set, so on a sparse table it reached OPTs through
// configurations the table had pruned, and reconstruction, which walks the
// table's own configurations, failed ("no configuration explains OPT").
// Sparse tables now take the production fill under PaperFaithful too, and
// the faithful T-1 certification probe takes the paper's fill: across the
// six families on three small fig shapes, the result must be the production
// solve's schedule, job for job.
func TestSparsePaperFaithfulMatchesProduction(t *testing.T) {
	shapes := []struct{ m, n int }{{4, 16}, {5, 20}, {6, 30}}
	for _, fam := range workload.Families {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, sh := range shapes {
				in := workload.MustGenerate(workload.Spec{Family: fam, M: sh.m, N: sh.n, Seed: seed})
				opts := solver.DefaultPTASOptions()
				opts.Sparsify = true
				ref, _, err := solver.PTAS(context.Background(), in, opts)
				if err != nil {
					t.Fatalf("%v m=%d n=%d seed=%d: %v", fam, sh.m, sh.n, seed, err)
				}
				for _, workers := range []int{1, 3} {
					pf := opts
					pf.PaperFaithful = true
					pf.Workers = workers
					got, _, err := solver.PTAS(context.Background(), in, pf)
					if err != nil {
						t.Fatalf("%v m=%d n=%d seed=%d workers=%d: paper-faithful: %v", fam, sh.m, sh.n, seed, workers, err)
					}
					for j := range ref.Assignment {
						if got.Assignment[j] != ref.Assignment[j] {
							t.Fatalf("%v m=%d n=%d seed=%d workers=%d: job %d on machine %d, production %d",
								fam, sh.m, sh.n, seed, workers, j, got.Assignment[j], ref.Assignment[j])
						}
					}
				}
			}
		}
	}
}
