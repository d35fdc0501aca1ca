package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/workload"
)

// TestSmokePaperScale exercises the paper's largest instance shape
// (m=20, n=100, eps=0.3) across all four speedup families, checking that
// sequential and parallel agree and that the exact solver confirms the
// (1+eps) guarantee.
func TestSmokePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke is not short")
	}
	for _, fam := range workload.SpeedupFamilies {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			in := workload.MustGenerate(workload.Spec{Family: fam, M: 20, N: 100, Seed: 42})
			t0 := time.Now()
			seq, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3, Workers: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			seqDur := time.Since(t0)
			t0 = time.Now()
			parSched, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3, Workers: runtime.GOMAXPROCS(0), PaperFaithful: true})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			parDur := time.Since(t0)
			if seq.Makespan(in) != parSched.Makespan(in) {
				t.Fatalf("parallel makespan %d != sequential %d", parSched.Makespan(in), seq.Makespan(in))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, res, err := exact.Solve(ctx, in, exact.Options{})
			cancel()
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			ms := seq.Makespan(in)
			t.Logf("seq=%v par=%v iter=%d sigma=%d configs=%d long=%d ptas=%d opt=%d (optimal=%v, nodes=%d) ratio=%.4f",
				seqDur, parDur, st.Iterations, st.TableEntries, st.Configs, st.LongJobs,
				ms, res.Makespan, res.Optimal, res.Nodes, float64(ms)/float64(res.Makespan))
			if res.Optimal && float64(ms) > 1.3*float64(res.Makespan) {
				t.Fatalf("ratio %.4f exceeds 1.3", float64(ms)/float64(res.Makespan))
			}
		})
	}
}
