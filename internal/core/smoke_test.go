package core

import (
	"context"
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/pcmax"
)

// TestSmokePTASAgainstBruteForce cross-checks the full PTAS pipeline
// (bisection, rounding, DP, reconstruction, short jobs) against the
// brute-force optimum on many small random instances, sequential and
// parallel, and checks the (1+eps) guarantee.
func TestSmokePTASAgainstBruteForce(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 120; trial++ {
		m := 1 + src.Intn(4)
		n := 1 + src.Intn(9)
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(40))
		}
		in := &pcmax.Instance{M: m, Times: times}
		optSched, err := exact.BruteForce(in)
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		opt := optSched.Makespan(in)
		for _, eps := range []float64{0.1, 0.3, 0.5, 1.0} {
			seq, _, err := Solve(context.Background(), in, Options{Epsilon: eps, Workers: 1})
			if err != nil {
				t.Fatalf("trial %d eps=%v: sequential solve: %v", trial, eps, err)
			}
			if err := seq.Validate(in); err != nil {
				t.Fatalf("trial %d eps=%v: invalid schedule: %v", trial, eps, err)
			}
			ms := seq.Makespan(in)
			if float64(ms) > (1+eps)*float64(opt)+1e-9 {
				t.Fatalf("trial %d eps=%v m=%d times=%v: makespan %d > (1+eps)*opt (opt=%d)",
					trial, eps, m, times, ms, opt)
			}
			parSched, _, err := Solve(context.Background(), in, Options{Epsilon: eps, Workers: 4, PaperFaithful: true})
			if err != nil {
				t.Fatalf("trial %d eps=%v: parallel solve: %v", trial, eps, err)
			}
			if pm := parSched.Makespan(in); pm != ms {
				t.Fatalf("trial %d eps=%v: parallel makespan %d != sequential %d", trial, eps, pm, ms)
			}
		}
	}
}
