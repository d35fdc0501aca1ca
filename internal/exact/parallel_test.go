package exact

import (
	"context"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
)

func TestSolveParallelMatchesSequentialProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw, wRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%5) + 1
		n := int(nRaw%20) + 1
		workers := int(wRaw%6) + 1
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(80))
		}
		in := &pcmax.Instance{M: m, Times: times}
		seq, rs, err := Solve(context.Background(), in, Options{})
		if err != nil || !rs.Optimal {
			return false
		}
		par, rp, err := SolveParallel(context.Background(), in, Options{}, workers)
		if err != nil || !rp.Optimal {
			return false
		}
		return par.Validate(in) == nil &&
			par.Makespan(in) == seq.Makespan(in) &&
			rp.Makespan == rs.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveParallelOnTriplets(t *testing.T) {
	// The hard family: the parallel solver must still prove the optimum B.
	for _, m := range []int{4, 6, 8} {
		in, err := workload.Triplets(m, 300, uint64(m))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancelFn := context.WithTimeout(context.Background(), 30*time.Second)
		_, res, err := SolveParallel(ctx, in, Options{}, 4)
		cancelFn()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Makespan != 300 {
			t.Fatalf("m=%d: makespan %d optimal=%v, want 300", m, res.Makespan, res.Optimal)
		}
	}
}

func TestSolveParallelEmptyAndTrivial(t *testing.T) {
	empty := &pcmax.Instance{M: 3}
	_, res, err := SolveParallel(context.Background(), empty, Options{}, 4)
	if err != nil || !res.Optimal || res.Makespan != 0 {
		t.Fatalf("empty: %+v %v", res, err)
	}
	one := &pcmax.Instance{M: 1, Times: []pcmax.Time{5, 6}}
	sched, res, err := SolveParallel(context.Background(), one, Options{}, 4)
	if err != nil || !res.Optimal || sched.Makespan(one) != 11 {
		t.Fatalf("m=1: %+v %v", res, err)
	}
}

func TestSolveParallelNodeBudget(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U95_105, M: 10, N: 37, Seed: 44})
	sched, res, err := SolveParallel(context.Background(), in, Options{NodeLimit: 50}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
	// The returned incumbent must still be a real schedule no worse than
	// the heuristics can certify.
	if res.Makespan < res.LowerBound {
		t.Fatalf("makespan %d below bound %d", res.Makespan, res.LowerBound)
	}
}

func TestSolveParallelWorkerCountClamped(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 4, N: 20, Seed: 5})
	a, ra, err := SolveParallel(context.Background(), in, Options{}, 0) // clamped to 1
	if err != nil || !ra.Optimal {
		t.Fatal(err)
	}
	b, rb, err := SolveParallel(context.Background(), in, Options{}, 16)
	if err != nil || !rb.Optimal {
		t.Fatal(err)
	}
	if a.Makespan(in) != b.Makespan(in) {
		t.Fatalf("worker counts disagree: %d vs %d", a.Makespan(in), b.Makespan(in))
	}
}

// TestSolveParallelReleasesWorkers checks that SolveParallel stops the pool
// its split probes start, whichever way the search ends: a solve that finds
// a packing, one whose probes all fail, one that hits NodeLimit and one that
// is canceled. The first probe of each splits at the root, so each starts
// the pool, and once the solve returns the goroutine count is back at its
// baseline.
func TestSolveParallelReleasesWorkers(t *testing.T) {
	canceled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		in      *pcmax.Instance
		opts    Options
		optimal bool
	}{
		{"finds-packing", context.Background(),
			&pcmax.Instance{M: 3, Times: []pcmax.Time{67, 43, 22, 23, 73, 27, 67, 75, 50, 30, 69, 67}}, Options{}, true},
		{"exhausts", context.Background(),
			&pcmax.Instance{M: 4, Times: []pcmax.Time{52, 35, 33, 43, 66, 25, 41, 72, 70, 77}}, Options{}, true},
		{"node-limit", context.Background(),
			&pcmax.Instance{M: 4, Times: []pcmax.Time{52, 35, 33, 43, 66, 25, 41, 72, 70, 77}}, Options{NodeLimit: 20}, false},
		{"canceled", canceled,
			workload.MustGenerate(workload.Spec{Family: workload.U95_105, M: 10, N: 37, Seed: 1}), Options{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sched, res, err := SolveParallel(tc.ctx, tc.in, tc.opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Validate(tc.in); err != nil {
				t.Fatal(err)
			}
			if res.Optimal != tc.optimal {
				t.Fatalf("Optimal = %v, want %v (%+v)", res.Optimal, tc.optimal, res)
			}
			// Close returns once every worker is done; the goroutines may
			// take a moment longer to exit.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("goroutines outlived the solve: before=%d now=%d", before, now)
			}
		})
	}
}

func TestCollectCompletionsCoverage(t *testing.T) {
	// Bin 0 completions at capacity 10 for jobs 6,4,4,3: seed 6, then the
	// maximal completions are {6,4(first)} and {6,3}; excluding both 4s and
	// the 3 would leave the bin non-maximal, so exactly 2 tasks.
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{6, 4, 4, 3}}
	s := newSearcher(nil, in, 1<<30)
	s.workers = 2
	s.c = 10
	tasks := s.split()
	if tasks == nil {
		t.Fatal("no split on a tiny instance")
	}
	if len(tasks) != 2 {
		t.Fatalf("got %d root tasks, want 2", len(tasks))
	}
}
