package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cancel"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/simsched"
	"repro/internal/workload"
	"repro/pcmax"
)

func TestKForValues(t *testing.T) {
	cases := []struct {
		eps  float64
		want int
	}{
		{0.3, 4}, {0.25, 4}, {0.5, 2}, {1.0, 1}, {2.0, 1},
		{1.0 / 3.0, 3}, {0.1, 10}, {0.2, 5},
	}
	for _, c := range cases {
		got, err := KFor(c.eps)
		if err != nil {
			t.Fatalf("KFor(%v): %v", c.eps, err)
		}
		if got != c.want {
			t.Fatalf("KFor(%v) = %d, want %d", c.eps, got, c.want)
		}
	}
}

func TestKForErrors(t *testing.T) {
	for _, eps := range []float64{0, -0.1, math.NaN()} {
		if _, err := KFor(eps); !errors.Is(err, ErrBadEpsilon) {
			t.Fatalf("KFor(%v): want ErrBadEpsilon, got %v", eps, err)
		}
	}
	if _, err := KFor(1e-9); !errors.Is(err, ErrEpsilonTooSmall) {
		t.Fatalf("want ErrEpsilonTooSmall, got %v", err)
	}
}

func TestSolveRejectsBadEpsilon(t *testing.T) {
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{3}}
	if _, _, err := Solve(context.Background(), in, Options{Epsilon: 0}); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("want ErrBadEpsilon, got %v", err)
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	in := &pcmax.Instance{M: 0, Times: []pcmax.Time{3}}
	if _, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3}); err == nil {
		t.Fatal("want validation error")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	in := &pcmax.Instance{M: 3}
	sched, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan(in) != 0 || st.Iterations != 0 {
		t.Fatalf("empty instance: makespan %d, iterations %d", sched.Makespan(in), st.Iterations)
	}
}

func TestSolveSingleJob(t *testing.T) {
	in := &pcmax.Instance{M: 3, Times: []pcmax.Time{42}}
	sched, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(in); got != 42 {
		t.Fatalf("makespan = %d, want 42", got)
	}
}

func TestSolveSingleMachine(t *testing.T) {
	in := &pcmax.Instance{M: 1, Times: []pcmax.Time{5, 9, 3}}
	sched, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(in); got != 17 {
		t.Fatalf("makespan = %d, want 17 (everything on the one machine)", got)
	}
}

func TestSolveEqualJobsExact(t *testing.T) {
	// 2m equal jobs: optimal is 2t, and the PTAS must find it (T = 2t is
	// feasible, T = 2t-1 is not).
	in := &pcmax.Instance{M: 4, Times: []pcmax.Time{9, 9, 9, 9, 9, 9, 9, 9}}
	sched, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(in); got != 18 {
		t.Fatalf("makespan = %d, want 18", got)
	}
	if st.FinalT != 18 {
		t.Fatalf("final T = %d, want 18", st.FinalT)
	}
}

func TestSolveMoreMachinesThanJobs(t *testing.T) {
	in := &pcmax.Instance{M: 10, Times: []pcmax.Time{7, 5, 3}}
	sched, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(in); got != 7 {
		t.Fatalf("makespan = %d, want 7", got)
	}
}

func TestSolveLargeEpsilonIsPureLPT(t *testing.T) {
	// eps >= 1 makes every job short (t <= T/1 always holds at T >= max),
	// so the result is exactly the LPT schedule.
	src := rng.New(5)
	times := make([]pcmax.Time, 30)
	for j := range times {
		times[j] = pcmax.Time(1 + src.Int64n(50))
	}
	in := &pcmax.Instance{M: 4, Times: times}
	sched, st, err := Solve(context.Background(), in, Options{Epsilon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if st.LongJobs != 0 {
		t.Fatalf("eps=1 produced %d long jobs", st.LongJobs)
	}
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSanity(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 8, N: 60, Seed: 4})
	_, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 4 {
		t.Fatalf("k = %d", st.K)
	}
	// The initial brackets are the paper's equations (1)-(2) tightened by an
	// LPT pass (lb.FromLPT and LPT's makespan), so they may be strictly
	// inside the equations' interval — but must still bracket each other.
	if st.LB0 < in.LowerBound() || st.UB0 > in.UpperBound() || st.LB0 > st.UB0 {
		t.Fatalf("bounds %d/%d not within %d/%d", st.LB0, st.UB0, in.LowerBound(), in.UpperBound())
	}
	if st.FinalT < st.LB0 || st.FinalT > st.UB0 {
		t.Fatalf("final T %d outside [%d,%d]", st.FinalT, st.LB0, st.UB0)
	}
	// Bisection halves the interval each step.
	width := st.UB0 - st.LB0
	maxIter := 1
	for width > 0 {
		width /= 2
		maxIter++
	}
	if st.Iterations > maxIter {
		t.Fatalf("%d iterations for interval %d", st.Iterations, st.UB0-st.LB0)
	}
	if st.LongJobs+st.ShortJobs != in.N() {
		t.Fatalf("long %d + short %d != n %d", st.LongJobs, st.ShortJobs, in.N())
	}
	if st.MachinesUsed > in.M {
		t.Fatalf("machines used %d > m %d", st.MachinesUsed, in.M)
	}
}

func TestFinalTNeverBelowOptimum(t *testing.T) {
	// The bisection's invariant LB <= OPT means FinalT <= OPT; combined
	// with the makespan guarantee this is the dual approximation at work.
	src := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		m := 2 + src.Intn(3)
		n := 3 + src.Intn(8)
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(30))
		}
		in := &pcmax.Instance{M: m, Times: times}
		_, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		if st.FinalT > opt.Makespan(in) {
			t.Fatalf("trial %d: final T %d > OPT %d (times %v, m=%d)",
				trial, st.FinalT, opt.Makespan(in), times, m)
		}
	}
}

func TestShortRuleLSStillWithinGuarantee(t *testing.T) {
	src := rng.New(13)
	for trial := 0; trial < 30; trial++ {
		m := 2 + src.Intn(3)
		n := 4 + src.Intn(8)
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(40))
		}
		in := &pcmax.Instance{M: m, Times: times}
		sched, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3, ShortRule: ShortLS})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		if float64(sched.Makespan(in)) > 1.3*float64(opt.Makespan(in))+1e-9 {
			t.Fatalf("trial %d: LS short rule broke the guarantee: %d vs opt %d",
				trial, sched.Makespan(in), opt.Makespan(in))
		}
	}
}

func TestShortRuleLPTNeverWorseThanLSHere(t *testing.T) {
	// The paper's claim for switching to LPT: better in practice. Compare
	// on the speedup families; allow rare ties going either way but LPT
	// must win on aggregate.
	var lptTotal, lsTotal pcmax.Time
	for _, fam := range workload.SpeedupFamilies {
		for rep := 0; rep < 5; rep++ {
			in := workload.MustGenerate(workload.Spec{Family: fam, M: 6, N: 40, Seed: uint64(100 + rep)})
			a, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3, ShortRule: ShortLPT})
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3, ShortRule: ShortLS})
			if err != nil {
				t.Fatal(err)
			}
			lptTotal += a.Makespan(in)
			lsTotal += b.Makespan(in)
		}
	}
	if lptTotal > lsTotal {
		t.Fatalf("LPT short rule worse on aggregate: %d vs %d", lptTotal, lsTotal)
	}
}

func TestPaperFaithfulVariantsIdenticalMakespan(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 8, N: 50, Seed: 21})
	ref, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{Epsilon: 0.3, PaperFaithful: true},
		{Epsilon: 0.3, Workers: 3, PaperFaithful: true},
		{Epsilon: 0.3, Workers: 5, PaperFaithful: true},
		{Epsilon: 0.3, Workers: 5},
	}
	for i, opts := range variants {
		got, _, err := Solve(context.Background(), in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got.Makespan(in) != ref.Makespan(in) {
			t.Fatalf("variant %d makespan %d != reference %d", i, got.Makespan(in), ref.Makespan(in))
		}
	}
}

func TestTableBudgetError(t *testing.T) {
	// A tiny entry budget must surface dp.ErrTableTooLarge through Solve.
	in := workload.MustGenerate(workload.Spec{Family: workload.Um_2m1, M: 20, N: 41, Seed: 1})
	_, _, err := Solve(context.Background(), in, Options{Epsilon: 0.3, MaxTableEntries: 4})
	if !errors.Is(err, dp.ErrTableTooLarge) {
		t.Fatalf("want ErrTableTooLarge, got %v", err)
	}
}

func TestProfileCollection(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 8, N: 60, Seed: 9})
	profile := &simsched.Profile{}
	_, st, err := Solve(context.Background(), in, Options{Epsilon: 0.3, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	if len(profile.Levels) != len(profile.Configs) {
		t.Fatalf("profile shape: %d levels, %d configs", len(profile.Levels), len(profile.Configs))
	}
	if len(profile.Levels) == 0 {
		t.Fatal("no profile collected")
	}
	if profile.SeqFill != st.FillTime {
		t.Fatalf("profile fill %v != stats fill %v", profile.SeqFill, st.FillTime)
	}
	// Each iteration's level sizes must sum to that table's sigma; check
	// total against TotalEntriesFilled.
	var sum int64
	for _, levels := range profile.Levels {
		for _, q := range levels {
			sum += q
		}
	}
	if sum != st.TotalEntriesFilled {
		t.Fatalf("profile entries %d != stats %d", sum, st.TotalEntriesFilled)
	}
}

func TestGuaranteeAcrossEpsilonsProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw, epsRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%4) + 1
		n := int(nRaw%10) + 1
		epsChoices := []float64{0.2, 0.3, 0.5, 0.8}
		eps := epsChoices[int(epsRaw)%len(epsChoices)]
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(60))
		}
		in := &pcmax.Instance{M: m, Times: times}
		sched, _, err := Solve(context.Background(), in, Options{Epsilon: eps})
		if err != nil || sched.Validate(in) != nil {
			return false
		}
		opt, err := exact.BruteForce(in)
		if err != nil {
			return false
		}
		return float64(sched.Makespan(in)) <= (1+eps)*float64(opt.Makespan(in))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitInvariantsProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, tRaw uint16) bool {
		src := rng.New(seed)
		k := int(kRaw%8) + 1
		T := pcmax.Time(tRaw%2000) + 1
		n := 1 + src.Intn(40)
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(int64(T))) // every job <= T
		}
		in := &pcmax.Instance{M: 3, Times: times}
		sp, err := newSplit(in, in.SortedIndex(), k, T)
		if err != nil {
			return false
		}
		short, buckets := sp.order[sp.nLong:], sp.buckets(in)
		// Partition is exact.
		total := len(short)
		for _, b := range buckets {
			total += len(b)
		}
		if total != n || len(sp.order) != n {
			return false
		}
		// Short jobs satisfy t < k*u (the integer-robust threshold; see
		// round.go); long jobs land in the right class.
		k2 := pcmax.Time(k) * pcmax.Time(k)
		u := (T + k2 - 1) / k2
		if sp.u != u {
			return false
		}
		threshold := pcmax.Time(k) * u
		for _, j := range short {
			if in.Times[j] >= threshold {
				return false
			}
		}
		for c, b := range buckets {
			size := sp.sizes[c]
			// Classes sit on the grid within [k*u, k^2*u]: exactly the
			// invariant the (1+1/k)T long-load bound needs.
			if size%u != 0 || size < threshold || size > k2*u {
				return false
			}
			if len(b) != sp.counts[c] {
				return false
			}
			for _, j := range b {
				tj := in.Times[j]
				if tj < threshold {
					return false // long job misclassified
				}
				if size > tj || tj >= size+u {
					return false // rounding window violated
				}
			}
		}
		// Sizes strictly ascending.
		for c := 1; c < len(sp.sizes); c++ {
			if sp.sizes[c-1] >= sp.sizes[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionStringsAndDefaults(t *testing.T) {
	if ShortLPT.String() != "LPT" || ShortLS.String() != "LS" {
		t.Fatal("short-rule names changed")
	}
	if ShortRule(9).String() == "" {
		t.Fatal("unknown short rule should render")
	}
	def := DefaultOptions()
	if def.Epsilon != 0.3 || def.Workers != 1 {
		t.Fatalf("defaults = %+v, want the paper's configuration", def)
	}
}

// TestTimeLimit bounds solves with a context deadline, the one way to
// limit a solve's time.
func TestTimeLimit(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 8, N: 60, Seed: 2})
	solveWithin := func(d time.Duration, opts Options) error {
		ctx, cancelFn := context.WithTimeout(context.Background(), d)
		defer cancelFn()
		_, _, err := Solve(ctx, in, opts)
		return err
	}
	// A zero-duration-ish limit must trip before the first probe.
	if err := solveWithin(time.Nanosecond, Options{Epsilon: 0.3}); !errors.Is(err, cancel.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	// A generous limit must not interfere.
	if err := solveWithin(time.Minute, Options{Epsilon: 0.3}); err != nil {
		t.Fatalf("generous limit failed: %v", err)
	}
}
