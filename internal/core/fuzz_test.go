package core

import (
	"context"
	"testing"

	"repro/internal/dp"
	"repro/internal/exact"
	"repro/pcmax"
)

// fuzzEpsilons are the epsilons FuzzSolve draws from: k = 1..5.
var fuzzEpsilons = []float64{1, 0.5, 1.0 / 3, 0.25, 0.2}

// Flag bits of FuzzSolve's flags byte.
const (
	fuzzShortLS = 1 << iota
	fuzzSparse
	fuzzLPTFallback
)

// decodeFuzzSolve maps a fuzz input onto a small instance (m in 1..4, at
// most 10 jobs with times in 1..64, so exact.BruteForce stays cheap) and
// the options of its production solve.
func decodeFuzzSolve(m, epsIdx, flags uint8, times []byte) (*pcmax.Instance, Options) {
	if len(times) > 10 {
		times = times[:10]
	}
	in := &pcmax.Instance{M: 1 + int(m%4), Times: make([]pcmax.Time, len(times))}
	for j, b := range times {
		in.Times[j] = 1 + pcmax.Time(b%64)
	}
	opts := Options{
		Epsilon:     fuzzEpsilons[int(epsIdx)%len(fuzzEpsilons)],
		Workers:     1,
		Sparsify:    flags&fuzzSparse != 0,
		LPTFallback: flags&fuzzLPTFallback != 0,
	}
	if flags&fuzzShortLS != 0 {
		opts.ShortRule = ShortLS
	}
	return in, opts
}

// FuzzSolve is a differential fuzz of the fill switch. Every input is
// solved four ways — the production fill at 1 and at 2 workers, and
// PaperFaithful at 1 and at 2 workers (Algorithm 2, and Algorithm 3 on a
// pool) — which must agree on the assignment and on the bisection's and the
// final table's statistics; the two production solves agree on every
// statistic but the fill time and the level routing.
// Against exact.BruteForce's optimum OPT it checks the converged target
// (FinalT <= OPT, unless a sparse run stayed uncertified) and, when the LPT
// fallback caps the integer-rounding slop (eps >= 1/3), the (1+eps)
// guarantee.
func FuzzSolve(f *testing.F) {
	// Each seed's times are given as t-1, so the decode 1 + b%64 restores
	// every time up to 64 and maps larger ones into range.
	//
	// TestIntegerRoundingRegression's instance, U(m,2m-1) m=6 n=13 seed 556,
	// cut to its first ten jobs on four machines, at eps 0.5 and 1/3.
	rounding := []byte{9, 9, 6, 10, 10, 10, 9, 9, 6, 7}
	f.Add(uint8(3), uint8(1), uint8(fuzzLPTFallback), rounding)
	f.Add(uint8(3), uint8(2), uint8(0), rounding)
	// The instances that made sparse solves fail under PaperFaithful
	// ("no configuration explains OPT") before sparse tables left the
	// per-entry enumeration: U(95,105) m=5 n=20 seed 1 and U(1,2m-1) m=6
	// n=30 seed 4, at eps 0.3. Cut to ten jobs on four machines they no
	// longer fail, so two failing instances of the decodable range, both at
	// m=2 and eps 0.2, are added beside them.
	f.Add(uint8(3), uint8(2), uint8(fuzzSparse), []byte{94, 103, 98, 94, 100, 98, 100, 96, 99, 102})
	f.Add(uint8(3), uint8(2), uint8(fuzzSparse), []byte{6, 3, 8, 6, 1, 10, 8, 5, 1, 6})
	f.Add(uint8(1), uint8(4), uint8(fuzzSparse), []byte{46, 52, 56, 58, 40, 50, 63, 47})
	f.Add(uint8(1), uint8(4), uint8(fuzzSparse|fuzzLPTFallback), []byte{44, 52, 51, 4, 46, 43, 50, 55, 14, 54})
	f.Add(uint8(0), uint8(0), uint8(fuzzShortLS), []byte{63, 0, 17})
	f.Add(uint8(2), uint8(3), uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, m, epsIdx, flags uint8, times []byte) {
		in, opts := decodeFuzzSolve(m, epsIdx, flags, times)
		ctx := context.Background()
		ref, st, err := Solve(ctx, in, opts)
		if err != nil {
			t.Fatalf("production: %v (m=%d times=%v opts=%+v)", err, in.M, in.Times, opts)
		}
		if err := ref.Validate(in); err != nil {
			t.Fatalf("production schedule invalid: %v", err)
		}
		// pin is the part of the stats the fill must not change.
		type pinned struct {
			Iterations, LongJobs, SizeClasses, Configs int
			FinalT                                     pcmax.Time
			TableEntries                               int64
		}
		pin := func(s *Stats) pinned {
			return pinned{s.Iterations, s.LongJobs, s.SizeClasses, s.Configs, s.FinalT, s.TableEntries}
		}
		for _, v := range []struct {
			name    string
			paper   bool
			workers int
		}{
			{"paper", true, 1},
			{"paper", true, 2},
			{"production", false, 2},
		} {
			vopts := opts
			vopts.PaperFaithful = v.paper
			vopts.Workers = v.workers
			got, vst, err := Solve(ctx, in, vopts)
			if err != nil {
				t.Fatalf("%s, %d workers: %v (m=%d times=%v opts=%+v)", v.name, v.workers, err, in.M, in.Times, opts)
			}
			for j := range ref.Assignment {
				if got.Assignment[j] != ref.Assignment[j] {
					t.Fatalf("%s, %d workers: job %d on machine %d, production %d (m=%d times=%v opts=%+v)",
						v.name, v.workers, j, got.Assignment[j], ref.Assignment[j], in.M, in.Times, opts)
				}
			}
			if a, b := pin(vst), pin(st); a != b {
				t.Fatalf("%s, %d workers: stats %+v, production %+v (m=%d times=%v opts=%+v)",
					v.name, v.workers, a, b, in.M, in.Times, opts)
			}
			if v.paper {
				continue
			}
			// The production fill at any worker count: every stat but the
			// fill time and the level routing, whose levels still sum up
			// and whose relaxations are the same.
			a, b := *vst, *st
			if a.Auto.LevelsInline+a.Auto.LevelsParallel != b.Auto.LevelsInline || a.Auto.Relaxations != b.Auto.Relaxations {
				t.Fatalf("%s, %d workers: Auto %+v, 1 worker %+v (m=%d times=%v opts=%+v)", v.name, v.workers, a.Auto, b.Auto, in.M, in.Times, opts)
			}
			a.FillTime, b.FillTime, a.Auto, b.Auto = 0, 0, dp.AutoStats{}, dp.AutoStats{}
			if a != b {
				t.Fatalf("%s, %d workers: stats %+v, 1 worker %+v (m=%d times=%v opts=%+v)", v.name, v.workers, a, b, in.M, in.Times, opts)
			}
		}

		optSched, err := exact.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		opt := optSched.Makespan(in)
		if st.FinalT > opt && (!opts.Sparsify || st.SparseCertified) {
			t.Fatalf("FinalT %d > OPT %d (m=%d times=%v opts=%+v)", st.FinalT, opt, in.M, in.Times, opts)
		}
		if ms := ref.Makespan(in); opts.LPTFallback && opts.Epsilon >= 1.0/3 && float64(ms) > (1+opts.Epsilon)*float64(opt)+1e-9 {
			t.Fatalf("makespan %d > (1+%v)*OPT = (1+%v)*%d (m=%d times=%v opts=%+v)",
				ms, opts.Epsilon, opts.Epsilon, opt, in.M, in.Times, opts)
		}
	})
}
