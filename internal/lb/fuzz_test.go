package lb_test

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/pcmax"
)

// FuzzLowerBounds checks the two bounds that lean on other code against
// exact.BruteForce's optimum on small instances: m = 1 + mRaw%4 machines and
// the first ten bytes of times as jobs, of time 1 + b%50 when wide is set
// and 1 + b%3 (ties everywhere) otherwise.
//
//   - FromLPT(in, LPT(in)) <= OPT <= LPT's makespan: FromLPT is sound only on
//     a true LPT schedule, so this also checks the LPT that computes it.
//   - Removing the jobs whose bit is set in remove, of total R, leaves
//     FromPrevious(OPT, R) <= OPT of the remaining jobs.
func FuzzLowerBounds(f *testing.F) {
	f.Add(uint8(0), true, []byte{6, 2, 1}, uint16(0b001))
	f.Add(uint8(1), true, []byte{2, 2, 1, 1, 1}, uint16(0b10100))         // Graham's tight m=2 family
	f.Add(uint8(2), true, []byte{4, 4, 3, 3, 2, 2, 2}, uint16(0b1000001)) // LPT's worst case, m=3
	f.Add(uint8(3), true, []byte{6, 6, 5, 5, 4, 4, 3, 3, 3}, uint16(0b110))
	f.Add(uint8(2), false, []byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}, uint16(0b1111))
	f.Add(uint8(3), false, []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, uint16(0b1000000001))
	f.Add(uint8(3), true, []byte{49, 1, 49, 1, 25, 25, 13, 13, 7, 7}, uint16(0x3ff))
	f.Add(uint8(2), false, []byte{0, 0, 0, 1}, uint16(0)) // FromLPT of list scheduling in input order exceeds OPT
	f.Fuzz(func(t *testing.T, mRaw uint8, wide bool, times []byte, remove uint16) {
		if len(times) > 10 {
			times = times[:10]
		}
		if len(times) == 0 {
			return
		}
		span := pcmax.Time(3)
		if wide {
			span = 50
		}
		in := &pcmax.Instance{M: 1 + int(mRaw%4), Times: make([]pcmax.Time, len(times))}
		rest := &pcmax.Instance{M: in.M}
		var removed pcmax.Time
		for j, b := range times {
			in.Times[j] = 1 + pcmax.Time(b)%span
			if remove&(1<<j) != 0 {
				removed += in.Times[j]
			} else {
				rest.Times = append(rest.Times, in.Times[j])
			}
		}
		opt := optimum(t, in)
		lpt := listsched.LPT(in)
		if b, w := lb.FromLPT(in, lpt), lpt.Makespan(in); b > opt || w < opt {
			t.Fatalf("m=%d times=%v: FromLPT %d, OPT %d, LPT makespan %d: want FromLPT <= OPT <= LPT",
				in.M, in.Times, b, opt, w)
		}
		if b, optRest := lb.FromPrevious(opt, removed), optimum(t, rest); b > optRest {
			t.Fatalf("m=%d times=%v remove=%b: FromPrevious(%d, %d) = %d above the remaining jobs' OPT %d",
				in.M, in.Times, remove, opt, removed, b, optRest)
		}
	})
}

// optimum is exact.BruteForce's makespan, 0 for an instance without jobs.
func optimum(t *testing.T, in *pcmax.Instance) pcmax.Time {
	t.Helper()
	if in.N() == 0 {
		return 0
	}
	sched, err := exact.BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	return sched.Makespan(in)
}
