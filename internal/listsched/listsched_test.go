package listsched

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
)

func TestLSAssignsInInputOrder(t *testing.T) {
	// Jobs 4,3,3 on 2 machines in input order: 4->m0, 3->m1, 3->m1 (load 3
	// < 4), makespan 6.
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{4, 3, 3}}
	s := LS(in)
	if got := s.Makespan(in); got != 6 {
		t.Fatalf("LS makespan = %d, want 6", got)
	}
	if s.Assignment[0] != 0 || s.Assignment[1] != 1 || s.Assignment[2] != 1 {
		t.Fatalf("LS assignment = %v", s.Assignment)
	}
}

func TestLPTSortsFirst(t *testing.T) {
	// Same jobs ordered adversarially for LS; LPT must reach the optimum 5:
	// {4,3} sorted desc is 4,3,3 -> m0:4, m1:3, m1? no: m1 has 3 < 4 -> 3+3=6?
	// Use the classic: jobs 3,3,2,2,2 on 2 machines: LPT gives 3+3=6 vs
	// 3+2+2=7? LPT: 3->m0, 3->m1, 2->m0(3<=3 tie lowest index), 2->m1, 2->m0
	// makespan 7? Let's assert against the known LPT trace instead.
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{2, 3, 2, 3, 2}}
	s := LPT(in)
	// LPT order: 3(j1),3(j3),2(j0),2(j2),2(j4)
	// m0: 3(j1), m1: 3(j3), m0: 2(j0) -> 5, m1: 2(j2) -> 5, m0: 2(j4) -> 7.
	if got := s.Makespan(in); got != 7 {
		t.Fatalf("LPT makespan = %d, want 7", got)
	}
}

func TestLPTOptimalOnEqualJobs(t *testing.T) {
	in := &pcmax.Instance{M: 3, Times: []pcmax.Time{5, 5, 5, 5, 5, 5}}
	if got := LPT(in).Makespan(in); got != 10 {
		t.Fatalf("LPT on equal jobs = %d, want 10", got)
	}
}

func TestLPTKnownWorstCase(t *testing.T) {
	// The classic adversarial family: LPT achieves exactly 4m-1 against the
	// optimum 3m, i.e. ratio 4/3 - 1/(3m).
	for _, m := range []int{2, 3, 5, 10} {
		in, err := workload.AdversarialLPT(m)
		if err != nil {
			t.Fatal(err)
		}
		got := LPT(in).Makespan(in)
		want := pcmax.Time(4*m - 1)
		if got != want {
			t.Fatalf("m=%d: LPT makespan %d, want %d", m, got, want)
		}
	}
}

func TestTieBreakTowardLowestMachine(t *testing.T) {
	// All machines empty: the first job must land on machine 0, the second
	// (equal loads except machine 0) on machine 1, etc.
	in := &pcmax.Instance{M: 4, Times: []pcmax.Time{1, 1, 1, 1}}
	s := LS(in)
	for j := 0; j < 4; j++ {
		if s.Assignment[j] != j {
			t.Fatalf("job %d went to machine %d, want %d", j, s.Assignment[j], j)
		}
	}
}

func TestAssignGreedyRespectsExistingLoads(t *testing.T) {
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{10, 2, 3}}
	sched := pcmax.NewSchedule(2, 3)
	sched.Assignment[0] = 0 // machine 0 preloaded with 10
	AssignGreedy(in, sched, []int{1, 2})
	if sched.Assignment[1] != 1 || sched.Assignment[2] != 1 {
		t.Fatalf("greedy ignored preload: %v", sched.Assignment)
	}
	if got := sched.Makespan(in); got != 10 {
		t.Fatalf("makespan = %d, want 10", got)
	}
}

func TestAssignGreedyPartialOrder(t *testing.T) {
	// Only the listed jobs get assigned.
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{5, 6, 7}}
	sched := pcmax.NewSchedule(2, 3)
	AssignGreedy(in, sched, []int{2})
	if sched.Assignment[0] != -1 || sched.Assignment[1] != -1 || sched.Assignment[2] != 0 {
		t.Fatalf("assignment = %v", sched.Assignment)
	}
}

// naiveGreedy is the oracle for the greedy choice, the paper's Lines 45-48:
// each listed job goes to the machine found by scanning loads in index order
// and keeping the first strict minimum. loads holds the machines' starting
// loads and is advanced in place; the result is each listed job's machine,
// in the order's positions.
func naiveGreedy(in *pcmax.Instance, loads []pcmax.Time, order []int) []int {
	got := make([]int, len(order))
	for k, j := range order {
		mi := 0
		for i := 1; i < len(loads); i++ {
			if loads[i] < loads[mi] {
				mi = i
			}
		}
		loads[mi] += in.Times[j]
		got[k] = mi
	}
	return got
}

// checkGreedy runs AssignGreedy on a copy of sched (a partial schedule whose
// placed jobs set the starting loads) and compares every listed job's machine
// with naiveGreedy's, and every unlisted job's entry with its old one.
func checkGreedy(t testing.TB, in *pcmax.Instance, sched *pcmax.Schedule, order []int) {
	t.Helper()
	loads := make([]pcmax.Time, in.M)
	for j, mi := range sched.Assignment {
		if mi >= 0 {
			loads[mi] += in.Times[j]
		}
	}
	want := naiveGreedy(in, loads, order)
	got := &pcmax.Schedule{M: sched.M, Assignment: append([]int(nil), sched.Assignment...)}
	AssignGreedy(in, got, order)
	listed := make([]bool, in.N())
	for k, j := range order {
		listed[j] = true
		if got.Assignment[j] != want[k] {
			t.Fatalf("m=%d times=%v start=%v order=%v: job %d (the %d-th placed) on machine %d, oracle %d",
				in.M, in.Times, sched.Assignment, order, j, k, got.Assignment[j], want[k])
		}
	}
	for j, mi := range sched.Assignment {
		if !listed[j] && got.Assignment[j] != mi {
			t.Fatalf("m=%d: unlisted job %d moved from %d to %d", in.M, j, mi, got.Assignment[j])
		}
	}
}

// randomGreedyCase draws n jobs with times in 1..maxT, places each with
// probability 1/3 on a random machine (a partial long-job schedule) and lists
// the rest, in LPT order when lpt is set and in input order otherwise.
func randomGreedyCase(src *rng.Source, m, n int, maxT int64, lpt bool) (*pcmax.Instance, *pcmax.Schedule, []int) {
	in := &pcmax.Instance{M: m, Times: make([]pcmax.Time, n)}
	for j := range in.Times {
		in.Times[j] = pcmax.Time(1 + src.Int64n(maxT))
	}
	sched := pcmax.NewSchedule(m, n)
	var order []int
	for j := range sched.Assignment {
		if src.Intn(3) == 0 {
			sched.Assignment[j] = src.Intn(m)
		} else if !lpt {
			order = append(order, j)
		}
	}
	if lpt {
		for _, j := range in.SortedIndex() {
			if sched.Assignment[j] < 0 {
				order = append(order, j)
			}
		}
	}
	return in, sched, order
}

// TestGreedyMatchesNaiveProperty checks the greedy choice against the
// first-strict-minimum scan on every m in 1..70, which covers the tree shapes
// 2^k-1, 2^k and 2^k+1 up to 65, from empty machines and from a partial
// schedule, with tie-heavy (1..3) and wide (1..100) times.
func TestGreedyMatchesNaiveProperty(t *testing.T) {
	src := rng.New(25)
	for m := 1; m <= 70; m++ {
		for trial := 0; trial < 12; trial++ {
			n := 1 + src.Intn(3*m+8)
			maxT := int64(3)
			if trial%4 == 3 {
				maxT = 100
			}
			in, sched, order := randomGreedyCase(src, m, n, maxT, trial%2 == 0)
			if trial < 2 {
				// From empty machines: every job listed.
				sched = pcmax.NewSchedule(m, n)
				order = in.SortedIndex()
			}
			checkGreedy(t, in, sched, order)
		}
	}
}

func TestLSTwoApproxProperty(t *testing.T) {
	// LS makespan < LB + max t <= 2*OPT (Graham's bound in LB terms).
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%8) + 1
		n := int(nRaw%40) + 1
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(200))
		}
		in := &pcmax.Instance{M: m, Times: times}
		ms := LS(in).Makespan(in)
		return ms <= in.LowerBound()+in.MaxTime() && ms >= in.LowerBound()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLPTNeverWorseThanUpperBoundProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%8) + 1
		n := int(nRaw%40) + 1
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(200))
		}
		in := &pcmax.Instance{M: m, Times: times}
		s := LPT(in)
		if err := s.Validate(in); err != nil {
			return false
		}
		ms := s.Makespan(in)
		// 4/3 bound against the lower bound (a relaxation of the true 4/3
		// OPT bound, so it must hold):
		// LPT <= 4/3 OPT + ... actually LPT <= 4/3 OPT - 1/(3m); use the
		// list-scheduling bound which is certain: LPT <= LB + max.
		return ms <= in.LowerBound()+in.MaxTime() && ms >= in.LowerBound()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulesAreAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		src := rng.New(seed)
		m := int(mRaw%12) + 1
		n := int(nRaw % 60)
		times := make([]pcmax.Time, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(50))
		}
		in := &pcmax.Instance{M: m, Times: times}
		if n == 0 {
			return LS(in).Makespan(in) == 0 && LPT(in).Makespan(in) == 0
		}
		return LS(in).Validate(in) == nil && LPT(in).Validate(in) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleMachine(t *testing.T) {
	in := &pcmax.Instance{M: 1, Times: []pcmax.Time{4, 5, 6}}
	if got := LS(in).Makespan(in); got != 15 {
		t.Fatalf("LS on one machine = %d, want 15", got)
	}
	if got := LPT(in).Makespan(in); got != 15 {
		t.Fatalf("LPT on one machine = %d, want 15", got)
	}
}

func TestMoreMachinesThanJobs(t *testing.T) {
	in := &pcmax.Instance{M: 10, Times: []pcmax.Time{9, 4}}
	s := LPT(in)
	if got := s.Makespan(in); got != 9 {
		t.Fatalf("makespan = %d, want 9", got)
	}
}

// TestGreedyAllocations pins the greedy passes' allocations: the tree is one
// slice, so AssignGreedy allocates once, and RepairInPlace allocates once
// while its loose jobs fit the eight-entry buffer on its stack.
func TestGreedyAllocations(t *testing.T) {
	for _, m := range []int{1, 10, 1000} {
		n := 3*m + 8
		in := &pcmax.Instance{M: m, Times: make([]pcmax.Time, n)}
		keep := make([]int, n)
		for j := range keep {
			in.Times[j] = pcmax.Time(1 + j%7)
			keep[j] = j % m
		}
		order := in.SortedIndex()
		sched := pcmax.NewSchedule(m, n)
		got := testing.AllocsPerRun(20, func() {
			for j := range sched.Assignment {
				sched.Assignment[j] = -1
			}
			AssignGreedy(in, sched, order)
		})
		if got != 1 {
			t.Errorf("m=%d: AssignGreedy allocated %v times, want 1", m, got)
		}
		assign := make([]int, n)
		for _, loose := range []int{0, 1, 8} {
			got := testing.AllocsPerRun(20, func() {
				copy(assign, keep)
				for j := 0; j < loose; j++ {
					assign[j] = -1
				}
				RepairInPlace(in, assign)
			})
			if got != 1 {
				t.Errorf("m=%d, %d loose jobs: RepairInPlace allocated %v times, want 1", m, loose, got)
			}
		}
	}
}
