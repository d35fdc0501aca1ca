package listsched

import (
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/pcmax"
)

func TestRepairKeepsAssignmentsAndPlacesRest(t *testing.T) {
	in := &pcmax.Instance{M: 3, Times: []pcmax.Time{8, 6, 5, 4, 3}}
	keep := []int{0, 1, 2, -1, -1}
	sched := Repair(in, keep)
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if sched.Assignment[j] != keep[j] {
			t.Fatalf("kept job %d moved to machine %d", j, sched.Assignment[j])
		}
	}
	// Loose jobs 3 (t=4) and 4 (t=3) go LPT-first onto the least-loaded
	// machines: loads after keeps are [8,6,5], so job 3 -> machine 2 (5+4=9),
	// job 4 -> machine 1 (6+3=9).
	if sched.Assignment[3] != 2 || sched.Assignment[4] != 1 {
		t.Fatalf("loose placement = %v, want jobs 3,4 on machines 2,1", sched.Assignment)
	}
}

func TestRepairAllLooseMatchesLPT(t *testing.T) {
	in := &pcmax.Instance{M: 4, Times: []pcmax.Time{9, 7, 7, 5, 4, 3, 2, 2, 1}}
	keep := make([]int, in.N())
	for j := range keep {
		keep[j] = -1
	}
	got := Repair(in, keep)
	want := LPT(in)
	for j := range want.Assignment {
		if got.Assignment[j] != want.Assignment[j] {
			t.Fatalf("job %d: Repair -> %d, LPT -> %d", j, got.Assignment[j], want.Assignment[j])
		}
	}
}

func TestRepairOutOfRangeKeepsTreatedAsLoose(t *testing.T) {
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{5, 5, 5}}
	// Machine 7 does not exist and -3 is nonsense; both jobs must be placed
	// fresh rather than leaving holes or panicking.
	sched := Repair(in, []int{7, -3, 0})
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
	if sched.Assignment[2] != 0 {
		t.Fatalf("valid keep was not honored: %v", sched.Assignment)
	}
}

func TestRepairShortKeepSlice(t *testing.T) {
	// keep shorter than n (e.g. jobs appended since the snapshot): the tail
	// jobs are loose.
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{6, 4, 3}}
	sched := Repair(in, []int{1})
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
	if sched.Assignment[0] != 1 {
		t.Fatalf("kept job moved: %v", sched.Assignment)
	}
}

func TestRepairEmptyInstance(t *testing.T) {
	in := &pcmax.Instance{M: 2}
	sched := Repair(in, nil)
	if got := len(sched.Assignment); got != 0 {
		t.Fatalf("empty repair produced %d assignments", got)
	}
}

// TestRepairInPlaceMatchesRepair checks the in-place form against Repair on
// random instances and keep-maps (kept, loose and out-of-range entries): a
// complete, valid schedule that keeps every in-range entry, the same
// assignment written into the caller's slice, and a returned makespan equal
// to the repaired schedule's.
func TestRepairInPlaceMatchesRepair(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 300; trial++ {
		m := 1 + src.Intn(8)
		n := src.Intn(40)
		times := make([]pcmax.Time, n)
		keep := make([]int, n)
		for j := range times {
			times[j] = pcmax.Time(1 + src.Int64n(50))
			keep[j] = src.Intn(m+3) - 2 // -2..m: loose, kept, or out of range
		}
		in := &pcmax.Instance{M: m, Times: times}
		want := Repair(in, keep)
		if err := want.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, mi := range keep {
			if mi >= 0 && mi < m && want.Assignment[j] != mi {
				t.Fatalf("trial %d: kept job %d moved from %d to %d", trial, j, mi, want.Assignment[j])
			}
		}
		assign := append([]int(nil), keep...)
		ms := RepairInPlace(in, assign)
		for j := range assign {
			if assign[j] != want.Assignment[j] {
				t.Fatalf("trial %d job %d: in place -> %d, Repair -> %d", trial, j, assign[j], want.Assignment[j])
			}
		}
		if got := want.Makespan(in); ms != got {
			t.Fatalf("trial %d: RepairInPlace makespan %d, schedule's %d", trial, ms, got)
		}
	}
}

// naiveRepair is the oracle for RepairInPlace: the kept jobs' loads summed,
// the loose jobs in LPT order (non-increasing time, ties by index) placed by
// naiveGreedy. It returns the repaired assignment and the largest load.
func naiveRepair(in *pcmax.Instance, keep []int) ([]int, pcmax.Time) {
	assign := append([]int(nil), keep...)
	loads := make([]pcmax.Time, in.M)
	var loose []int
	for j, mi := range keep {
		if mi >= 0 && mi < in.M {
			loads[mi] += in.Times[j]
		} else {
			loose = append(loose, j)
		}
	}
	sort.SliceStable(loose, func(a, b int) bool { return in.Times[loose[a]] > in.Times[loose[b]] })
	for k, mi := range naiveGreedy(in, loads, loose) {
		assign[loose[k]] = mi
	}
	var ms pcmax.Time
	for _, l := range loads {
		if l > ms {
			ms = l
		}
	}
	return assign, ms
}

// TestRepairInPlaceMatchesNaiveRepair checks RepairInPlace against the
// naive repair on every m in 1..70 with tie-heavy times (1..3): the same
// machine for every job and the same makespan, from keep-maps that mix kept,
// loose and out-of-range entries.
func TestRepairInPlaceMatchesNaiveRepair(t *testing.T) {
	src := rng.New(52)
	for m := 1; m <= 70; m++ {
		for trial := 0; trial < 6; trial++ {
			n := src.Intn(3*m + 8)
			in := &pcmax.Instance{M: m, Times: make([]pcmax.Time, n)}
			keep := make([]int, n)
			for j := range keep {
				in.Times[j] = pcmax.Time(1 + src.Int64n(3))
				keep[j] = src.Intn(m+3) - 2
			}
			want, wantMS := naiveRepair(in, keep)
			assign := append([]int(nil), keep...)
			ms := RepairInPlace(in, assign)
			for j := range assign {
				if assign[j] != want[j] {
					t.Fatalf("m=%d times=%v keep=%v: job %d on machine %d, oracle %d", m, in.Times, keep, j, assign[j], want[j])
				}
			}
			if ms != wantMS {
				t.Fatalf("m=%d: makespan %d, oracle %d", m, ms, wantMS)
			}
		}
	}
}
