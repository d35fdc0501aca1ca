package pcmax

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewInstanceValid(t *testing.T) {
	in, err := NewInstance(3, []Time{5, 2, 9})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if in.M != 3 || in.N() != 3 {
		t.Fatalf("got m=%d n=%d", in.M, in.N())
	}
}

func TestNewInstanceCopiesTimes(t *testing.T) {
	times := []Time{5, 2, 9}
	in, err := NewInstance(2, times)
	if err != nil {
		t.Fatal(err)
	}
	times[0] = 999
	if in.Times[0] != 5 {
		t.Fatalf("instance aliases caller slice: %v", in.Times)
	}
}

func TestNewInstanceRejectsZeroMachines(t *testing.T) {
	if _, err := NewInstance(0, []Time{1}); !errors.Is(err, ErrNoMachines) {
		t.Fatalf("want ErrNoMachines, got %v", err)
	}
}

func TestNewInstanceRejectsNegativeMachines(t *testing.T) {
	if _, err := NewInstance(-4, []Time{1}); !errors.Is(err, ErrNoMachines) {
		t.Fatalf("want ErrNoMachines, got %v", err)
	}
}

func TestNewInstanceRejectsZeroTime(t *testing.T) {
	if _, err := NewInstance(1, []Time{4, 0, 2}); !errors.Is(err, ErrNonPositiveTime) {
		t.Fatalf("want ErrNonPositiveTime, got %v", err)
	}
}

func TestNewInstanceRejectsNegativeTime(t *testing.T) {
	if _, err := NewInstance(1, []Time{-7}); !errors.Is(err, ErrNonPositiveTime) {
		t.Fatalf("want ErrNonPositiveTime, got %v", err)
	}
}

func TestValidateNilInstance(t *testing.T) {
	var in *Instance
	if err := in.Validate(); !errors.Is(err, ErrNilInstance) {
		t.Fatalf("want ErrNilInstance, got %v", err)
	}
}

// TestValidateCaps pins each of Validate's overflow caps at its boundary: an
// instance holding a value at the cap is accepted, one holding the value
// one past it is rejected with the cap's error. MaxTotalTime is 1,024 times
// MaxTimeValue, so 1,024 jobs of MaxTimeValue reach the total cap exactly
// and 1,025 pass it.
func TestValidateCaps(t *testing.T) {
	jobs := func(n int) []Time {
		times := make([]Time, n)
		for j := range times {
			times[j] = MaxTimeValue
		}
		return times
	}
	window := func(end Time) [][]Window { return [][]Window{{{Start: 0, End: end}}} }
	for _, tc := range []struct {
		name     string
		at, past Instance
		err      error
	}{
		{"job time", Instance{M: 1, Times: []Time{MaxTimeValue}}, Instance{M: 1, Times: []Time{MaxTimeValue + 1}}, ErrTimeTooLarge},
		{"total", Instance{M: 1, Times: jobs(1024)}, Instance{M: 1, Times: jobs(1025)}, ErrTotalTooLarge},
		{"release", Instance{M: 1, Times: []Time{1}, Release: []Time{MaxTimeValue}}, Instance{M: 1, Times: []Time{1}, Release: []Time{MaxTimeValue + 1}}, ErrBadRelease},
		{"setup", Instance{M: 1, Times: []Time{1}, Setup: []Time{MaxTimeValue}}, Instance{M: 1, Times: []Time{1}, Setup: []Time{MaxTimeValue + 1}}, ErrBadSetup},
		{"window end", Instance{M: 1, Times: []Time{1}, Windows: window(MaxTimeValue)}, Instance{M: 1, Times: []Time{1}, Windows: window(MaxTimeValue + 1)}, ErrBadWindow},
	} {
		if err := tc.at.Validate(); err != nil {
			t.Errorf("%s at the cap: %v, want accepted", tc.name, err)
		}
		if err := tc.past.Validate(); !errors.Is(err, tc.err) {
			t.Errorf("%s one past the cap: %v, want %v", tc.name, err, tc.err)
		}
	}
}

func TestEmptyInstanceIsValid(t *testing.T) {
	in := &Instance{M: 2}
	if err := in.Validate(); err != nil {
		t.Fatalf("zero-job instance should validate: %v", err)
	}
	if in.TotalTime() != 0 || in.MaxTime() != 0 {
		t.Fatalf("empty instance totals: sum=%d max=%d", in.TotalTime(), in.MaxTime())
	}
}

func TestTotalAndMaxTime(t *testing.T) {
	in := &Instance{M: 2, Times: []Time{4, 9, 1}}
	if got := in.TotalTime(); got != 14 {
		t.Fatalf("TotalTime = %d, want 14", got)
	}
	if got := in.MaxTime(); got != 9 {
		t.Fatalf("MaxTime = %d, want 9", got)
	}
}

func TestLowerBoundDominatedByMax(t *testing.T) {
	// sum/m = 12/3 = 4 but the longest job is 10.
	in := &Instance{M: 3, Times: []Time{10, 1, 1}}
	if got := in.LowerBound(); got != 10 {
		t.Fatalf("LowerBound = %d, want 10", got)
	}
}

func TestLowerBoundDominatedByAverage(t *testing.T) {
	// ceil(13/2) = 7 > max 5.
	in := &Instance{M: 2, Times: []Time{5, 5, 3}}
	if got := in.LowerBound(); got != 7 {
		t.Fatalf("LowerBound = %d, want 7", got)
	}
}

func TestUpperBoundFormula(t *testing.T) {
	// ceil(13/2) + 5 = 12, the paper's equation (2).
	in := &Instance{M: 2, Times: []Time{5, 5, 3}}
	if got := in.UpperBound(); got != 12 {
		t.Fatalf("UpperBound = %d, want 12", got)
	}
}

func TestBoundsOrderProperty(t *testing.T) {
	f := func(mRaw uint8, raw []uint16) bool {
		m := int(mRaw%8) + 1
		times := make([]Time, 0, len(raw))
		for _, r := range raw {
			times = append(times, Time(r%1000)+1)
		}
		in := &Instance{M: m, Times: times}
		return in.LowerBound() <= in.UpperBound()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundIsValidProperty(t *testing.T) {
	// Any schedule's makespan is at least LB: check against the degenerate
	// all-on-one-machine schedule and a round-robin schedule.
	f := func(mRaw uint8, raw []uint16) bool {
		m := int(mRaw%6) + 1
		times := make([]Time, 0, len(raw))
		for _, r := range raw {
			times = append(times, Time(r%500)+1)
		}
		in := &Instance{M: m, Times: times}
		rr := NewSchedule(m, len(times))
		for j := range times {
			rr.Assignment[j] = j % m
		}
		return rr.Makespan(in) >= in.LowerBound()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	in := &Instance{M: 2, Times: []Time{3, 4}}
	cp := in.Clone()
	cp.Times[0] = 100
	cp.M = 9
	if in.Times[0] != 3 || in.M != 2 {
		t.Fatalf("Clone shares state: %+v", in)
	}
}

func TestSortedIndexOrdersByTimeDesc(t *testing.T) {
	in := &Instance{M: 1, Times: []Time{3, 9, 1, 9, 5}}
	got := in.SortedIndex()
	want := []int{1, 3, 4, 0, 2} // 9(idx1), 9(idx3, tie by index), 5, 3, 1
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedIndex = %v, want %v", got, want)
		}
	}
}

func TestSortedIndexDoesNotMutate(t *testing.T) {
	in := &Instance{M: 1, Times: []Time{3, 9, 1}}
	in.SortedIndex()
	if in.Times[0] != 3 || in.Times[1] != 9 || in.Times[2] != 1 {
		t.Fatalf("SortedIndex mutated Times: %v", in.Times)
	}
}

// sortedIndexOracle is the comparison sort SortedIndex's radix sort must
// reproduce: job indices by non-increasing time, ties by index.
func sortedIndexOracle(times []Time) []int {
	idx := make([]int, len(times))
	for j := range idx {
		idx[j] = j
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(times[b], times[a]) })
	return idx
}

func TestSortedIndexIsPermutationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		times := make([]Time, len(raw))
		for i, r := range raw {
			times[i] = Time(r) + 1
		}
		in := &Instance{M: 1, Times: times}
		idx := in.SortedIndex()
		if len(idx) != len(times) {
			return false
		}
		seen := make([]bool, len(times))
		prev := Time(math.MaxInt64)
		for _, j := range idx {
			if j < 0 || j >= len(times) || seen[j] {
				return false
			}
			seen[j] = true
			if times[j] > prev {
				return false
			}
			prev = times[j]
		}
		return slices.Equal(idx, sortedIndexOracle(times))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	// Equality with the comparison sort on values spanning 1..MaxTimeValue:
	// keys up to 50 bits take several radix passes. The shift narrows the
	// range so ties and every pass count in between also occur.
	wide := func(raw []uint64, shift uint8) bool {
		times := make([]Time, len(raw))
		for i, r := range raw {
			times[i] = 1 + Time((r>>(shift%64))%uint64(MaxTimeValue))
		}
		in := &Instance{M: 1, Times: times}
		return slices.Equal(in.SortedIndex(), sortedIndexOracle(times))
	}
	if err := quick.Check(wide, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	fixed := map[string][]Time{
		"n=0":       {},
		"n=1":       {7},
		"all equal": {4, 4, 4, 4, 4},
		"extremes":  {1, MaxTimeValue, 1, MaxTimeValue, MaxTimeValue - 1, 2},
		// Keys differing only in their third byte: the passes over the two
		// shared low bytes are skipped.
		"shared low bytes": {1, 1 + 1<<16, 1 + 2<<16, 1, 1 + 1<<16},
	}
	many := make([]Time, 3000)
	for j := range many {
		many[j] = Time(j*7919%613) + 1
	}
	fixed["n=3000 with ties"] = many
	for name, times := range fixed {
		in := &Instance{M: 1, Times: times}
		if got, want := in.SortedIndex(), sortedIndexOracle(times); !slices.Equal(got, want) {
			t.Errorf("%s: SortedIndex = %v, want %v", name, got, want)
		}
	}
}
