package conf

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/pcmax"
)

// paperExample returns the configuration inputs of the paper's Section III
// example: two rounded sizes 6 and 11 with counts (2, 3) and target T=30.
func paperExample() (sizes []pcmax.Time, counts []int, T pcmax.Time, stride []int64) {
	return []pcmax.Time{6, 11}, []int{2, 3}, 30, []int64{4, 1}
}

func TestPaperExampleConfigurationSet(t *testing.T) {
	sizes, counts, T, stride := paperExample()
	configs, err := Enumerate(sizes, counts, T, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's equation (7) lists C = {(0,0),(0,1),(0,2),(1,0),(1,1),
	// (1,2),(2,0),(2,1)}; Enumerate excludes the zero vector, leaving 7.
	want := map[[2]int32]bool{
		{0, 1}: true, {0, 2}: true, {1, 0}: true, {1, 1}: true,
		{1, 2}: true, {2, 0}: true, {2, 1}: true,
	}
	if len(configs) != len(want) {
		t.Fatalf("got %d configurations, want %d", len(configs), len(want))
	}
	for _, c := range configs {
		key := [2]int32{c.Counts[0], c.Counts[1]}
		if !want[key] {
			t.Fatalf("unexpected configuration %v", c.Counts)
		}
		delete(want, key)
	}
}

func TestWeightsAndOffsets(t *testing.T) {
	sizes, counts, T, stride := paperExample()
	configs, err := Enumerate(sizes, counts, T, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		wantW := pcmax.Time(c.Counts[0])*6 + pcmax.Time(c.Counts[1])*11
		if c.Weight != wantW {
			t.Fatalf("config %v weight %d, want %d", c.Counts, c.Weight, wantW)
		}
		if c.Weight > T {
			t.Fatalf("config %v exceeds T", c.Counts)
		}
		wantOff := int64(c.Counts[0])*stride[0] + int64(c.Counts[1])*stride[1]
		if c.Offset != wantOff {
			t.Fatalf("config %v offset %d, want %d", c.Counts, c.Offset, wantOff)
		}
		if c.Jobs != c.Counts[0]+c.Counts[1] {
			t.Fatalf("config %v jobs %d", c.Counts, c.Jobs)
		}
	}
}

func TestZeroVectorExcluded(t *testing.T) {
	configs, err := Enumerate([]pcmax.Time{5}, []int{3}, 100, []int64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		if c.Jobs == 0 {
			t.Fatal("zero configuration included")
		}
	}
	if len(configs) != 3 {
		t.Fatalf("got %d configs, want 3 (s=1,2,3)", len(configs))
	}
}

func TestCapacityPrunes(t *testing.T) {
	// Size 5 with count 10 but T=12: only s=1,2 fit.
	configs, err := Enumerate([]pcmax.Time{5}, []int{10}, 12, []int64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2 {
		t.Fatalf("got %d configs, want 2", len(configs))
	}
}

func TestEmptyDimensions(t *testing.T) {
	configs, err := Enumerate(nil, nil, 10, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 0 {
		t.Fatalf("no dimensions should give no configs, got %d", len(configs))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Enumerate([]pcmax.Time{5}, []int{1, 2}, 10, []int64{1}, 0); err == nil {
		t.Fatal("want mismatched-dimension error")
	}
	if _, err := Enumerate([]pcmax.Time{0}, []int{1}, 10, []int64{1}, 0); err == nil {
		t.Fatal("want non-positive size error")
	}
	if _, err := Enumerate([]pcmax.Time{11}, []int{1}, 10, []int64{1}, 0); err == nil {
		t.Fatal("want size-exceeds-T error")
	}
	if _, err := Enumerate([]pcmax.Time{5}, []int{-1}, 10, []int64{1}, 0); err == nil {
		t.Fatal("want negative-count error")
	}
}

func TestTooManyConfigs(t *testing.T) {
	_, err := Enumerate([]pcmax.Time{1, 2}, []int{50, 50}, 1000, []int64{51, 1}, 10)
	if !errors.Is(err, ErrTooMany) {
		t.Fatalf("want ErrTooMany, got %v", err)
	}
}

func TestFits(t *testing.T) {
	if !Fits([]int32{1, 2}, []int32{1, 2}) {
		t.Fatal("equal vectors must fit")
	}
	if !Fits([]int32{0, 1}, []int32{2, 3}) {
		t.Fatal("smaller vector must fit")
	}
	if Fits([]int32{2, 0}, []int32{1, 5}) {
		t.Fatal("larger component must not fit")
	}
	if !Fits(nil, nil) {
		t.Fatal("empty fits empty")
	}
}

// naiveEnumerate counts configurations by brute force over the full box.
func naiveEnumerate(sizes []pcmax.Time, counts []int, T pcmax.Time) int {
	total := 0
	var rec func(dim int, weight pcmax.Time, jobs int)
	rec = func(dim int, weight pcmax.Time, jobs int) {
		if weight > T {
			return
		}
		if dim == len(sizes) {
			if jobs > 0 {
				total++
			}
			return
		}
		for s := 0; s <= counts[dim]; s++ {
			rec(dim+1, weight+pcmax.Time(s)*sizes[dim], jobs+s)
		}
	}
	rec(0, 0, 0)
	return total
}

func TestCountMatchesNaiveProperty(t *testing.T) {
	f := func(s1Raw, s2Raw, c1Raw, c2Raw, tRaw uint8) bool {
		s1 := pcmax.Time(s1Raw%20) + 1
		s2 := s1 + pcmax.Time(s2Raw%20) + 1
		c1 := int(c1Raw % 6)
		c2 := int(c2Raw % 6)
		T := s2 + pcmax.Time(tRaw%100) // ensure every size <= T
		stride := []int64{int64(c2) + 1, 1}
		configs, err := Enumerate([]pcmax.Time{s1, s2}, []int{c1, c2}, T, stride, 0)
		if err != nil {
			return false
		}
		return len(configs) == naiveEnumerate([]pcmax.Time{s1, s2}, []int{c1, c2}, T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortByJobsBounds(t *testing.T) {
	sizes, counts, T, stride := paperExample()
	configs, err := Enumerate(sizes, counts, T, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	SortByJobs(configs)
	for i := 1; i < len(configs); i++ {
		if configs[i-1].Jobs > configs[i].Jobs {
			t.Fatalf("configs not sorted by Jobs at %d: %d > %d", i, configs[i-1].Jobs, configs[i].Jobs)
		}
	}
}

func TestSortByJobsStable(t *testing.T) {
	sizes, counts, T, stride := paperExample()
	configs, err := Enumerate(sizes, counts, T, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	SortByJobs(configs)
	// Within equal Jobs, the lexicographic enumeration order must survive:
	// offsets ascend because enumeration emits count vectors lexicographically
	// and offset is monotone in the vector for this stride layout.
	for i := 1; i < len(configs); i++ {
		if configs[i-1].Jobs == configs[i].Jobs && configs[i-1].Offset >= configs[i].Offset {
			t.Fatalf("equal-Jobs order not stable at %d: offsets %d >= %d",
				i, configs[i-1].Offset, configs[i].Offset)
		}
	}
}

func TestDefaultLimitApplied(t *testing.T) {
	// maxConfigs <= 0 must select the default rather than zero.
	configs, err := Enumerate([]pcmax.Time{3}, []int{2}, 10, []int64{1}, -1)
	if err != nil || len(configs) != 2 {
		t.Fatalf("got %d configs, err %v", len(configs), err)
	}
}
