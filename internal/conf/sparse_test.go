package conf

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/pcmax"
)

// strides computes row-major table strides for the given availability, the
// layout dp.New uses.
func strides(counts []int) []int64 {
	d := len(counts)
	stride := make([]int64, d)
	s := int64(1)
	for i := d - 1; i >= 0; i-- {
		stride[i] = s
		s *= int64(counts[i] + 1)
	}
	return stride
}

func key(counts []int32) string { return fmt.Sprint(counts) }

func TestEnumerateSparsePaperExample(t *testing.T) {
	sizes, counts, T, stride := paperExample()
	full, err := Enumerate(sizes, counts, T, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	sparse, stats, err := EnumerateSparse(sizes, counts, T, stride, 0, DefaultSparseOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Enumerated != len(full) {
		t.Fatalf("enumerated %d, faithful set has %d", stats.Enumerated, len(full))
	}
	if stats.Retained != len(sparse) {
		t.Fatalf("stats.Retained %d != len %d", stats.Retained, len(sparse))
	}
	if stats.Enumerated != stats.Retained+stats.PrunedSupport+stats.PrunedDominated {
		t.Fatalf("stats don't add up: %+v", stats)
	}
}

// TestEnumerateSparseVsBruteForce is the defining property of the sparse
// enumerator, checked against the faithful enumeration on random boxes:
//
//   - the retained set is a subsequence of the faithful set (same feasible
//     configurations, same lexicographic order, same Weight/Jobs/Offset);
//   - every retained configuration of three or more jobs honors the
//     support cap;
//   - every pruned configuration has three or more jobs and violates the
//     support cap or is dominated (extensible by one more job within T), so
//     the singleton-and-pair pool is retained unconditionally;
//   - the stats partition the enumeration exactly.
func TestEnumerateSparseVsBruteForce(t *testing.T) {
	f := func(seed uint64, dRaw, supRaw uint8) bool {
		src := rng.New(seed)
		d := int(dRaw%3) + 1
		sizes := make([]pcmax.Time, d)
		counts := make([]int, d)
		base := pcmax.Time(1)
		for i := range sizes {
			base += pcmax.Time(1 + src.Int64n(7))
			sizes[i] = base
			counts[i] = int(src.Int64n(5))
		}
		T := base + pcmax.Time(src.Int64n(4*int64(base)))
		stride := strides(counts)
		opts := SparseOptions{MaxSupport: int(supRaw%3) + 1}

		full, err := Enumerate(sizes, counts, T, stride, 0)
		if err != nil {
			t.Fatal(err)
		}
		sparse, stats, err := EnumerateSparse(sizes, counts, T, stride, 0, opts)
		if err != nil {
			t.Fatal(err)
		}

		if stats.Enumerated != len(full) {
			t.Fatalf("enumerated %d != faithful %d", stats.Enumerated, len(full))
		}
		if stats.Retained != len(sparse) ||
			stats.Enumerated != stats.Retained+stats.PrunedSupport+stats.PrunedDominated {
			t.Fatalf("inconsistent stats %+v (retained %d)", stats, len(sparse))
		}

		// Subsequence check: walk the faithful list once, matching retained
		// configurations in order; classify each pruned one.
		retained := make(map[string]bool, len(sparse))
		next := 0
		for _, c := range full {
			if next < len(sparse) && key(sparse[next].Counts) == key(c.Counts) {
				s := sparse[next]
				if s.Weight != c.Weight || s.Jobs != c.Jobs || s.Offset != c.Offset {
					t.Fatalf("retained %v differs from faithful: %+v vs %+v", c.Counts, s, c)
				}
				retained[key(c.Counts)] = true
				next++
				continue
			}
			// Pruned: must be above the pool and oversupport or dominated.
			if c.Jobs <= 2 {
				t.Fatalf("singleton-and-pair pool config %v pruned", c.Counts)
			}
			if support(c.Counts) <= opts.MaxSupport &&
				!dominated(c.Counts, sizes, counts, c.Weight, T) {
				t.Fatalf("config %v pruned but neither oversupport nor dominated", c.Counts)
			}
		}
		if next != len(sparse) {
			t.Fatalf("retained set is not a subsequence: %d of %d matched", next, len(sparse))
		}
		for _, c := range sparse {
			if c.Jobs > 2 && opts.MaxSupport > 0 && support(c.Counts) > opts.MaxSupport {
				t.Fatalf("retained config %v violates support cap %d", c.Counts, opts.MaxSupport)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSparseOptionsSupportGrowsLogarithmically(t *testing.T) {
	cases := []struct{ k, want int }{
		{1, 3}, {2, 3}, {4, 4}, {10, 6}, {100, 9},
	}
	for _, c := range cases {
		if got := DefaultSparseOptions(c.k).MaxSupport; got != c.want {
			t.Fatalf("DefaultSparseOptions(%d).MaxSupport = %d, want %d", c.k, got, c.want)
		}
	}
}

// kernelSink keeps the kernels' results live, so the compiler cannot drop
// a call whose result the test would otherwise ignore.
var kernelSink int

// TestKernelsAllocateNothing pins the sparse enumeration's per-configuration
// kernels, the dominance test and the support count, as allocation-free.
func TestKernelsAllocateNothing(t *testing.T) {
	sizes := []pcmax.Time{3, 5, 7}
	counts := []int{4, 2, 3}
	cur := []int32{2, 0, 1}
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"dominated", func() {
			if dominated(cur, sizes, counts, 13, 20) {
				kernelSink++
			}
		}},
		{"support", func() { kernelSink += support(cur) }},
	} {
		if got := testing.AllocsPerRun(100, k.run); got != 0 {
			t.Errorf("%s allocated %v times per call, want 0", k.name, got)
		}
	}
}
