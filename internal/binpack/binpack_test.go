package binpack

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/pcmax"
)

func binLoads(t *testing.T, items []pcmax.Time, res Result, capacity pcmax.Time) []pcmax.Time {
	t.Helper()
	loads := make([]pcmax.Time, res.Bins)
	for i, b := range res.Assign {
		if b < 0 || b >= res.Bins {
			t.Fatalf("item %d assigned to bin %d of %d", i, b, res.Bins)
		}
		loads[b] += items[i]
	}
	for b, l := range loads {
		if l > capacity {
			t.Fatalf("bin %d overflows: %d > %d", b, l, capacity)
		}
		if l == 0 {
			t.Fatalf("bin %d is empty", b)
		}
	}
	return loads
}

func TestFirstFitExample(t *testing.T) {
	// 6,4 -> bin0; 5 doesn't fit bin0 -> bin1; 3 fits bin1? 5+3=8<=10 yes.
	items := []pcmax.Time{6, 4, 5, 3}
	res, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bins != 2 {
		t.Fatalf("bins = %d, want 2", res.Bins)
	}
	if res.Assign[0] != 0 || res.Assign[1] != 0 || res.Assign[2] != 1 || res.Assign[3] != 1 {
		t.Fatalf("assign = %v", res.Assign)
	}
	binLoads(t, items, res, 10)
}

func TestFirstFitOpensNewBins(t *testing.T) {
	items := []pcmax.Time{7, 7, 7}
	res, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bins != 3 {
		t.Fatalf("bins = %d, want 3", res.Bins)
	}
}

func TestFirstFitItemTooLarge(t *testing.T) {
	_, err := FirstFit([]pcmax.Time{11}, 10)
	if !errors.Is(err, ErrItemTooLarge) {
		t.Fatalf("want ErrItemTooLarge, got %v", err)
	}
}

func TestFirstFitRejectsNonPositive(t *testing.T) {
	if _, err := FirstFit([]pcmax.Time{5, 0}, 10); err == nil {
		t.Fatal("want error for zero-size item")
	}
	if _, err := FirstFit([]pcmax.Time{-3}, 10); err == nil {
		t.Fatal("want error for negative item")
	}
}

func TestFirstFitEmpty(t *testing.T) {
	res, err := FirstFit(nil, 10)
	if err != nil || res.Bins != 0 {
		t.Fatalf("empty pack: %v bins=%d", err, res.Bins)
	}
}

func TestFFDSortsBeforePacking(t *testing.T) {
	// Ascending input defeats FF (4 bins at cap 10: 2,3 -> b0; 5 -> b0 full
	// at 10; 7 -> b1...). FFD packs 7+3, 5+2+? Let's check concrete:
	// sorted 7,5,3,2: 7->b0, 5->b1, 3->b0(10), 2->b1(7).
	items := []pcmax.Time{2, 3, 5, 7}
	res, err := FirstFitDecreasing(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bins != 2 {
		t.Fatalf("FFD bins = %d, want 2", res.Bins)
	}
	// Assign is in original item order: item3(7) and item1(3) in bin 0.
	if res.Assign[3] != 0 || res.Assign[1] != 0 || res.Assign[2] != 1 || res.Assign[0] != 1 {
		t.Fatalf("assign = %v", res.Assign)
	}
	binLoads(t, items, res, 10)
}

func TestFFDDeterministicTies(t *testing.T) {
	items := []pcmax.Time{5, 5, 5, 5}
	a, err := FirstFitDecreasing(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FirstFitDecreasing(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("FFD not deterministic on ties")
		}
	}
	if a.Bins != 2 {
		t.Fatalf("bins = %d, want 2", a.Bins)
	}
}

func TestPackingValidProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, capRaw uint16) bool {
		src := rng.New(seed)
		capacity := pcmax.Time(capRaw%200) + 10
		n := int(nRaw % 50)
		items := make([]pcmax.Time, n)
		for i := range items {
			items[i] = pcmax.Time(1 + src.Int64n(int64(capacity)))
		}
		for _, pack := range []func([]pcmax.Time, pcmax.Time) (Result, error){FirstFit, FirstFitDecreasing} {
			res, err := pack(items, capacity)
			if err != nil {
				return false
			}
			loads := make([]pcmax.Time, res.Bins)
			for i, b := range res.Assign {
				if n == 0 {
					break
				}
				if b < 0 || b >= res.Bins {
					return false
				}
				loads[b] += items[i]
			}
			for _, l := range loads {
				if l > capacity || l == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitsFFDMonotoneInCapacityProperty(t *testing.T) {
	// If FFD fits at capacity c, it also fits at c+delta... NOT true in
	// general for first-fit-decreasing bin *counts* (the FFD anomaly), but
	// it IS what MultiFit's binary search assumes within its [CL, CU]
	// window. Test the weaker property actually relied upon: feasibility at
	// the convergence point implies a valid packing can be extracted.
	f := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%30) + 1
		items := make([]pcmax.Time, n)
		for i := range items {
			items[i] = pcmax.Time(1 + src.Int64n(100))
		}
		maxBins := 1 + src.Intn(6)
		// Find the smallest capacity in [max item, sum] where FFD fits.
		var sum, mx pcmax.Time
		for _, it := range items {
			sum += it
			if it > mx {
				mx = it
			}
		}
		lo, hi := mx, sum
		for lo < hi {
			c := lo + (hi-lo)/2
			res, err := FirstFitDecreasing(items, c)
			if err != nil {
				return false
			}
			if res.Bins <= maxBins {
				hi = c
			} else {
				lo = c + 1
			}
		}
		res, err := FirstFitDecreasing(items, hi)
		if err != nil {
			return false
		}
		return res.Bins <= maxBins
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
