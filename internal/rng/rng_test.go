package rng

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 collisions between different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	src := New(0)
	if src.Uint64() == 0 && src.Uint64() == 0 && src.Uint64() == 0 {
		t.Fatal("seed 0 produced a degenerate stream")
	}
}

func TestInt64nRange(t *testing.T) {
	src := New(3)
	for i := 0; i < 10000; i++ {
		v := src.Int64n(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int64n(7) = %d out of range", v)
		}
	}
}

func TestInt64nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	New(1).Int64n(0)
}

func TestInt64nUniformity(t *testing.T) {
	// Chi-square-ish sanity: 10 buckets, 100k draws, each bucket should be
	// within 5% of expectation.
	src := New(9)
	const draws, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[src.Int64n(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d has %d draws, want %.0f±5%%", b, c, want)
		}
	}
}

func TestUniformBounds(t *testing.T) {
	src := New(5)
	for i := 0; i < 10000; i++ {
		v, err := src.Uniform(10, 20)
		if err != nil {
			t.Fatal(err)
		}
		if v < 10 || v > 20 {
			t.Fatalf("Uniform(10,20) = %d", v)
		}
	}
}

func TestUniformSinglePoint(t *testing.T) {
	src := New(5)
	for i := 0; i < 10; i++ {
		if v := src.MustUniform(7, 7); v != 7 {
			t.Fatalf("Uniform(7,7) = %d", v)
		}
	}
}

func TestUniformInvertedInterval(t *testing.T) {
	_, err := New(1).Uniform(5, 4)
	if !errors.Is(err, ErrBadInterval) {
		t.Fatalf("want ErrBadInterval, got %v", err)
	}
}

func TestMustUniformPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustUniform(5,4) did not panic")
		}
	}()
	New(1).MustUniform(5, 4)
}

func TestUniformHitsEndpoints(t *testing.T) {
	src := New(11)
	seenLo, seenHi := false, false
	for i := 0; i < 10000 && !(seenLo && seenHi); i++ {
		switch src.MustUniform(1, 5) {
		case 1:
			seenLo = true
		case 5:
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatalf("endpoints not reached: lo=%v hi=%v", seenLo, seenHi)
	}
}

func TestUniformWithinBoundsProperty(t *testing.T) {
	f := func(seed uint64, loRaw int32, span uint16) bool {
		lo := int64(loRaw)
		hi := lo + int64(span)
		v, err := New(seed).Uniform(lo, hi)
		return err == nil && v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(13)
	for i := 0; i < 10000; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermNotIdentityUsually(t *testing.T) {
	src := New(19)
	identity := 0
	for trial := 0; trial < 50; trial++ {
		p := src.Perm(20)
		id := true
		for i, v := range p {
			if v != i {
				id = false
				break
			}
		}
		if id {
			identity++
		}
	}
	if identity > 1 {
		t.Fatalf("%d/50 permutations were the identity", identity)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	src := New(23)
	xs := []int64{5, 5, 1, 9, 2}
	sum := int64(0)
	for _, x := range xs {
		sum += x
	}
	src.Shuffle(xs)
	got := int64(0)
	for _, x := range xs {
		got += x
	}
	if got != sum || len(xs) != 5 {
		t.Fatalf("Shuffle changed contents: %v", xs)
	}
}
