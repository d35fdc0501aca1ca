package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/pcmax"
)

// mapSplit is the split the driver ran before it shared one sorted order
// across probes, kept as the differential reference for newSplit: one pass
// over the jobs in input order, long jobs bucketed per class in a map, the
// short jobs listed in input order.
type mapSplit struct {
	u       pcmax.Time
	short   []int
	sizes   []pcmax.Time
	counts  []int
	buckets [][]int
}

func newMapSplit(in *pcmax.Instance, k int, T pcmax.Time) (*mapSplit, error) {
	k2 := pcmax.Time(k) * pcmax.Time(k)
	sp := &mapSplit{u: (T + k2 - 1) / k2}
	threshold := pcmax.Time(k) * sp.u
	byClass := make(map[pcmax.Time][]int)
	for j, t := range in.Times {
		if t < threshold {
			sp.short = append(sp.short, j)
			continue
		}
		if t > T {
			return nil, fmt.Errorf("job %d (t=%d) exceeds target T=%d", j, t, T)
		}
		i := t / sp.u
		if i < pcmax.Time(k) || i > k2 {
			return nil, fmt.Errorf("job %d rounds to class %d outside [%d,%d]", j, i, k, k2)
		}
		byClass[i] = append(byClass[i], j)
	}
	classes := make([]pcmax.Time, 0, len(byClass))
	for i := range byClass {
		classes = append(classes, i)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
	for _, i := range classes {
		sp.sizes = append(sp.sizes, i*sp.u)
		sp.counts = append(sp.counts, len(byClass[i]))
		sp.buckets = append(sp.buckets, byClass[i])
	}
	return sp, nil
}

// group is the reference geometric grouping: merged classes concatenate
// their buckets in ascending size.
func (sp *mapSplit) group(delta float64) {
	if delta <= 0 || len(sp.sizes) < 2 {
		return
	}
	var (
		sizes   []pcmax.Time
		counts  []int
		buckets [][]int
	)
	for i := 0; i < len(sp.sizes); {
		base := sp.sizes[i]
		limit := pcmax.Time(float64(base) * (1 + delta))
		count := 0
		var bucket []int
		for i < len(sp.sizes) && sp.sizes[i] <= limit {
			count += sp.counts[i]
			bucket = append(bucket, sp.buckets[i]...)
			i++
		}
		sizes = append(sizes, base)
		counts = append(counts, count)
		buckets = append(buckets, bucket)
	}
	sp.sizes, sp.counts, sp.buckets = sizes, counts, buckets
}

// splitCase draws one differential input: an instance shape (duplicates,
// all short, all long, or a mix), k in 1..8 and a target T that every job
// fits under (or, rarely, one that the largest job exceeds).
func splitCase(src *rng.Source, trial int) (*pcmax.Instance, int, pcmax.Time) {
	k := 1 + src.Intn(8)
	T := pcmax.Time(1 + src.Int64n(5000))
	k2 := pcmax.Time(k) * pcmax.Time(k)
	u := (T + k2 - 1) / k2
	threshold := pcmax.Time(k) * u
	n := src.Intn(60)
	times := make([]pcmax.Time, n)
	draw := func(lo, hi pcmax.Time) pcmax.Time {
		if hi < lo {
			return lo
		}
		return lo + pcmax.Time(src.Int64n(int64(hi-lo+1)))
	}
	switch trial % 4 {
	case 0: // duplicates: a handful of distinct values around the threshold
		pool := make([]pcmax.Time, 1+src.Intn(4))
		for i := range pool {
			pool[i] = draw(1, T)
		}
		for j := range times {
			times[j] = pool[src.Intn(len(pool))]
		}
	case 1: // all short
		for j := range times {
			times[j] = draw(1, min(threshold-1, T))
		}
	case 2: // all long, when the band [k*u, T] is not empty
		for j := range times {
			times[j] = draw(threshold, T)
		}
	default: // anything up to T
		for j := range times {
			times[j] = draw(1, T)
		}
	}
	if n > 0 && trial%50 == 49 {
		times[src.Intn(n)] = T + 1 // over the target: both splits must fail
	}
	return &pcmax.Instance{M: 3, Times: times}, k, T
}

// TestSplitMatchesMapReference diffs newSplit (binary searches over the
// shared LPT order, buckets built on demand) against the map-based reference
// over random instances, every k in 1..8, random targets and grouping
// deltas {0, 0.1, 0.3}: the same sizes and counts, the same short-job set
// (LPT order for ShortLPT, input order for ShortLS), and the same buckets
// element for element — input order within a class, ascending-size
// concatenation inside a merged group.
func TestSplitMatchesMapReference(t *testing.T) {
	src := rng.New(2024)
	var failed, allShort, merged int
	for trial := 0; trial < 3000; trial++ {
		in, k, T := splitCase(src, trial)
		delta := []float64{0, 0.1, 0.3}[trial%3]
		order := in.SortedIndex()
		got, gerr := newSplit(in, order, k, T)
		want, werr := newMapSplit(in, k, T)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("trial %d (k=%d T=%d times=%v): newSplit err %v, reference err %v", trial, k, T, in.Times, gerr, werr)
		}
		if gerr != nil {
			failed++
			continue
		}
		if got.nLong == 0 {
			allShort++
		}
		classes := len(want.sizes)
		got.group(delta)
		want.group(delta)
		if len(want.sizes) < classes {
			merged++
		}
		where := fmt.Sprintf("trial %d (k=%d T=%d delta=%v times=%v)", trial, k, T, delta, in.Times)
		if got.u != want.u {
			t.Fatalf("%s: u %d, want %d", where, got.u, want.u)
		}
		if !slices.Equal(got.sizes, want.sizes) || !slices.Equal(got.counts, want.counts) {
			t.Fatalf("%s: sizes/counts %v/%v, want %v/%v", where, got.sizes, got.counts, want.sizes, want.counts)
		}
		if ls := got.short(in, ShortLS); !slices.Equal(ls, want.short) {
			t.Fatalf("%s: LS short jobs %v, want %v", where, ls, want.short)
		}
		lpt := slices.Clone(want.short)
		slices.SortStableFunc(lpt, func(a, b int) int { return cmp.Compare(in.Times[b], in.Times[a]) })
		if s := got.short(in, ShortLPT); !slices.Equal(s, lpt) {
			t.Fatalf("%s: LPT short jobs %v, want %v", where, s, lpt)
		}
		buckets := got.buckets(in)
		if len(buckets) != len(want.buckets) {
			t.Fatalf("%s: %d buckets, want %d", where, len(buckets), len(want.buckets))
		}
		for c := range buckets {
			if !slices.Equal(buckets[c], want.buckets[c]) {
				t.Fatalf("%s: bucket %d = %v, want %v", where, c, buckets[c], want.buckets[c])
			}
		}
	}
	// The draw must reach every regime the comparison is about.
	if failed == 0 || allShort == 0 || merged == 0 {
		t.Fatalf("vacuous draw: %d over-target, %d all-short, %d merged-group trials", failed, allShort, merged)
	}
}
