package dp

import (
	"context"
	"sync"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

func TestCacheReusesConfigSets(t *testing.T) {
	cache := NewCache()
	sizes := []pcmax.Time{6, 11}
	counts := []int{2, 3}
	a, err := NewCached(sizes, counts, 30, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCached(sizes, counts, 30, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Configs[0] != &b.Configs[0] {
		t.Fatal("second build with the same key should share the cached config slice")
	}
	st := cache.Stats()
	if st.ConfigHits != 1 || st.ConfigMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// A different T is a different key.
	if _, err := NewCached(sizes, counts, 29, 0, 0, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigMisses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

func TestCachedTablesFillIdentically(t *testing.T) {
	cache := NewCache()
	sizes := []pcmax.Time{5, 7, 9}
	counts := []int{3, 2, 4}
	ref, err := New(sizes, counts, 25, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, ref)

	pool := par.NewPool(3)
	defer pool.Close()
	// Build twice through the cache so the second table runs on the config
	// set of the hit path.
	for round := 0; round < 2; round++ {
		tbl, err := NewCached(sizes, counts, 25, 0, 0, cache)
		if err != nil {
			t.Fatal(err)
		}
		fillPar(t, tbl, pool)
		for i := range tbl.Opt {
			if tbl.Opt[i] != ref.Opt[i] {
				t.Fatalf("round %d entry %d = %d, want %d", round, i, tbl.Opt[i], ref.Opt[i])
			}
		}
	}
	if st := cache.Stats(); st != (CacheStats{ConfigHits: 1, ConfigMisses: 1}) {
		t.Fatalf("stats = %+v, want 1 config hit / 1 miss", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	// Concurrent solves sharing one cache (core.Options.Cache) hit it from
	// many goroutines; run with -race to verify the locking.
	cache := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				T := pcmax.Time(20 + (g+rep)%5)
				tbl, err := NewCached([]pcmax.Time{4, 7}, []int{3, 3}, T, 0, 0, cache)
				if err != nil {
					panic(err)
				}
				if err := tbl.FillSequentialCtx(context.Background()); err != nil {
					panic(err)
				}
				if _, err := tbl.OptValue(); err != nil {
					panic(err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if st.ConfigHits+st.ConfigMisses != 8*20 {
		t.Fatalf("lookups = %d, want %d", st.ConfigHits+st.ConfigMisses, 8*20)
	}
}

func TestCacheEvictionKeepsWorking(t *testing.T) {
	cache := NewCache()
	// Overflow the config map; builds must stay correct through the reset.
	for i := 0; i < maxCachedConfigSets+10; i++ {
		T := pcmax.Time(30 + i)
		tbl, err := NewCached([]pcmax.Time{6, 11}, []int{2, 3}, T, 0, 0, cache)
		if err != nil {
			t.Fatal(err)
		}
		fillSeq(t, tbl)
		if opt, err := tbl.OptValue(); err != nil || opt < 1 {
			t.Fatalf("T=%d: opt=%d err=%v", T, opt, err)
		}
	}
	if n := len(cache.configs); n > maxCachedConfigSets {
		t.Fatalf("config cache holds %d entries, budget %d", n, maxCachedConfigSets)
	}
}

func TestNilCacheStats(t *testing.T) {
	var c *Cache
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestCacheProfileCanonicalization(t *testing.T) {
	// (sizes, T) pairs that reduce to the same canonical profile must share
	// one cached configuration set: {6,12}@30, {3,6}@15 and {1,2}@5 all
	// reduce to sizes {1,2} with capacity 5.
	cache := NewCache()
	counts := []int{2, 3}
	a, err := NewCached([]pcmax.Time{6, 12}, counts, 30, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCached([]pcmax.Time{3, 6}, counts, 15, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCached([]pcmax.Time{1, 2}, counts, 5, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Configs[0] != &b.Configs[0] || &a.Configs[0] != &c.Configs[0] {
		t.Fatal("canonically equal profiles should share one cached config set")
	}
	st := cache.Stats()
	if st.ConfigHits != 2 || st.ConfigMisses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}

	// floor(T/g) is what matters: T=34 with g=6 still reduces to capacity 5.
	if _, err := NewCached([]pcmax.Time{6, 12}, counts, 34, 0, 0, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigHits != 3 {
		t.Fatalf("stats = %+v, want 3 hits", st)
	}

	// A capacity crossing a multiple of g is a genuinely different profile.
	if _, err := NewCached([]pcmax.Time{6, 12}, counts, 36, 0, 0, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigMisses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

func TestCacheCanonicalTablesFillIdentically(t *testing.T) {
	// A table built through a canonical cache hit (scaled profile) must fill
	// and reconstruct exactly like a cold table at the original scale.
	cache := NewCache()
	sizes := []pcmax.Time{6, 12, 18}
	counts := []int{3, 2, 2}
	// Prime the cache with the reduced-scale twin.
	if _, err := NewCached([]pcmax.Time{1, 2, 3}, counts, 9, 0, 0, cache); err != nil {
		t.Fatal(err)
	}
	tbl, err := NewCached(sizes, counts, 54, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigHits != 1 {
		t.Fatalf("stats = %+v, want the scaled build to hit", st)
	}
	ref, err := New(sizes, counts, 54, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, tbl)
	fillSeq(t, ref)
	for i := range tbl.Opt {
		if tbl.Opt[i] != ref.Opt[i] {
			t.Fatalf("entry %d = %d, want %d", i, tbl.Opt[i], ref.Opt[i])
		}
	}
}

func TestCacheStatsSub(t *testing.T) {
	cache := NewCache()
	sizes := []pcmax.Time{6, 11}
	counts := []int{2, 3}
	if _, err := NewCached(sizes, counts, 30, 0, 0, cache); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := NewCached(sizes, counts, 30, 0, 0, cache); err != nil {
		t.Fatal(err)
	}
	delta := cache.Stats().Sub(before)
	want := CacheStats{ConfigHits: 1}
	if delta != want {
		t.Fatalf("delta = %+v, want %+v", delta, want)
	}
}

func TestCacheHitPathDoesNotAllocate(t *testing.T) {
	sizes := []pcmax.Time{6, 11}
	counts := []int{2, 3}
	const sigma = 12
	// The hit path returns the cached layout too, planned or not.
	for _, planned := range []bool{false, true} {
		if planned {
			forcePlans(t)
		}
		cache := NewCache()
		e, err := cache.configSet(sizes, counts, 30, sigma, 0, EnumFaithful, conf.SparseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(e.lay.ends) > 0; got != planned {
			t.Fatalf("set planned = %v, want %v", got, planned)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := cache.configSet(sizes, counts, 30, sigma, 0, EnumFaithful, conf.SparseOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("planned %v: cache hit allocated %.1f objects per lookup, want 0", planned, allocs)
		}
	}
}

func BenchmarkCacheLookup(b *testing.B) {
	// Steady-state cost of one configuration-set lookup on the hit path —
	// the per-probe cache overhead of a warm bisection.
	cache := NewCache()
	sizes := []pcmax.Time{13, 17, 19, 23, 29, 31}
	counts := []int{4, 4, 3, 3, 2, 2}
	const sigma = 5 * 5 * 4 * 4 * 3 * 3
	if _, err := cache.configSet(sizes, counts, 120, sigma, 0, EnumFaithful, conf.SparseOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.configSet(sizes, counts, 120, sigma, 0, EnumFaithful, conf.SparseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
