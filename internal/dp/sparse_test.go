package dp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

// TestCacheKeysSeparateEnumModes guards the cache-poisoning hazard of the
// sparse pipeline: the driver's certification re-fills the same
// (sizes, counts, T) box faithfully right after sparse probes, so a shared
// cache must never hand one mode the other mode's configuration set.
func TestCacheKeysSeparateEnumModes(t *testing.T) {
	cache := NewCache()
	sizes := []pcmax.Time{6, 11}
	counts := []int{2, 3}
	sopts := conf.SparseOptions{MaxSupport: 1}

	faithful, err := NewCached(sizes, counts, 30, 0, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparse(sizes, counts, 30, 0, 0, cache, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigHits != 0 || st.ConfigMisses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses (modes must not collide)", st)
	}
	if len(sparse.Configs) >= len(faithful.Configs) {
		t.Fatalf("sparse set (%d) not smaller than faithful (%d) on a prunable box",
			len(sparse.Configs), len(faithful.Configs))
	}
	if faithful.Mode != EnumFaithful || sparse.Mode != EnumSparse {
		t.Fatalf("modes %v/%v", faithful.Mode, sparse.Mode)
	}
	if sparse.SparseStats.Retained != len(sparse.Configs) {
		t.Fatalf("SparseStats.Retained %d != %d configs", sparse.SparseStats.Retained, len(sparse.Configs))
	}
	if faithful.SparseStats != (conf.SparseStats{}) {
		t.Fatalf("faithful table carries sparse stats %+v", faithful.SparseStats)
	}

	// Same-mode rebuilds hit; different sparse parameters miss.
	if _, err := NewSparse(sizes, counts, 30, 0, 0, cache, sopts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigHits != 1 {
		t.Fatalf("stats = %+v, want the same-parameter sparse rebuild to hit", st)
	}
	if _, err := NewSparse(sizes, counts, 30, 0, 0, cache,
		conf.SparseOptions{MaxSupport: 2}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.ConfigMisses != 3 {
		t.Fatalf("stats = %+v, want differing sparse parameters to miss", st)
	}
}

// TestCacheKeysClampMaxSupport checks that the cache keys a sparse set by
// the support cap the enumerator applies: caps 0 and -3 both disable it, so
// they share one entry, and 1 gets its own. Every sparse set carries the
// closed form of its singleton-and-pair pool.
func TestCacheKeysClampMaxSupport(t *testing.T) {
	cache := NewCache()
	var sets []*scanSet
	for _, sup := range []int{0, -3, 1} {
		tbl, err := NewSparse([]pcmax.Time{6, 11}, []int{2, 3}, 30, 0, 0, cache, conf.SparseOptions{MaxSupport: sup})
		if err != nil {
			t.Fatal(err)
		}
		if tbl.set.pairs == nil {
			t.Fatalf("support cap %d: the sparse set has no closed form", sup)
		}
		sets = append(sets, tbl.set)
	}
	if st := cache.Stats(); st.ConfigHits != 1 || st.ConfigMisses != 2 {
		t.Fatalf("stats = %+v, want 1 hit and 2 misses: support cap -3 must hit cap 0's entry", st)
	}
	if sets[1] != sets[0] || sets[2] == sets[0] {
		t.Fatal("support cap -3 got another set than cap 0, or cap 1 the same one")
	}
}

// TestSparseTableStaysFeasible checks the retained pool end to end: a
// sparse table's DP stays total (every reachable entry keeps a candidate) and
// its reconstruction is a valid packing, even under an aggressive support
// cap.
func TestSparseTableStaysFeasible(t *testing.T) {
	sizes := []pcmax.Time{5, 7, 9}
	counts := []int{3, 2, 4}
	ref, err := New(sizes, counts, 25, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, ref)
	refOpt, err := ref.OptValue()
	if err != nil {
		t.Fatal(err)
	}

	tbl, err := NewSparse(sizes, counts, 25, 0, 0, nil, conf.SparseOptions{MaxSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, tbl)
	opt, err := tbl.OptValue()
	if err != nil {
		t.Fatal(err)
	}
	if opt < refOpt {
		t.Fatalf("sparse OPT %d below faithful %d (pruning can only raise it)", opt, refOpt)
	}
	machines, err := tbl.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != int(opt) {
		t.Fatalf("reconstruction used %d machines, OPT says %d", len(machines), opt)
	}
	total := make([]int32, len(counts))
	for _, cfg := range machines {
		var w pcmax.Time
		for c, cnt := range cfg {
			total[c] += cnt
			w += pcmax.Time(cnt) * sizes[c]
		}
		if w > 25 {
			t.Fatalf("machine exceeds capacity: %v", cfg)
		}
	}
	for c := range counts {
		if int(total[c]) != counts[c] {
			t.Fatalf("class %d scheduled %d of %d jobs", c, total[c], counts[c])
		}
	}
}

// TestPaperFillsRejectSparseTables pins the paper fills' refusal of a
// sparse table: their per-entry search regenerates the faithful
// configuration set, so it could reach an OPT through configurations the
// table pruned. Both must return ErrSparseTable and leave the table
// unfilled.
func TestPaperFillsRejectSparseTables(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	fills := []struct {
		name string
		fill func(tbl *Table) error
	}{
		{"recursive", func(tbl *Table) error { return tbl.FillRecursiveCtx(context.Background()) }},
		{"parallel", func(tbl *Table) error { return tbl.FillParallelCtx(context.Background(), pool) }},
	}
	for _, f := range fills {
		tbl, err := NewSparse([]pcmax.Time{5, 7, 9}, []int{3, 2, 4}, 25, 0, 0, nil, conf.SparseOptions{MaxSupport: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.fill(tbl); !errors.Is(err, ErrSparseTable) {
			t.Fatalf("%s: error %v, want ErrSparseTable", f.name, err)
		}
		if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
			t.Fatalf("%s: OptValue error %v, want ErrNotFilled", f.name, err)
		}
	}
}
