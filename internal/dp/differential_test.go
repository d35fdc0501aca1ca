package dp

// Differential coverage for the three fills: the production kernel
// (FillSequentialCtx, FillAutoCtx), the recursive Algorithm 2 and the
// parallel Algorithm 3, through cached and uncached builds, must produce the
// same Opt table and the same reconstruction as a seed-faithful oracle on a
// population of random instances plus fixed instances of the shapes the
// population misses.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/pcmax"
)

// fillOracle computes the Opt table exactly as the seed implementation's
// sequential fill did: division decode per entry and an unpruned scan of the
// full configuration list. It is the reference all optimized paths must
// match bit for bit.
func fillOracle(t *Table) []int32 {
	opt := make([]int32, t.Sigma)
	v := make([]int32, len(t.Stride))
	for idx := int64(1); idx < t.Sigma; idx++ {
		t.digits(idx, v)
		best := int32(math.MaxInt32)
		for ci := range t.Configs {
			c := &t.Configs[ci]
			if conf.Fits(c.Counts, v) {
				if o := opt[idx-c.Offset]; o < best {
					best = o
				}
			}
		}
		opt[idx] = best + 1
	}
	return opt
}

// randomInstance draws a small random (sizes, counts, T) triple with at most
// maxD classes of at most maxCount jobs each.
func randomInstance(src *rng.Source, maxD, maxCount int) ([]pcmax.Time, []int, pcmax.Time) {
	d := 1 + src.Intn(maxD)
	sizes := make([]pcmax.Time, 0, d)
	counts := make([]int, 0, d)
	s := pcmax.Time(0)
	for i := 0; i < d; i++ {
		s += 1 + pcmax.Time(src.Int64n(12))
		sizes = append(sizes, s)
		counts = append(counts, src.Intn(maxCount+1))
	}
	T := s + pcmax.Time(src.Int64n(35))
	return sizes, counts, T
}

func optEqual(t *testing.T, label string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Opt[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func machinesEqual(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d machines, want %d", label, len(got), len(want))
	}
	for m := range want {
		for c := range want[m] {
			if got[m][c] != want[m][c] {
				t.Fatalf("%s: machine %d = %v, want %v", label, m, got[m], want[m])
			}
		}
	}
}

// diffInput is one (sizes, counts, T) instance of the differential harness.
type diffInput struct {
	name   string
	sizes  []pcmax.Time
	counts []int
	T      pcmax.Time
}

// runShapeInputs are fixed instances for the shapes the random populations
// (d <= 4, counts <= 4, and d <= 7, counts <= 5 for the phased fill) may
// miss: the run shapes of the config-outer kernel
// and ten classes. packedBoundaryInputs holds the rest.
var runShapeInputs = []diffInput{
	// d = 1: every configuration's pass is a single run over the table.
	{"d=1", []pcmax.Time{3}, []int{7}, 10},
	// Classes with count 0 have radix 1 and never end a configuration.
	{"zero-count-classes", []pcmax.Time{2, 3, 5, 7}, []int{0, 3, 0, 2}, 14},
	// Configurations using only the last class relax stride-1 runs that
	// overlap their own source, one run per point of classes before it.
	{"last-class-only", []pcmax.Time{4, 5}, []int{2, 6}, 10},
	// Configurations using only the first class relax one run over the
	// whole sub-table that overlaps its source by less than its length.
	{"first-class-only", []pcmax.Time{2, 9, 11}, []int{6, 2, 1}, 12},
	// d >= 9: deep odometers over the classes before a run.
	{"d=10", []pcmax.Time{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []int{2, 1, 0, 1, 1, 2, 1, 0, 1, 2}, 19},
}

// packedBoundaryInputs are the instances at the edges of a digit vector
// packed one byte per class into 64-bit words.
var packedBoundaryInputs = []diffInput{
	// A class count >= 128: a digit wider than a signed byte, so the vector
	// cannot be packed, and a long chain of one class.
	{"count>=128-unpacked", []pcmax.Time{2, 9}, []int{150, 2}, 21},
	// Nine classes need a second word.
	{"two-word", []pcmax.Time{1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, 13},
	// Eight classes fill exactly one word.
	{"one-word-boundary", []pcmax.Time{1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 1, 1, 1, 2, 1, 1, 1}, 12},
}

// checkAllFills fills in with every fill, uncached and through cache, and
// requires each Opt table to equal fillOracle and each reconstruction to
// equal the production fill's.
func checkAllFills(t *testing.T, in diffInput, pool *par.Pool, cache *Cache) {
	t.Helper()
	label, sizes, counts, T := in.name, in.sizes, in.counts, in.T
	mk := func() *Table {
		tbl, err := New(sizes, counts, T, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}

	ref := mk()
	oracle := fillOracle(ref)
	fillSeq(t, ref)
	optEqual(t, label+": FillSequential vs oracle", ref.Opt, oracle)
	refMachines, err := ref.Reconstruct()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	check := func(name string, tbl *Table) {
		t.Helper()
		optEqual(t, label+": "+name, tbl.Opt, oracle)
		machines, err := tbl.Reconstruct()
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		machinesEqual(t, label+": "+name, machines, refMachines)
	}

	// Recursive fill leaves unreachable entries unset; compare the
	// computed subset plus the reconstruction.
	rec := mk()
	fillRec(t, rec)
	for i := range rec.Opt {
		if rec.Opt[i] != unset && rec.Opt[i] != oracle[i] {
			t.Fatalf("%s: FillRecursive Opt[%d] = %d, want %d", label, i, rec.Opt[i], oracle[i])
		}
	}
	recMachines, err := rec.Reconstruct()
	if err != nil {
		t.Fatalf("%s: recursive: %v", label, err)
	}
	machinesEqual(t, label+": FillRecursive", recMachines, refMachines)

	// Parallel fill.
	p := mk()
	fillPar(t, p, pool)
	check("FillParallel", p)

	// Production fill.
	ad := mk()
	if err := ad.FillAutoCtx(context.Background(), nil); err != nil {
		t.Fatalf("%s: FillAutoCtx: %v", label, err)
	}
	check("FillAutoCtx", ad)

	// Cached builds: two rounds through one cache so the second fill runs
	// on the shared config set of the hit path.
	for round := 0; round < 2; round++ {
		ct, err := NewCached(sizes, counts, T, 0, 0, cache)
		if err != nil {
			t.Fatal(err)
		}
		fillPar(t, ct, pool)
		check(fmt.Sprintf("cached round %d", round), ct)
	}
}

func TestDifferentialAllFillVariants(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	cache := NewCache()

	const instances = 50
	var inputs []diffInput
	for seed := uint64(1); seed <= instances; seed++ {
		sizes, counts, T := randomInstance(rng.New(seed), 4, 4)
		inputs = append(inputs, diffInput{fmt.Sprintf("seed %d", seed), sizes, counts, T})
	}
	inputs = append(inputs, runShapeInputs...)
	for _, in := range inputs {
		checkAllFills(t, in, pool, cache)
	}
	if st := cache.Stats(); st.ConfigHits == 0 {
		t.Fatalf("cache saw no hits: %+v", cache.Stats())
	}
}

// TestDifferentialPackedBoundaries runs the differential check on
// packedBoundaryInputs: every fill must meet fillOracle where a digit no
// longer fits a signed byte and where the classes fill one or two words.
func TestDifferentialPackedBoundaries(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()

	for _, in := range packedBoundaryInputs {
		t.Run(in.name, func(t *testing.T) {
			cache := NewCache()
			checkAllFills(t, in, pool, cache)
			if st := cache.Stats(); st.ConfigHits != 1 {
				t.Fatalf("cache stats %+v, want 1 config hit", st)
			}
		})
	}
}

// TestReconstructManyConfigs is the regression test for the level-bounded
// reconstruction walk: a table whose configuration list is large (many
// classes, generous T) must reconstruct correctly, and the Jobs-sorted
// early-exit must agree with an unpruned first-fit over the same order.
func TestReconstructManyConfigs(t *testing.T) {
	sizes := []pcmax.Time{3, 4, 5, 6, 7, 8}
	counts := []int{4, 3, 3, 2, 2, 2}
	tbl, err := New(sizes, counts, 30, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Configs) < 400 {
		t.Fatalf("want a config-heavy table, got %d configs", len(tbl.Configs))
	}
	fillSeq(t, tbl)
	machines, err := tbl.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := tbl.OptValue()
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != opt {
		t.Fatalf("reconstructed %d machines, want OPT=%d", len(machines), opt)
	}
	covered := make([]int32, len(sizes))
	for _, cfg := range machines {
		var w pcmax.Time
		for c, cnt := range cfg {
			covered[c] += cnt
			w += pcmax.Time(cnt) * sizes[c]
		}
		if w > tbl.T {
			t.Fatalf("machine %v weighs %d > T=%d", cfg, w, tbl.T)
		}
	}
	for c := range covered {
		if int(covered[c]) != counts[c] {
			t.Fatalf("class %d covered %d, want %d", c, covered[c], counts[c])
		}
	}

	// The unpruned walk over the same Jobs-sorted order must pick the same
	// configurations: the break only skips configurations that cannot fit.
	naive := func() [][]int32 {
		v := make([]int32, len(tbl.Stride))
		tbl.digits(tbl.Sigma-1, v)
		idx := tbl.Sigma - 1
		var out [][]int32
		for idx != 0 {
			target := tbl.Opt[idx]
			found := -1
			for ci := range tbl.Configs {
				c := &tbl.Configs[ci]
				if conf.Fits(c.Counts, v) && tbl.Opt[idx-c.Offset] == target-1 {
					found = ci
					break
				}
			}
			if found < 0 {
				t.Fatal("naive walk stuck")
			}
			c := &tbl.Configs[found]
			out = append(out, append([]int32(nil), c.Counts...))
			idx -= c.Offset
			for i := range v {
				v[i] -= c.Counts[i]
			}
		}
		return out
	}()
	machinesEqual(t, "pruned vs naive reconstruction", machines, naive)
}

// TestDifferentialPhasedFill forces a slab-phase plan on every table
// (forcePlans) and checks the phased layout over a random population of up
// to seven classes of up to five jobs, runShapeInputs and
// packedBoundaryInputs. On each planned table the production fill on the
// caller and on pools of 2 and 4 workers, and the paper's Algorithms 2 and
// 3, give fillOracle's Opt array and the machines Reconstruct picks on the
// class-order table; OPT(v) of every vector v equals the class-order
// table's. The population must hold rows pinned on their own phase's class,
// which the production fill relaxes only in slab 0.
func TestDifferentialPhasedFill(t *testing.T) {
	pool2 := par.NewPool(2)
	defer pool2.Close()
	pool4 := par.NewPool(4)
	defer pool4.Close()
	forcePlans(t)

	inputs := append([]diffInput(nil), runShapeInputs...)
	inputs = append(inputs, packedBoundaryInputs...)
	for seed := uint64(1); seed <= 200; seed++ {
		sizes, counts, T := randomInstance(rng.New(seed), 7, 5)
		inputs = append(inputs, diffInput{fmt.Sprintf("seed %d", seed), sizes, counts, T})
	}
	ctx := context.Background()
	fills := []struct {
		name     string
		pool     *par.Pool
		parallel bool
		fill     func(*Table) error
	}{
		{"production", nil, false, func(tbl *Table) error { return tbl.FillAutoCtx(ctx, nil) }},
		{"production-2w", pool2, true, func(tbl *Table) error { return tbl.FillAutoCtx(ctx, pool2) }},
		{"production-4w", pool4, true, func(tbl *Table) error { return tbl.FillAutoCtx(ctx, pool4) }},
		{"alg3", nil, false, func(tbl *Table) error { return tbl.FillParallelCtx(ctx, pool4) }},
	}
	var planned, permuted, slabPinned int
	for _, in := range inputs {
		build := func(minWork int64) *Table {
			planMinWork = minWork
			tbl, err := New(in.sizes, in.counts, in.T, 0, 0)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			return tbl
		}
		ref := build(math.MaxInt64)
		fillSeq(t, ref)
		refMachines, err := ref.Reconstruct()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}

		phased := build(0)
		oracle := fillOracle(phased)
		v := make([]int32, len(ref.Stride))
		for idx := range ref.Opt {
			ref.digits(int64(idx), v)
			var pidx int64
			for i, x := range v {
				pidx += int64(x) * phased.Stride[i]
			}
			if oracle[pidx] != ref.Opt[idx] {
				t.Fatalf("%s: OPT%v = %d on the phased layout, %d in class order", in.name, v, oracle[pidx], ref.Opt[idx])
			}
		}
		if len(phased.lay.ends) > 0 {
			planned++
		}
		slabPinned += pinnedOnSlab(phased)
		for q, c := range phased.lay.order {
			if c != int64(q) {
				permuted++
				break
			}
		}

		for _, f := range fills {
			tbl := build(0)
			if err := f.fill(tbl); err != nil {
				t.Fatalf("%s: %s: %v", in.name, f.name, err)
			}
			optEqual(t, in.name+": "+f.name, tbl.Opt, oracle)
			machines, err := tbl.Reconstruct()
			if err != nil {
				t.Fatalf("%s: %s: %v", in.name, f.name, err)
			}
			machinesEqual(t, in.name+": "+f.name, machines, refMachines)
			if f.parallel && len(tbl.lay.ends) > 0 && tbl.AutoStats.LevelsParallel != tbl.NPrime {
				t.Fatalf("%s: %s: AutoStats %+v, want all %d levels parallel", in.name, f.name, tbl.AutoStats, tbl.NPrime)
			}
		}
		rec := build(0)
		fillRec(t, rec)
		for i := range rec.Opt {
			if rec.Opt[i] != unset && rec.Opt[i] != oracle[i] {
				t.Fatalf("%s: FillRecursive Opt[%d] = %d, want %d", in.name, i, rec.Opt[i], oracle[i])
			}
		}
		recMachines, err := rec.Reconstruct()
		if err != nil {
			t.Fatalf("%s: recursive: %v", in.name, err)
		}
		machinesEqual(t, in.name+": FillRecursive", recMachines, refMachines)
	}
	t.Logf("%d of %d tables planned, %d permuted, %d rows pinned on their phase's class", planned, len(inputs), permuted, slabPinned)
	if planned < len(inputs)/2 || permuted == 0 {
		t.Fatalf("%d of %d tables planned, %d with a permuted class order: the harness misses the phased kernel", planned, len(inputs), permuted)
	}
	if slabPinned == 0 {
		t.Fatal("no row is pinned on its own phase's class: the harness misses the slab-0-only rows")
	}
}
