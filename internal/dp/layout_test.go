package dp

import (
	"context"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

// forcePlans zeroes the plan thresholds for the rest of the test, so every
// table built from a fresh cache gets a slab-phase plan with a phase for
// every class some configuration leaves empty, also one that saves no
// 2-worker time because each such configuration is pinned on it: the phased
// kernel then runs on tables small enough to check against fillOracle.
func forcePlans(t testing.TB) {
	t.Helper()
	minWork, minSave := planMinWork, phaseMinSave
	planMinWork, phaseMinSave = 0, 0
	t.Cleanup(func() { planMinWork, phaseMinSave = minWork, minSave })
}

// TestFillParallelRoundsAllocateNothing pins Algorithm 3's level rounds and
// its digit-sum chunks as allocation-free: on 2 workers, tables of 16
// entries with 4 and 15 levels, of 256 entries with 12 and of 4,096 entries
// with 28 (4 chunks of the digit-sum pass) cost the same allocations per
// fill, under context.Background and under a cancelable context.
func TestFillParallelRoundsAllocateNothing(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	want := -1.0
	for _, counts := range [][]int{{1, 1, 1, 1}, {0, 0, 0, 15}, {3, 3, 3, 3}, {7, 7, 7, 7}} {
		tbl, err := New([]pcmax.Time{1, 2, 3, 4}, counts, 20, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []context.Context{context.Background(), ctx} {
			got := testing.AllocsPerRun(20, func() {
				if err := tbl.FillParallelCtx(c, pool); err != nil {
					t.Fatal(err)
				}
			})
			if want < 0 {
				want = got
			}
			if got != want {
				t.Errorf("counts %v (%d entries, %d levels), cancelable %v: %v allocations per fill, want %v: the level rounds or the digit-sum chunks allocate",
					counts, tbl.Sigma, tbl.NPrime, c != context.Background(), got, want)
			}
		}
	}
}

// TestFillRecursiveAllocationsDoNotGrow pins Algorithm 2's allocations as
// independent of the table: a fill of 16 entries and one of 4,096 entries
// cost the same allocations, its digit stack and no per-entry scratch.
func TestFillRecursiveAllocationsDoNotGrow(t *testing.T) {
	allocs := func(counts []int) float64 {
		tbl, err := New([]pcmax.Time{1, 2, 3, 4}, counts, 20, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := tbl.FillRecursiveCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs([]int{1, 1, 1, 1}), allocs([]int{7, 7, 7, 7})
	if small != large {
		t.Fatalf("a 16-entry fill allocated %v times, a 4,096-entry fill %v: Algorithm 2 allocates per entry", small, large)
	}
}

// TestProductionFillAllocations pins the production fill's allocations: the
// odometer scratch on the caller, and on a pool the shared state, the worker
// slots, their odometers and the round body, however many phases run. A
// sparse table's closed-form pass runs on the odometer scratch and adds
// none.
func TestProductionFillAllocations(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	tbl := bigTable(t)
	if len(tbl.lay.ends) == 0 {
		t.Fatal("bigTable has no slab-phase plan")
	}
	sparse := sparseStrideTable(t)
	for _, tc := range []struct {
		name string
		tbl  *Table
		pool *par.Pool
		want float64
	}{
		{"caller", tbl, nil, 1},
		{"pool", tbl, pool, 4},
		{"sparse-caller", sparse, nil, 1},
		{"sparse-pool", sparse, pool, 4},
	} {
		got := testing.AllocsPerRun(10, func() {
			if err := tc.tbl.FillAutoCtx(context.Background(), tc.pool); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: FillAutoCtx allocated %v times, want %v", tc.name, got, tc.want)
		}
	}
}

// TestKernelsAllocateNothing pins the hot-path kernels, which run once
// per table entry or row of runs, as allocation-free: the config-outer
// relaxation, the closed-form pass over a whole sparse table and its run
// copy, both odometer steps, and the incremental decoder on a first, a
// forward, a backward and a repeated index each read 0 allocations per
// call.
func TestKernelsAllocateNothing(t *testing.T) {
	tbl := bigTable(t)
	last, mid := tbl.Sigma-1, tbl.Sigma/2
	v := make([]int32, len(tbl.Stride))
	dec := &newDecoders(tbl, 1)[0]
	sparse, err := NewSparse(tbl.Sizes, tbl.Counts, tbl.T, 0, 0, nil, conf.SparseOptions{MaxSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	pass := slabFill{t: sparse, done: make(chan struct{}), workers: newSlabWorkers(sparse.set.d, 1)}
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"relaxRuns", func() { relaxRuns(tbl.Opt, 8, 3, 4, 16, 2) }},
		{"pairPass", func() { pass.pairPass(&pass.workers[0]) }},
		{"pairRun", func() { pairRun(tbl.Opt, 8, 12, 3) }},
		{"advance", func() { clear(v); tbl.advance(v, last) }},
		{"advanceOne", func() { clear(v); tbl.advanceOne(v) }},
		{"decoder.at/first", func() { dec.reset(); dec.at(mid) }},
		{"decoder.at/forward", func() { dec.reset(); dec.at(1); dec.at(last) }},
		{"decoder.at/backward", func() { dec.at(last); dec.at(1) }},
		{"decoder.at/repeated", func() { dec.at(1) }},
	} {
		if got := testing.AllocsPerRun(100, k.run); got != 0 {
			t.Errorf("%s allocated %v times per call, want 0", k.name, got)
		}
	}
}

// TestSlabWorkerOdometersDoNotShareLines pins the padding of a pooled fill's
// worker slots: each odometer holds its 2·d words, and at least a cache line
// lies between the last word one worker writes and the first of the next.
func TestSlabWorkerOdometersDoNotShareLines(t *testing.T) {
	for d := 1; d <= 12; d++ {
		for workers := 2; workers <= 4; workers++ {
			sw := newSlabWorkers(d, workers)
			for w := range sw {
				if len(sw[w].odo) != 2*d {
					t.Fatalf("d=%d: worker %d odometer holds %d words, want %d", d, w, len(sw[w].odo), 2*d)
				}
				if w == 0 {
					continue
				}
				// The odometers slice one allocation, so their capacities
				// differ by the distance between their starts.
				if gap := cap(sw[w-1].odo) - cap(sw[w].odo) - 2*d; gap*4 < 64 {
					t.Errorf("d=%d workers=%d: %d bytes between workers %d and %d, want a cache line", d, workers, gap*4, w-1, w)
				}
			}
		}
	}
}

// TestScanSetMatchesConfigs checks the scan view the production kernel walks
// against Table.Configs, unplanned and planned, faithful and sparse: each
// row is a configuration with its columns in position order and its
// offset, every configuration is one row (on a sparse set, every
// configuration of three or more jobs, the rest being the closed form's,
// whose pool keeps the pairs of two classes under a support cap of 1),
// the phases' rows leave their phase's class empty, inside a phase the rows
// ascend in Jobs and within equal Jobs descend lexicographically (a sparse
// set keeps the enumeration order, ascending), and a row marks exactly the
// classes refPins gives it: some by an upgrade alone, on the planned set
// some upgrades refused by the phase rule, and none on a sparse set.
func TestScanSetMatchesConfigs(t *testing.T) {
	sizes := []pcmax.Time{4, 6, 7}
	counts := []int{3, 2, 2}
	const T = 16
	for _, tc := range []struct {
		name            string
		planned, sparse bool
		support         int
	}{
		{"unplanned", false, false, 0},
		{"planned", true, false, 0},
		{"sparse-planned", true, true, 2},
		{"sparse-pairs-planned", true, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.planned {
				forcePlans(t)
			}
			tbl, err := New(sizes, counts, T, 0, 0)
			if tc.sparse {
				tbl, err = NewSparse(sizes, counts, T, 0, 0, nil, conf.SparseOptions{MaxSupport: tc.support})
			}
			if err != nil {
				t.Fatal(err)
			}
			if planned := tbl.SlabPhases() > 0; planned != tc.planned {
				t.Fatalf("planned = %v, want %v", planned, tc.planned)
			}
			// seen marks the configurations that are no row: none, or the
			// closed form's pool of at most two jobs.
			seen := make([]bool, len(tbl.Configs))
			swept := len(tbl.Configs)
			for i, c := range tbl.Configs {
				if seen[i] = tc.sparse && c.Jobs <= 2; seen[i] {
					swept--
				}
			}
			s, d, ends := tbl.set, tbl.set.d, tbl.lay.ends
			if s.n != swept || d != len(sizes) || (s.pairs != nil) != tc.sparse {
				t.Fatalf("set n=%d d=%d closed form %v, want %d configurations of %d classes", s.n, d, s.pairs != nil, swept, len(sizes))
			}
			if tc.sparse && swept == 0 {
				t.Fatal("the sparse set has no configuration of three or more jobs")
			}
			if wide := widePairs(tbl, tc.support); (wide > 0) != (tc.support == 1) {
				t.Fatalf("%d pairs of the pool use more classes than the support cap %d", wide, tc.support)
			}
			phaseOf := func(row int) int {
				for k, end := range ends {
					if int64(row) < end {
						return k
					}
				}
				return len(ends)
			}
			var marks, upgrades, refused int
			var prev conf.Config
			for row := 0; row < s.n; row++ {
				cols := s.counts[row*d : row*d+d]
				ci := -1
				for i, c := range tbl.Configs {
					match := !seen[i] && c.Offset == s.offsets[row]
					for q, cls := range tbl.lay.order {
						x := cols[q]
						if x < 0 {
							x = ^x
						}
						match = match && x == c.Counts[cls]
					}
					if match {
						ci = i
						break
					}
				}
				if ci < 0 {
					t.Fatalf("row %d (%v, offset %d) is no configuration left", row, cols, s.offsets[row])
				}
				seen[ci] = true
				c := tbl.Configs[ci]
				pin := refPins(tbl, c.Counts)
				var w pcmax.Time
				for i, x := range c.Counts {
					w += pcmax.Time(x) * sizes[i]
				}
				for q, cls := range tbl.lay.order {
					if (cols[q] < 0) != pin[cls] {
						t.Errorf("row %d (%v): class %d marked %v, want %v", row, c.Counts, cls, cols[q] < 0, pin[cls])
					}
					upgradable := false
					for j := int64(0); j < cls; j++ {
						upgradable = upgradable || c.Counts[j] > 0 && sizes[cls] <= T-w+sizes[j]
					}
					switch {
					case cols[q] < 0 && sizes[cls] > T-w:
						upgrades++
					case cols[q] >= 0 && sizes[cls] > T-w && upgradable && !tc.sparse:
						refused++
					}
					if cols[q] < 0 {
						marks++
					}
				}
				k := phaseOf(row)
				if k < len(ends) && c.Counts[tbl.lay.order[k]] != 0 {
					t.Errorf("row %d of phase %d uses the phase's class", row, k)
				}
				if row > 0 && phaseOf(row-1) == k {
					if prev.Jobs > c.Jobs {
						t.Errorf("row %d (%v, %d jobs) follows %v (%d jobs) in phase %d", row, c.Counts, c.Jobs, prev.Counts, prev.Jobs, k)
					}
					if prev.Jobs == c.Jobs && lexLess(prev.Counts, c.Counts) != tc.sparse {
						t.Errorf("row %d (%v) follows %v in phase %d: want lex-descending rows within equal Jobs on a faithful set, ascending on a sparse one", row, c.Counts, prev.Counts, k)
					}
				}
				prev = c
			}
			if (marks > 0) == tc.sparse {
				t.Errorf("%d pinned positions on a table with sparse = %v", marks, tc.sparse)
			}
			if !tc.sparse && upgrades == 0 {
				t.Error("no class is pinned by an upgrade alone: the fixture does not reach the upgrade rule")
			}
			if (refused > 0) != (tc.planned && !tc.sparse) {
				t.Errorf("%d upgrades refused by the phase rule, planned = %v, sparse = %v", refused, tc.planned, tc.sparse)
			}
		})
	}
}

// widePairs counts tbl's configurations of at most two jobs that use more
// than support classes: the pairs a sparse set keeps only through its
// singleton-and-pair pool (0 when support <= 0, no cap).
func widePairs(tbl *Table, support int) int {
	n := 0
	for _, c := range tbl.Configs {
		classes := 0
		for _, x := range c.Counts {
			if x > 0 {
				classes++
			}
		}
		if support > 0 && c.Jobs <= 2 && classes > support {
			n++
		}
	}
	return n
}

// lexLess reports whether a comes before b in lexicographic order.
func lexLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
