package dp

// Coverage for the production fill's pins: each configuration of a faithful
// set relaxes only its pinned box, the entries where it is maximal. Pinning
// leaves every table equal, so table-equality tests cannot tell a fill that
// drops the pins, or that relaxes a pinned row on every slab chunk, from a
// correct one; AutoStats.Relaxations can.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

// boxSums returns the relaxations a production fill of tbl must do, the sum
// over its configurations of the pinned box, and the sum of the unpinned
// box {v : v >= c}. fit(c) is recomputed from the class sizes: the classes
// 0..fit(c)-1 are those whose size fits in c's slack, and a sparse table
// pins nothing.
func boxSums(tbl *Table) (pinned, full int64) {
	for ci := range tbl.Configs {
		c := tbl.Configs[ci].Counts
		var w pcmax.Time
		for i, x := range c {
			w += pcmax.Time(x) * tbl.Sizes[i]
		}
		p, f := int64(1), int64(1)
		for i, x := range c {
			n := int64(tbl.Counts[i]) - int64(x) + 1
			f *= n
			if tbl.Mode == EnumSparse || tbl.Sizes[i] > tbl.T-w {
				p *= n
			}
		}
		pinned += p
		full += f
	}
	return pinned, full
}

// pinnedOnSlab counts the rows of tbl's slab phases that are pinned on
// their own phase's class, whose pinned box lies in that class's slab 0.
func pinnedOnSlab(tbl *Table) int {
	n, row, d := 0, 0, tbl.set.d
	for k, end := range tbl.lay.ends {
		for ; row < int(end); row++ {
			if tbl.set.counts[row*d+k] < 0 {
				n++
			}
		}
	}
	return n
}

// TestFillRelaxationsArePinnedBoxes pins the work of the production fill:
// AutoStats.Relaxations equals the sum of the configurations' pinned boxes,
// below the unpinned sum, on planned and unplanned tables, on the caller and
// on a 2-worker pool; a sparse table relaxes its unpinned boxes.
func TestFillRelaxationsArePinnedBoxes(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	minWork := planMinWork
	t.Cleanup(func() { planMinWork = minWork })
	sizes := []pcmax.Time{2, 3, 5, 7}
	counts := []int{4, 3, 3, 2}
	const T = 14
	var slabPinned int
	for _, tc := range []struct {
		name   string
		force  bool
		sparse bool
	}{
		{"unplanned", false, false},
		{"planned", true, false},
		{"sparse-planned", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planMinWork = math.MaxInt64
			if tc.force {
				forcePlans(t)
			}
			tbl, err := New(sizes, counts, T, 0, 0)
			if tc.sparse {
				tbl, err = NewSparse(sizes, counts, T, 0, 0, nil, conf.SparseOptions{MaxSupport: 2, KeepJobs: 2})
			}
			if err != nil {
				t.Fatal(err)
			}
			if planned := tbl.SlabPhases() > 0; planned != tc.force {
				t.Fatalf("table planned = %v, want %v", planned, tc.force)
			}
			if !tc.sparse {
				slabPinned += pinnedOnSlab(tbl)
			}
			pinned, full := boxSums(tbl)
			if !tc.sparse && pinned >= full {
				t.Fatalf("pinned boxes sum to %d, unpinned to %d: the table pins nothing", pinned, full)
			}
			if tc.sparse && pinned != full {
				t.Fatalf("sparse table: pinned boxes sum to %d, unpinned to %d, want equal", pinned, full)
			}
			for _, p := range []*par.Pool{nil, pool} {
				if err := tbl.FillAutoCtx(context.Background(), p); err != nil {
					t.Fatal(err)
				}
				if got := tbl.AutoStats.Relaxations; got != pinned {
					t.Errorf("pool %v: %d relaxations, want the pinned boxes' %d (unpinned %d)", p != nil, got, pinned, full)
				}
			}
		})
	}
	if slabPinned == 0 {
		t.Fatal("no row is pinned on its own phase's class: a pinned row relaxed on every slab chunk would go unseen")
	}
}

// FuzzFill fills random (sizes, counts, T) tables with the production fill,
// with a slab-phase plan forced on every table, on the caller and on a
// 2-worker pool, and checks each against fillOracle and each relaxation
// count against the pinned boxes. A size is the previous one plus its step
// (at least 1), and T is the largest size plus extra.
func FuzzFill(f *testing.F) {
	for _, in := range append(append([]diffInput(nil), runShapeInputs...), packedBoundaryInputs...) {
		steps := make([]byte, len(in.sizes))
		counts := make([]byte, len(in.counts))
		prev := pcmax.Time(0)
		for i, s := range in.sizes {
			steps[i], counts[i], prev = byte(s-prev), byte(in.counts[i]), s
		}
		f.Add(steps, counts, uint16(in.T-prev))
	}
	forcePlans(f)
	pool := par.NewPool(2)
	defer pool.Close()
	f.Fuzz(func(t *testing.T, steps, counts []byte, extra uint16) {
		d := min(len(steps), len(counts), 10)
		sizes := make([]pcmax.Time, d)
		cnt := make([]int, d)
		s := pcmax.Time(0)
		for i := range d {
			s += pcmax.Time(max(steps[i], 1))
			sizes[i], cnt[i] = s, int(counts[i])
		}
		T := max(s, 1) + pcmax.Time(extra)
		label := fmt.Sprintf("sizes %v counts %v T %d", sizes, cnt, T)
		tbl, err := New(sizes, cnt, T, 1<<12, 1<<10)
		if err != nil {
			t.Skip(err)
		}
		if tbl.Sigma*int64(len(tbl.Configs)) > 1<<20 {
			t.Skip("oracle too slow")
		}
		oracle := fillOracle(tbl)
		pinned, _ := boxSums(tbl)
		for _, p := range []*par.Pool{nil, pool} {
			if err := tbl.FillAutoCtx(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			optEqual(t, fmt.Sprintf("%s, pool %v", label, p != nil), tbl.Opt, oracle)
			if got := tbl.AutoStats.Relaxations; got != pinned {
				t.Fatalf("%s, pool %v: %d relaxations, want the pinned boxes' %d", label, p != nil, got, pinned)
			}
		}
	})
}
