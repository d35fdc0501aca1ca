package dp

// Coverage for the production fill's pins: each configuration of a faithful
// set relaxes only its pinned box, the entries where no remaining job can
// join it or upgrade it. Pinning leaves every table equal, so table-equality
// tests cannot tell a fill that drops the pins, or that relaxes a pinned row
// on every slab chunk, from a correct one; AutoStats.Relaxations can.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

// refPins returns the classes configuration c of tbl pins, by the rule's
// definition: class a is pinned when s_a fits in c's slack, or in its slack
// plus s_j for some class j < a that c holds, unless c holds one job of j
// and j is a phase class of an earlier phase than c's (c's phase is that of
// the first phase class it leaves empty). A sparse table pins nothing.
func refPins(tbl *Table, c []int32) []bool {
	pinned := make([]bool, len(c))
	if tbl.Mode == EnumSparse {
		return pinned
	}
	phases := len(tbl.lay.ends)
	k := phases
	for q := phases - 1; q >= 0; q-- {
		if c[tbl.lay.order[q]] == 0 {
			k = q
		}
	}
	early := func(j int) bool {
		for _, cls := range tbl.lay.order[:k] {
			if cls == int64(j) {
				return true
			}
		}
		return false
	}
	var w pcmax.Time
	for i, x := range c {
		w += pcmax.Time(x) * tbl.Sizes[i]
	}
	slack := tbl.T - w
	for a := range c {
		pinned[a] = tbl.Sizes[a] <= slack
		for j := 0; j < a; j++ {
			if c[j] > 0 && tbl.Sizes[a] <= slack+tbl.Sizes[j] && (c[j] > 1 || !early(j)) {
				pinned[a] = true
			}
		}
	}
	return pinned
}

// boxSums returns the relaxations a production fill of tbl must do, the sum
// over the configurations it sweeps of the pinned box (refPins), and the sum
// of the unpinned box {v : v >= c} over all of them. A sparse tbl's fill
// writes its configurations of at most two jobs in closed form and sweeps
// only the others.
func boxSums(tbl *Table) (pinned, full int64) {
	for ci := range tbl.Configs {
		c := tbl.Configs[ci].Counts
		pin := refPins(tbl, c)
		p, f := int64(1), int64(1)
		for i, x := range c {
			n := int64(tbl.Counts[i]) - int64(x) + 1
			f *= n
			if !pin[i] {
				p *= n
			}
		}
		if tbl.Mode != EnumSparse || tbl.Configs[ci].Jobs > 2 {
			pinned += p
		}
		full += f
	}
	return pinned, full
}

// TestPinRule checks the pin predicate class by class: a class is pinned
// when its job fits in the configuration's slack, or when it fits in the
// slack plus the size of a smaller job the configuration holds, except when
// that job is the configuration's last of a phase class of an earlier phase.
func TestPinRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []pcmax.Time
		T      pcmax.Time
		counts []int32
		early  []bool
		want   []bool
	}{
		// Slack 6: a 2 fits, a 9 fits neither the slack nor 6+2.
		{"fit", []pcmax.Time{2, 9}, 10, []int32{2, 0}, []bool{false, false}, []bool{true, false}},
		// Slack 7: a 9 does not fit, but it can replace a 2 (7+2).
		{"upgrade", []pcmax.Time{2, 9}, 11, []int32{2, 0}, []bool{false, false}, []bool{true, true}},
		// Slack 8: a 9 could replace the 4, but the 4 is the last job of
		// a phase class of an earlier phase.
		{"upgrade-refused", []pcmax.Time{4, 9}, 12, []int32{1, 0}, []bool{true, false}, []bool{true, false}},
		// Two jobs of that phase class: swapping one out keeps the phase.
		{"upgrade-keeps-phase", []pcmax.Time{4, 9}, 16, []int32{2, 0}, []bool{true, false}, []bool{true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := conf.Config{Counts: tc.counts}
			for i, x := range tc.counts {
				c.Weight += pcmax.Time(x) * tc.sizes[i]
			}
			pw := pins{sizes: tc.sizes, T: tc.T}.walk(&c)
			for a, x := range tc.counts {
				if got := pw.next(a, x, tc.early[a]); got != tc.want[a] {
					t.Errorf("class %d (size %d) pinned = %v, want %v", a, tc.sizes[a], got, tc.want[a])
				}
			}
			if pw := (pins{}).walk(&c); pw.next(0, tc.counts[0], false) {
				t.Error("the zero pins (a sparse set) pin a class")
			}
		})
	}
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
// on a 2-worker pool; a sparse table relaxes the unpinned boxes of its
// configurations of three or more jobs alone, also under a support cap of 1,
// whose pool keeps pairs of two classes that no swept row may hold (at
// T = 15: at 14 that cap leaves no configuration of three or more jobs).
func TestFillRelaxationsArePinnedBoxes(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	minWork := planMinWork
	t.Cleanup(func() { planMinWork = minWork })
	sizes := []pcmax.Time{2, 3, 5, 7}
	counts := []int{4, 3, 3, 2}
	var slabPinned int
	for _, tc := range []struct {
		name    string
		force   bool
		sparse  bool
		support int
		T       pcmax.Time
	}{
		{"unplanned", false, false, 0, 14},
		{"planned", true, false, 0, 14},
		{"sparse-planned", true, true, 2, 14},
		{"sparse-pairs-planned", true, true, 1, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planMinWork = math.MaxInt64
			if tc.force {
				forcePlans(t)
			}
			tbl, err := New(sizes, counts, tc.T, 0, 0)
			if tc.sparse {
				tbl, err = NewSparse(sizes, counts, tc.T, 0, 0, nil, conf.SparseOptions{MaxSupport: tc.support})
			}
			if err != nil {
				t.Fatal(err)
			}
			if planned := tbl.SlabPhases() > 0; planned != tc.force {
				t.Fatalf("table planned = %v, want %v", planned, tc.force)
			}
			if wide := widePairs(tbl, tc.support); (wide > 0) != (tc.support == 1) {
				t.Fatalf("%d pairs of the pool use more classes than the support cap %d", wide, tc.support)
			}
			if !tc.sparse {
				slabPinned += pinnedOnSlab(tbl)
			}
			pinned, full := boxSums(tbl)
			if pinned >= full {
				t.Fatalf("swept boxes sum to %d, unpinned to %d: want less on a pinning or sparse table", pinned, full)
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
// count against the swept boxes. Each input fills a faithful table and a
// sparse one whose support cap (1-4) comes from the input; each seed
// instance is added under three caps. A size is the previous one plus its
// step (at least 1), and T is the largest size plus extra; up to 80
// classes, so that more than 64 of them, most of count 0, reach the closed
// form's class mask.
func FuzzFill(f *testing.F) {
	inputs := append(append([]diffInput(nil), runShapeInputs...), packedBoundaryInputs...)
	for k, in := range append(inputs, sparseInputs...) {
		steps := make([]byte, len(in.sizes))
		counts := make([]byte, len(in.counts))
		prev := pcmax.Time(0)
		for i, s := range in.sizes {
			steps[i], counts[i], prev = byte(s-prev), byte(in.counts[i]), s
		}
		for c := range 3 {
			f.Add(steps, counts, uint16(in.T-prev), byte((k+c)%4))
		}
	}
	forcePlans(f)
	pool := par.NewPool(2)
	defer pool.Close()
	f.Fuzz(func(t *testing.T, steps, counts []byte, extra uint16, sparse byte) {
		d := min(len(steps), len(counts), 80)
		sizes := make([]pcmax.Time, d)
		cnt := make([]int, d)
		s := pcmax.Time(0)
		for i := range d {
			s += pcmax.Time(max(steps[i], 1))
			sizes[i], cnt[i] = s, int(counts[i])
		}
		T := max(s, 1) + pcmax.Time(extra)
		sopts := sparseOptions(sparse)
		for _, arm := range []struct {
			name string
			new  func() (*Table, error)
		}{
			{"faithful", func() (*Table, error) { return New(sizes, cnt, T, 1<<12, 1<<10) }},
			{fmt.Sprintf("sparse %+v", sopts), func() (*Table, error) {
				return NewSparse(sizes, cnt, T, 1<<12, 1<<10, nil, sopts)
			}},
		} {
			label := fmt.Sprintf("%s: sizes %v counts %v T %d", arm.name, sizes, cnt, T)
			tbl, err := arm.new()
			if err != nil || tbl.Sigma*int64(len(tbl.Configs)) > 1<<20 {
				continue // too large for the budget or for the oracle
			}
			oracle := fillOracle(tbl)
			swept, _ := boxSums(tbl)
			for _, p := range []*par.Pool{nil, pool} {
				if err := tbl.FillAutoCtx(context.Background(), p); err != nil {
					t.Fatal(err)
				}
				optEqual(t, fmt.Sprintf("%s, pool %v", label, p != nil), tbl.Opt, oracle)
				if got := tbl.AutoStats.Relaxations; got != swept {
					t.Fatalf("%s, pool %v: %d relaxations, want the swept boxes' %d", label, p != nil, got, swept)
				}
			}
		}
	})
}
