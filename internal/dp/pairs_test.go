package dp

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

// sparseInputs are the instances at the edges of the closed form of the
// singleton-and-pair pool (pairs.go).
var sparseInputs = []diffInput{
	// No class: the table is the zero vector alone.
	{"d=0", nil, nil, 10},
	// The last class has count 0, so the run position is not the last
	// position, and a class of count 0 takes no bit of the class mask.
	{"zero-count-last", []pcmax.Time{2, 3, 5, 7}, []int{2, 0, 3, 0}, 14},
	// 2·s <= T for both classes: pairs of the run class chain inside the
	// run of the row that holds nothing else, and the rows holding only the
	// first class pair it at x = 0.
	{"same-class-pairs", []pcmax.Time{3, 5}, []int{5, 6}, 10},
	// More than 64 classes, most of count 0: only the classes holding a job
	// take a bit of the mask.
	{"d=70", seqSizes(70), sparseCounts(70, map[int]int{2: 2, 30: 1, 50: 2, 69: 3}), 80},
}

// seqSizes returns the sizes 1..d.
func seqSizes(d int) []pcmax.Time {
	sizes := make([]pcmax.Time, d)
	for i := range sizes {
		sizes[i] = pcmax.Time(i + 1)
	}
	return sizes
}

// sparseCounts returns d counts, 0 except the given ones.
func sparseCounts(d int, set map[int]int) []int {
	counts := make([]int, d)
	for i, n := range set {
		counts[i] = n
	}
	return counts
}

// sparseOptions maps b to a support cap of 1-4, b%4 + 1.
func sparseOptions(b byte) conf.SparseOptions {
	return conf.SparseOptions{MaxSupport: 1 + int(b%4)}
}

// TestDifferentialSparseFill checks the production fill of sparse tables
// against fillOracle: sparseInputs, runShapeInputs and packedBoundaryInputs
// under every support cap (1-4), and a random population of up to seven
// classes of up to five jobs with a cap drawn per instance. Each table is
// built unplanned and with a forced plan and filled on the caller and on a
// 2-worker pool; its Opt array must be the oracle's and its relaxations the
// swept boxes, so it relaxes only its configurations of three or more jobs.
func TestDifferentialSparseFill(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	minWork, minSave := planMinWork, phaseMinSave
	t.Cleanup(func() { planMinWork, phaseMinSave = minWork, minSave })

	type sparseCase struct {
		in    diffInput
		sopts conf.SparseOptions
	}
	var cases []sparseCase
	fixed := append(append(append([]diffInput(nil), sparseInputs...), runShapeInputs...), packedBoundaryInputs...)
	for _, in := range fixed {
		for b := byte(0); b < 4; b++ {
			cases = append(cases, sparseCase{in, sparseOptions(b)})
		}
	}
	for seed := uint64(1); seed <= 300; seed++ {
		src := rng.New(seed)
		sizes, counts, T := randomInstance(src, 7, 5)
		in := diffInput{fmt.Sprintf("seed %d", seed), sizes, counts, T}
		cases = append(cases, sparseCase{in, sparseOptions(byte(src.Intn(4)))})
	}

	var filled, planned, chained int
	for _, c := range cases {
		for _, force := range []bool{false, true} {
			planMinWork, phaseMinSave = math.MaxInt64, minSave
			if force {
				planMinWork, phaseMinSave = 0, 0
			}
			label := fmt.Sprintf("%s, %+v, forced plan %v", c.in.name, c.sopts, force)
			tbl, err := NewSparse(c.in.sizes, c.in.counts, c.in.T, 0, 0, nil, c.sopts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if tbl.Sigma*int64(len(tbl.Configs)) > 1<<22 {
				continue // too slow for the oracle
			}
			oracle := fillOracle(tbl)
			swept, _ := boxSums(tbl)
			for _, p := range []*par.Pool{nil, pool} {
				if err := tbl.FillAutoCtx(context.Background(), p); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				optEqual(t, fmt.Sprintf("%s, pool %v", label, p != nil), tbl.Opt, oracle)
				if got := tbl.AutoStats.Relaxations; got != swept {
					t.Fatalf("%s, pool %v: %d relaxations, want the swept boxes' %d", label, p != nil, got, swept)
				}
			}
			filled++
			if tbl.SlabPhases() > 0 {
				planned++
			}
			for i, s := range tbl.Sizes {
				if tbl.Counts[i] >= 2 && 2*s <= tbl.T {
					chained++
					break
				}
			}
		}
	}
	t.Logf("%d tables, %d planned, %d with a class that pairs with itself", filled, planned, chained)
	if planned == 0 || planned == filled || chained == 0 {
		t.Fatal("the population misses planned or unplanned tables, or same-class pairs")
	}
}
