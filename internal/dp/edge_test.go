package dp

import (
	"testing"

	"repro/internal/par"
	"repro/pcmax"
)

func TestZeroCountClass(t *testing.T) {
	// A class with count 0 contributes radix 1: it must not break strides,
	// levels or configs.
	tbl, err := New([]pcmax.Time{5, 7}, []int{0, 3}, 21, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Sigma != 4 {
		t.Fatalf("sigma = %d, want 4", tbl.Sigma)
	}
	fillSeq(t, tbl)
	opt, err := tbl.OptValue()
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs of 7 with T=21: all fit on one machine.
	if opt != 1 {
		t.Fatalf("OPT = %d, want 1", opt)
	}
}

func TestAllZeroCounts(t *testing.T) {
	tbl, err := New([]pcmax.Time{5}, []int{0}, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, tbl)
	if opt, _ := tbl.OptValue(); opt != 0 {
		t.Fatalf("OPT = %d, want 0", opt)
	}
	machines, err := tbl.Reconstruct()
	if err != nil || len(machines) != 0 {
		t.Fatalf("machines = %v, %v", machines, err)
	}
}

func TestSingleEntryPerLevel(t *testing.T) {
	// One class: levels are singletons; parallel fill must handle q_l = 1
	// with many workers (the paper's q_l < P case).
	pool := par.NewPool(8)
	defer pool.Close()
	tbl, err := New([]pcmax.Time{3}, []int{12}, 9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillPar(t, tbl, pool)
	opt, err := tbl.OptValue()
	if err != nil {
		t.Fatal(err)
	}
	if opt != 4 { // 12 jobs of 3, 3 per machine
		t.Fatalf("OPT = %d, want 4", opt)
	}
}

func TestTightCapacityOneJobPerMachine(t *testing.T) {
	// T equal to the size: every machine holds exactly one job.
	tbl, err := New([]pcmax.Time{9}, []int{5}, 9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, tbl)
	if opt, _ := tbl.OptValue(); opt != 5 {
		t.Fatalf("OPT = %d, want 5", opt)
	}
	machines, err := tbl.Reconstruct()
	if err != nil || len(machines) != 5 {
		t.Fatalf("machines = %d, %v", len(machines), err)
	}
}

func TestManyDimensionsSmallCounts(t *testing.T) {
	// Eight classes of one job each: sigma = 2^8, deep anti-diagonal
	// structure with tiny levels.
	sizes := []pcmax.Time{10, 11, 12, 13, 14, 15, 16, 17}
	counts := []int{1, 1, 1, 1, 1, 1, 1, 1}
	ref, err := New(sizes, counts, 30, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, ref)
	pool := par.NewPool(3)
	defer pool.Close()
	tbl, err := New(sizes, counts, 30, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillPar(t, tbl, pool)
	for i := range tbl.Opt {
		if tbl.Opt[i] != ref.Opt[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
	// Total 108 over capacity 30: at least ceil(108/30)=4 machines; pairs
	// sum <= 30 only for (10,...): verify against the sequential value only.
	opt, _ := tbl.OptValue()
	refOpt, _ := ref.OptValue()
	if opt != refOpt {
		t.Fatalf("opt %d != %d", opt, refOpt)
	}
}

func TestLevelSizesSingleClass(t *testing.T) {
	q := LevelSizes([]int{4})
	want := []int64{1, 1, 1, 1, 1}
	if len(q) != len(want) {
		t.Fatalf("q = %v", q)
	}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
}

func TestLevelSizesNegativeCountClamped(t *testing.T) {
	q := LevelSizes([]int{-3, 2})
	if len(q) != 3 || q[0] != 1 || q[1] != 1 || q[2] != 1 {
		t.Fatalf("q = %v, want [1 1 1]", q)
	}
}
