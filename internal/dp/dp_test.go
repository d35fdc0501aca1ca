package dp

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/conf"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/pcmax"
)

// fillSeq, fillRec and fillPar run a fill on a context that never cancels,
// so only a broken fill makes them fail.
func fillSeq(t testing.TB, tbl *Table) {
	t.Helper()
	if err := tbl.FillSequentialCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func fillRec(t testing.TB, tbl *Table) {
	t.Helper()
	if err := tbl.FillRecursiveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func fillPar(t testing.TB, tbl *Table, pool *par.Pool) {
	t.Helper()
	if err := tbl.FillParallelCtx(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
}

// paperTable builds the paper's Section III example: sizes (6, 11), counts
// N = (2, 3), target makespan T = 30.
func paperTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New([]pcmax.Time{6, 11}, []int{2, 3}, 30, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestPaperExampleDimensions(t *testing.T) {
	tbl := paperTable(t)
	if tbl.Sigma != 12 {
		t.Fatalf("sigma = %d, want 12 (the paper's (2+1)(3+1) entries)", tbl.Sigma)
	}
	if tbl.NPrime != 5 {
		t.Fatalf("n' = %d, want 5", tbl.NPrime)
	}
	if len(tbl.Configs) != 7 {
		t.Fatalf("%d configurations, want the paper's 7", len(tbl.Configs))
	}
	if tbl.Stride[0] != 4 || tbl.Stride[1] != 1 {
		t.Fatalf("strides = %v, want [4 1] (row-major)", tbl.Stride)
	}
}

func TestPaperExampleOptValues(t *testing.T) {
	tbl := paperTable(t)
	fillSeq(t, tbl)
	// Hand-checked values: a machine holds at most (1,2)=28, (2,1)=23,
	// (0,2)=22 etc. OPT(2,3) needs 2 machines: (1,2)+(1,1).
	cases := map[[2]int]int32{
		{0, 0}: 0, {0, 1}: 1, {0, 2}: 1, {0, 3}: 2,
		{1, 0}: 1, {1, 1}: 1, {1, 2}: 1, {1, 3}: 2,
		{2, 0}: 1, {2, 1}: 1, {2, 2}: 2, {2, 3}: 2,
	}
	for v, want := range cases {
		idx := int64(v[0])*4 + int64(v[1])
		if got := tbl.Opt[idx]; got != want {
			t.Fatalf("OPT(%d,%d) = %d, want %d", v[0], v[1], got, want)
		}
	}
	opt, err := tbl.OptValue()
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("OPT(N) = %d, want 2", opt)
	}
}

func TestAllFillsAgreeOnPaperExample(t *testing.T) {
	ref := paperTable(t)
	fillSeq(t, ref)

	rec := paperTable(t)
	fillRec(t, rec)
	if rec.Opt[rec.Sigma-1] != ref.Opt[ref.Sigma-1] {
		t.Fatalf("recursive OPT %d != sequential %d", rec.Opt[rec.Sigma-1], ref.Opt[ref.Sigma-1])
	}

	pool := par.NewPool(3)
	defer pool.Close()
	tbl := paperTable(t)
	fillPar(t, tbl, pool)
	for i := range tbl.Opt {
		if tbl.Opt[i] != ref.Opt[i] {
			t.Fatalf("parallel: entry %d = %d, want %d", i, tbl.Opt[i], ref.Opt[i])
		}
	}
}

func TestReconstructPaperExample(t *testing.T) {
	tbl := paperTable(t)
	fillSeq(t, tbl)
	machines, err := tbl.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2 {
		t.Fatalf("reconstructed %d machines, want 2", len(machines))
	}
	var total [2]int32
	for _, cfg := range machines {
		var w pcmax.Time
		for c, cnt := range cfg {
			total[c] += cnt
			w += pcmax.Time(cnt) * tbl.Sizes[c]
		}
		if w > tbl.T {
			t.Fatalf("machine config %v weighs %d > T=%d", cfg, w, tbl.T)
		}
	}
	if total[0] != 2 || total[1] != 3 {
		t.Fatalf("reconstruction covers %v, want (2,3)", total)
	}
}

func TestReconstructAfterRecursiveFill(t *testing.T) {
	tbl := paperTable(t)
	fillRec(t, tbl)
	machines, err := tbl.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2 {
		t.Fatalf("reconstructed %d machines, want 2", len(machines))
	}
}

func TestUseBeforeFill(t *testing.T) {
	tbl := paperTable(t)
	if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("want ErrNotFilled, got %v", err)
	}
	if _, err := tbl.Reconstruct(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("want ErrNotFilled, got %v", err)
	}
}

func TestEmptyTable(t *testing.T) {
	tbl, err := New(nil, nil, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Sigma != 1 {
		t.Fatalf("sigma = %d, want 1", tbl.Sigma)
	}
	fillSeq(t, tbl)
	opt, err := tbl.OptValue()
	if err != nil || opt != 0 {
		t.Fatalf("OPT = %d, %v; want 0", opt, err)
	}
	machines, err := tbl.Reconstruct()
	if err != nil || len(machines) != 0 {
		t.Fatalf("machines = %v, %v", machines, err)
	}

	pool := par.NewPool(2)
	defer pool.Close()
	tbl2, err := New(nil, nil, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillPar(t, tbl2, pool)
	if opt, err := tbl2.OptValue(); err != nil || opt != 0 {
		t.Fatalf("parallel empty table OPT = %d, %v", opt, err)
	}

	// A sparse set starts from the closed form, which has no position to run
	// along.
	tbl3, err := NewSparse(nil, nil, 10, 0, 0, nil, conf.SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl3.set.pairs == nil {
		t.Fatal("the empty sparse table has no closed form")
	}
	for _, p := range []*par.Pool{nil, pool} {
		if err := tbl3.FillAutoCtx(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		if opt, err := tbl3.OptValue(); err != nil || opt != 0 {
			t.Fatalf("sparse empty table OPT = %d, %v", opt, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]pcmax.Time{5}, []int{1, 2}, 10, 0, 0); err == nil {
		t.Fatal("want mismatched dims error")
	}
	if _, err := New([]pcmax.Time{5}, []int{1}, 0, 0, 0); err == nil {
		t.Fatal("want T<1 error")
	}
	if _, err := New([]pcmax.Time{0}, []int{1}, 10, 0, 0); err == nil {
		t.Fatal("want size<=0 error")
	}
	if _, err := New([]pcmax.Time{11}, []int{1}, 10, 0, 0); err == nil {
		t.Fatal("want size>T error")
	}
	if _, err := New([]pcmax.Time{5, 5}, []int{1, 1}, 10, 0, 0); err == nil {
		t.Fatal("want non-ascending sizes error")
	}
	if _, err := New([]pcmax.Time{5}, []int{-1}, 10, 0, 0); err == nil {
		t.Fatal("want negative count error")
	}
}

func TestTableTooLarge(t *testing.T) {
	_, err := New([]pcmax.Time{1, 2, 3}, []int{100, 100, 100}, 1000, 1000, 0)
	if !errors.Is(err, ErrTableTooLarge) {
		t.Fatalf("want ErrTableTooLarge, got %v", err)
	}
}

func TestLevelSizesPaperExample(t *testing.T) {
	q := LevelSizes([]int{2, 3})
	want := []int64{1, 2, 3, 3, 2, 1}
	if len(q) != len(want) {
		t.Fatalf("levels = %v, want %v", q, want)
	}
	for l := range want {
		if q[l] != want[l] {
			t.Fatalf("q_%d = %d, want %d (paper's anti-diagonal sizes)", l, q[l], want[l])
		}
	}
}

func TestLevelSizesSumsToSigma(t *testing.T) {
	f := func(c1, c2, c3 uint8) bool {
		counts := []int{int(c1 % 7), int(c2 % 7), int(c3 % 7)}
		q := LevelSizes(counts)
		var sum int64
		for _, v := range q {
			sum += v
		}
		sigma := int64(counts[0]+1) * int64(counts[1]+1) * int64(counts[2]+1)
		return sum == sigma && len(q) == counts[0]+counts[1]+counts[2]+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSizesEmpty(t *testing.T) {
	q := LevelSizes(nil)
	if len(q) != 1 || q[0] != 1 {
		t.Fatalf("LevelSizes(nil) = %v, want [1]", q)
	}
}

// randomTable builds a random valid table for property tests.
func randomTable(src *rng.Source) *Table {
	d := 1 + src.Intn(3)
	sizes := make([]pcmax.Time, 0, d)
	counts := make([]int, 0, d)
	s := pcmax.Time(0)
	for i := 0; i < d; i++ {
		s += 1 + pcmax.Time(src.Int64n(15))
		sizes = append(sizes, s)
		counts = append(counts, src.Intn(5))
	}
	T := s + pcmax.Time(src.Int64n(40))
	tbl, err := New(sizes, counts, T, 0, 0)
	if err != nil {
		panic(err)
	}
	return tbl
}

func cloneEmpty(t *Table) *Table {
	tbl, err := New(t.Sizes, t.Counts, t.T, 0, 0)
	if err != nil {
		panic(err)
	}
	return tbl
}

func TestAllFillsAgreeOnRandomTablesProperty(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	f := func(seed uint64) bool {
		src := rng.New(seed)
		ref := randomTable(src)
		fillSeq(t, ref)

		rec := cloneEmpty(ref)
		fillRec(t, rec)
		if rec.Opt[rec.Sigma-1] != ref.Opt[ref.Sigma-1] {
			return false
		}

		p := cloneEmpty(ref)
		fillPar(t, p, pool)
		for i := range p.Opt {
			if p.Opt[i] != ref.Opt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		tbl := randomTable(src)
		fillSeq(t, tbl)
		machines, err := tbl.Reconstruct()
		if err != nil {
			return false
		}
		opt, err := tbl.OptValue()
		if err != nil || len(machines) != opt {
			return false
		}
		covered := make([]int32, len(tbl.Sizes))
		for _, cfg := range machines {
			var w pcmax.Time
			for c, cnt := range cfg {
				covered[c] += cnt
				w += pcmax.Time(cnt) * tbl.Sizes[c]
			}
			if w > tbl.T {
				return false
			}
		}
		for c := range covered {
			if int(covered[c]) != tbl.Counts[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptMatchesGreedySingleSize(t *testing.T) {
	// One size class: OPT(n) = ceil(n / floor(T/size)).
	tbl, err := New([]pcmax.Time{7}, []int{10}, 22, 0, 0) // 3 jobs per machine
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, tbl)
	opt, err := tbl.OptValue()
	if err != nil {
		t.Fatal(err)
	}
	if opt != 4 { // ceil(10/3)
		t.Fatalf("OPT = %d, want 4", opt)
	}
}
