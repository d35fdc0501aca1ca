package dp

// Deterministic cancellation coverage for every fill variant: an
// already-canceled context must abort the fill (the table stays unfilled,
// the structured error matches cancel.ErrCanceled), and the same table must
// recover completely on the next uncanceled fill — partial garbage from the
// aborted attempt must not leak into the final values.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
	"repro/internal/conf"
	"repro/internal/par"
	"repro/pcmax"
)

// bigTable builds a table with >2^15 entries so the amortized budget
// countdown (fillCheckEvery) is guaranteed to expire mid-fill even when the
// context was canceled before the first entry.
func bigTable(t *testing.T) *Table {
	t.Helper()
	sizes := []pcmax.Time{1, 2, 3, 4, 5}
	counts := []int{7, 7, 7, 7, 8}
	tbl, err := New(sizes, counts, 15, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Sigma <= fillCheckEvery {
		t.Fatalf("table too small for the test: Sigma = %d", tbl.Sigma)
	}
	return tbl
}

func canceledCtx() context.Context {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	return ctx
}

// fillVariant is one fill entry point, bound to a pool where it takes one.
type fillVariant struct {
	name string
	fill func(tbl *Table, ctx context.Context) error
}

// fillVariants lists every fill entry point: the production fill on the
// caller (bare and through FillAutoCtx) and on pool, the paper's Algorithm 2
// (recursive), and its Algorithm 3 (parallel-scan) on pool.
func fillVariants(pool *par.Pool) []fillVariant {
	return []fillVariant{
		{"sequential", func(tbl *Table, ctx context.Context) error { return tbl.FillSequentialCtx(ctx) }},
		{"production-caller", func(tbl *Table, ctx context.Context) error { return tbl.FillAutoCtx(ctx, nil) }},
		{"production-pool", func(tbl *Table, ctx context.Context) error { return tbl.FillAutoCtx(ctx, pool) }},
		{"recursive", func(tbl *Table, ctx context.Context) error { return tbl.FillRecursiveCtx(ctx) }},
		{"parallel-scan", func(tbl *Table, ctx context.Context) error { return tbl.FillParallelCtx(ctx, pool) }},
	}
}

func TestFillVariantsCancelAndRecover(t *testing.T) {
	ref := bigTable(t)
	fillSeq(t, ref)
	want, err := ref.OptValue()
	if err != nil {
		t.Fatal(err)
	}

	pool := par.NewPool(3)
	defer pool.Close()

	for _, v := range fillVariants(pool) {
		t.Run(v.name, func(t *testing.T) {
			tbl := bigTable(t)

			err := v.fill(tbl, canceledCtx())
			if err == nil {
				t.Fatal("want error from canceled fill")
			}
			if !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("error %v does not match cancel.ErrCanceled", err)
			}
			if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
				t.Fatalf("canceled fill left the table usable: OptValue error = %v", err)
			}

			// The same table must recover: an uncanceled fill overwrites the
			// aborted attempt's partial garbage completely.
			if err := v.fill(tbl, context.Background()); err != nil {
				t.Fatalf("recovery fill: %v", err)
			}
			got, err := tbl.OptValue()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("recovered OPT = %d, want %d", got, want)
			}
			for i, o := range tbl.Opt {
				if o != ref.Opt[i] {
					t.Fatalf("recovered Opt[%d] = %d, want %d", i, o, ref.Opt[i])
				}
			}
		})
	}
}

// TestCanceledRefillLeavesTableUnfilled pins the fills' error contract on a
// table that was already filled: a refill that returns an error leaves the
// table unfilled, so neither the earlier fill's values nor the aborted
// fill's partial ones can be read.
func TestCanceledRefillLeavesTableUnfilled(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, v := range fillVariants(pool) {
		t.Run(v.name, func(t *testing.T) {
			tbl := bigTable(t)
			if err := v.fill(tbl, context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := v.fill(tbl, canceledCtx()); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("canceled refill returned %v, want the cancel error", err)
			}
			if opt, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
				t.Errorf("OptValue after a canceled refill = %d, %v; want ErrNotFilled", opt, err)
			}
			if _, err := tbl.Reconstruct(); !errors.Is(err, ErrNotFilled) {
				t.Errorf("Reconstruct after a canceled refill: %v; want ErrNotFilled", err)
			}
		})
	}
}

func TestFillCancelReportsPartialProgress(t *testing.T) {
	tbl := bigTable(t)
	err := tbl.FillSequentialCtx(canceledCtx())
	var cerr *cancel.Error
	if !errors.As(err, &cerr) {
		t.Fatalf("error %v does not carry *cancel.Error", err)
	}
	if cerr.EntriesFilled < 0 || cerr.EntriesFilled >= tbl.Sigma {
		t.Fatalf("EntriesFilled = %d outside [0, %d)", cerr.EntriesFilled, tbl.Sigma)
	}
}

// TestFillSequentialCancelSplitsLongRuns pins the config-outer kernel's poll
// stride on runs longer than it: in a one-class table every configuration's
// pass is a single run spanning almost the whole table, so the kernel must
// split the run to poll within fillCheckEvery relaxations of a dead context.
func TestFillSequentialCancelSplitsLongRuns(t *testing.T) {
	tbl, err := New([]pcmax.Time{1}, []int{3 * fillCheckEvery}, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.FillSequentialCtx(canceledCtx())
	var cerr *cancel.Error
	if !errors.As(err, &cerr) || !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want a *cancel.Error matching ErrCanceled, got %v", err)
	}
	if cerr.EntriesFilled > fillCheckEvery {
		t.Fatalf("EntriesFilled = %d: the abort overran the %d-relaxation poll stride", cerr.EntriesFilled, fillCheckEvery)
	}
	if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("canceled fill left the table usable: OptValue error = %v", err)
	}
}

func TestNilAndBackgroundContextFillsComplete(t *testing.T) {
	// A nil ctx never cancels, like Background: both must fill to
	// completion, with identical tables.
	a := bigTable(t)
	if err := a.FillSequentialCtx(nil); err != nil {
		t.Fatalf("nil-ctx fill: %v", err)
	}
	if _, err := a.OptValue(); err != nil {
		t.Fatalf("nil-ctx fill left table unfilled: %v", err)
	}
	b := bigTable(t)
	if err := b.FillSequentialCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range a.Opt {
		if a.Opt[i] != b.Opt[i] {
			t.Fatalf("nil-ctx and Background fills differ at %d", i)
		}
	}
}

// pollStride is the fills' cancellation contract: once the context is
// canceled, each worker of a fill does at most this many more units of work
// before the fill stops. A unit is a relaxation of the production fill, a
// recursion visit of Algorithm 2 and a scan iteration of Algorithm 3.
const pollStride = 1 << 16

// dyingCtx is a context whose Done channel is closed by its at-th Done call.
type dyingCtx struct {
	context.Context
	at    int32
	calls atomic.Int32
	done  chan struct{}
}

func newDyingCtx(at int32) *dyingCtx {
	return &dyingCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *dyingCtx) Done() <-chan struct{} {
	if c.calls.Add(1) == c.at {
		close(c.done)
	}
	return c.done
}

func (c *dyingCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// strideTable returns a table every fill of which takes more than 2^17 units
// of work: about 2^19 entries, 1,577,624 relaxations of the production fill
// (its pinned boxes; more than the 2^20 of a fillCheckEvery that large, so
// such a stride fails on the bound), and Algorithm 2's first descent alone
// computes the 2^15+101 entries along class 0. Its two-phase slab plan makes
// classes 1 and 3 the most significant (strides 262,952 and 65,738), so
// Algorithm 3's level 1 has entries just past them: a scan that reaches
// those has run more than pollStride iterations on a worker of one, and the
// one at 262,952 on a worker of two.
func strideTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New([]pcmax.Time{1, 2, 3, 4}, []int{1<<15 + 100, 1, 1, 3}, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.SlabPhases() == 0 {
		t.Fatalf("stride table has no slab-phase plan: the pool fill would run on the caller")
	}
	return tbl
}

// sparseStrideTable returns a sparse table that keeps every pair, with the
// default sparse options of k = 10, whose closed-form pass alone writes
// more than pollStride entries (about 2^19) and whose configurations of
// three or more jobs have a slab-phase plan.
func sparseStrideTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewSparse([]pcmax.Time{1, 2, 3, 4}, []int{1<<15 + 100, 1, 1, 3}, 5, 0, 0, nil, conf.DefaultSparseOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.set.pairs == nil || tbl.Sigma <= pollStride || tbl.SlabPhases() == 0 {
		t.Fatalf("sparse stride table: closed form %v, sigma %d, %d slab phases; want the closed form, sigma above %d and a plan",
			tbl.set.pairs != nil, tbl.Sigma, tbl.SlabPhases(), pollStride)
	}
	return tbl
}

// TestFillPollStride pins every fill's cancellation poll stride against
// pollStride: the context dies at the Done call after which the fill's work
// starts, so all the work the canceled fill reports in the cancel error was
// done after the cancel: entries the closed-form pass wrote plus
// relaxations for the production fill, and entries computed for the paper's
// fills, each entry at least one recursion visit of Algorithm 2 and one scan
// iteration of Algorithm 3. On the sparse table the closed form's pass
// alone is longer than the stride. Algorithm 3's arms measure its level
// scans (scanAfterLevels; TestFillLevelsPolls measures the digit-sum pass
// before them). It computes few entries per scan iteration, so its stride
// is also read from the table: it scans each level round-robin from index
// 0, so a worker that computed entry i ran at least i/P+1 scan iterations
// after the cancel. The production fill on a
// pool also polls when a worker claims a chunk, so it may stop before its
// first relaxation.
func TestFillPollStride(t *testing.T) {
	pool1 := par.NewPool(1)
	defer pool1.Close()
	pool2 := par.NewPool(2)
	defer pool2.Close()
	for _, tc := range []struct {
		name string
		// at is the fill's Done call after which its work starts.
		at      int32
		workers int64
		fill    func(tbl *Table, ctx context.Context) error
		// scan marks Algorithm 3, whose scan iterations are also read from
		// the table; mayIdle marks a fill that may stop before any work;
		// sparse fills sparseStrideTable.
		scan, mayIdle, sparse bool
	}{
		{"production-caller", 2, 1, func(tbl *Table, ctx context.Context) error { return tbl.FillAutoCtx(ctx, nil) }, false, false, false},
		{"production-pool-2", 2, 2, func(tbl *Table, ctx context.Context) error { return tbl.FillAutoCtx(ctx, pool2) }, false, true, false},
		{"production-sparse-caller", 2, 1, func(tbl *Table, ctx context.Context) error { return tbl.FillAutoCtx(ctx, nil) }, false, false, true},
		{"production-sparse-pool-2", 2, 2, func(tbl *Table, ctx context.Context) error { return tbl.FillAutoCtx(ctx, pool2) }, false, false, true},
		{"recursive", 1, 1, func(tbl *Table, ctx context.Context) error { return tbl.FillRecursiveCtx(ctx) }, false, false, false},
		{"parallel-scan-1", 1, 1, func(tbl *Table, ctx context.Context) error { return scanAfterLevels(tbl, ctx, pool1) }, true, false, false},
		{"parallel-scan-2", 1, 2, func(tbl *Table, ctx context.Context) error { return scanAfterLevels(tbl, ctx, pool2) }, true, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := tc.workers
			tbl := strideTable(t)
			if tc.sparse {
				tbl = sparseStrideTable(t)
			}
			err := tc.fill(tbl, newDyingCtx(tc.at))
			var cerr *cancel.Error
			if !errors.As(err, &cerr) || !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("want the cancel error, got %v: all of the fill ran after its context died, over the %d-unit stride", err, pollStride)
			}
			done := cerr.EntriesFilled
			if done > workers*pollStride {
				t.Errorf("%d units of work after the cancel on %d workers, over the %d-unit stride per worker", done, workers, pollStride)
			}
			if done == 0 && !tc.mayIdle {
				t.Errorf("no work after the cancel: the context died before the fill started, so the test measured nothing")
			}
			if !tc.scan {
				return
			}
			for i, o := range tbl.Opt {
				if n := int64(i)/workers + 1; o != 0 && n > pollStride {
					t.Fatalf("worker %d computed entry %d, so it scanned at least %d entries after the cancel, over the %d-iteration stride", int64(i)%workers, i, n, pollStride)
				}
			}
		})
	}
}

// scanAfterLevels fills the table with Algorithm 3 as FillParallelCtx does,
// but writes the digit sums before it reads ctx, so that ctx's first Done
// call is the level scans' and a context that dies there stops the scans.
func scanAfterLevels(tbl *Table, ctx context.Context, pool *par.Pool) error {
	f := &slabFill{t: tbl, workers: newSlabWorkers(len(tbl.Stride), pool.Workers())}
	levels := make([]int32, tbl.Sigma)
	f.fillLevels(pool, levels)
	f.done = ctxDone(ctx)
	if !f.scanLevels(pool, levels) {
		return f.canceled(ctx)
	}
	return nil
}

// TestFillLevelsPolls pins the poll stride of Algorithm 3's digit-sum pass:
// with the fill's context dead before the pass starts, each worker writes
// at most pollStride of strideTable's 525,904 digit sums, and the pass
// reports that it stopped.
func TestFillLevelsPolls(t *testing.T) {
	dead, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			pool := par.NewPool(workers)
			defer pool.Close()
			tbl := strideTable(t)
			f := &slabFill{t: tbl, done: ctxDone(dead), workers: newSlabWorkers(len(tbl.Stride), workers)}
			levels := make([]int32, tbl.Sigma)
			for i := range levels {
				levels[i] = -1
			}
			if f.fillLevels(pool, levels) {
				t.Error("the pass reported every digit sum written under a dead context")
			}
			written := 0
			for _, l := range levels {
				if l >= 0 {
					written++
				}
			}
			if written > workers*pollStride {
				t.Errorf("%d of %d digit sums written after the cancel on %d workers, over the %d-entry stride per worker",
					written, len(levels), workers, pollStride)
			}
		})
	}
}
