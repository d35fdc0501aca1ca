package dp

// Deterministic cancellation coverage for every fill variant: an
// already-canceled context must abort the fill (the table stays unfilled,
// the structured error matches cancel.ErrCanceled), and the same table must
// recover completely on the next uncanceled fill — partial garbage from the
// aborted attempt must not leak into the final values.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cancel"
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
