package dp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
	"repro/internal/par"
)

// TestFillAutoStatsRouting checks that AutoStats reports the routing
// truthfully: with or without a barrier pool, a completed fill counts every
// level inline and matches the sequential fill.
func TestFillAutoStatsRouting(t *testing.T) {
	ref := bigTable(t)
	fillSeq(t, ref)

	bp := par.NewBarrierPool(4)
	defer bp.Close()

	for _, tc := range []struct {
		name string
		bp   *par.BarrierPool
	}{
		{"barrier-pool", bp},
		{"nil-pool", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := bigTable(t)
			if err := tbl.FillAutoCtx(context.Background(), tc.bp); err != nil {
				t.Fatal(err)
			}
			s := tbl.AutoStats
			if s.LevelsInline != tbl.NPrime || s.LevelsFused != 0 || s.LevelsParallel != 0 {
				t.Fatalf("fill routed %+v, want all %d levels inline", s, tbl.NPrime)
			}
			optEqual(t, "FillAutoCtx", tbl.Opt, ref.Opt)
		})
	}
}

// TestFillAutoCancelAndRecover mirrors the other fills' cancellation
// contract: a canceled context leaves the table unfilled with the structured
// error, and a later fill on the same table succeeds bit-identically.
func TestFillAutoCancelAndRecover(t *testing.T) {
	ref := bigTable(t)
	fillSeq(t, ref)

	bp := par.NewBarrierPool(4)
	defer bp.Close()

	tbl := bigTable(t)
	if err := tbl.FillAutoCtx(canceledCtx(), bp); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("canceled fill left table readable: %v", err)
	}
	if err := tbl.FillAutoCtx(context.Background(), bp); err != nil {
		t.Fatalf("recovery fill: %v", err)
	}
	optEqual(t, "recovered FillAuto", tbl.Opt, ref.Opt)
}

// TestFillAutoMidFillCancel cancels after the fill has started (the entry
// check sees a live context, the kernel's first poll a dead one) and checks
// that the abort lands within one poll stride and leaves the table unfilled.
func TestFillAutoMidFillCancel(t *testing.T) {
	tbl := bigTable(t)
	err := tbl.FillAutoCtx(newTrippingCtx(), nil)
	var cerr *cancel.Error
	if !errors.As(err, &cerr) || !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want a *cancel.Error matching ErrCanceled, got %v", err)
	}
	if cerr.EntriesFilled <= 0 || cerr.EntriesFilled > fillCheckEvery {
		t.Fatalf("EntriesFilled = %d, want the first poll stride (0, %d]", cerr.EntriesFilled, fillCheckEvery)
	}
	if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("canceled fill left table readable: %v", err)
	}
}

// trippingCtx is live for its first Done poll and canceled from the second
// onward: FillAutoCtx's entry check passes, and the fill kernel dies at its
// own first poll — a deterministic mid-fill cancellation.
type trippingCtx struct {
	context.Context
	polls atomic.Int32
	done  chan struct{}
}

func newTrippingCtx() *trippingCtx {
	done := make(chan struct{})
	close(done)
	return &trippingCtx{Context: context.Background(), done: done}
}

func (c *trippingCtx) Done() <-chan struct{} {
	if c.polls.Add(1) >= 2 {
		return c.done
	}
	return nil
}

func (c *trippingCtx) Err() error {
	if c.polls.Load() >= 2 {
		return context.Canceled
	}
	return nil
}

// TestFillAutoCanceledCutoverReportsNoInlineLevels pins the stats contract:
// a fill that dies inside the kernel must not claim its levels completed
// inline, with or without a pool.
func TestFillAutoCanceledCutoverReportsNoInlineLevels(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool bool
	}{
		{"nil-pool", false},
		{"barrier-pool", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bp *par.BarrierPool
			if tc.pool {
				bp = par.NewBarrierPool(4)
				defer bp.Close()
			}
			tbl := bigTable(t)
			if err := tbl.FillAutoCtx(newTrippingCtx(), bp); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if s := tbl.AutoStats; s != (AutoStats{}) {
				t.Fatalf("canceled fill reported stats %+v, want zero", s)
			}
		})
	}
}
