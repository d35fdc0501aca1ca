package dp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/par"
	"repro/pcmax"
)

// TestFillAutoStatsRouting checks that AutoStats reports the routing
// truthfully: a planned table runs its phases on a pool of at least two
// workers and counts every level parallel; without such a pool, or without
// a plan, every level is inline. Every fill matches the sequential fill and
// relaxes the configurations' pinned boxes, whatever the routing.
func TestFillAutoStatsRouting(t *testing.T) {
	ref := bigTable(t)
	fillSeq(t, ref)
	if ref.SlabPhases() == 0 {
		t.Fatalf("bigTable has no slab-phase plan (sigma %d, %d configs)", ref.Sigma, len(ref.Configs))
	}

	// The benchmark's replay reaches FillAutoCtx through the BarrierPool
	// alias.
	bp := par.NewBarrierPool(4)
	defer bp.Close()
	pool1 := par.NewPool(1)
	defer pool1.Close()

	for _, tc := range []struct {
		name     string
		pool     *par.Pool
		parallel bool
	}{
		{"barrier-pool", bp, true},
		{"pool-1", pool1, false},
		{"nil-pool", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := bigTable(t)
			if err := tbl.FillAutoCtx(context.Background(), tc.pool); err != nil {
				t.Fatal(err)
			}
			pinned, _ := boxSums(tbl)
			want := AutoStats{LevelsInline: tbl.NPrime, Relaxations: pinned}
			if tc.parallel {
				want = AutoStats{LevelsParallel: tbl.NPrime, Relaxations: pinned}
			}
			if s := tbl.AutoStats; s != want {
				t.Fatalf("fill routed %+v, want %+v", s, want)
			}
			optEqual(t, "FillAutoCtx", tbl.Opt, ref.Opt)
		})
	}

	// A table below planMinWork has no plan and stays on the caller.
	small, err := New([]pcmax.Time{2, 3}, []int{4, 5}, 9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := small.SlabPhases(); n != 0 {
		t.Fatalf("unplanned table reports %d slab phases", n)
	}
	if err := small.FillAutoCtx(context.Background(), bp); err != nil {
		t.Fatal(err)
	}
	if pinned, _ := boxSums(small); small.AutoStats != (AutoStats{LevelsInline: small.NPrime, Relaxations: pinned}) {
		t.Fatalf("unplanned table routed %+v, want all %d levels inline", small.AutoStats, small.NPrime)
	}
}

// TestFillAutoCancelAndRecover mirrors the other fills' cancellation
// contract: a canceled context leaves the table unfilled with the structured
// error, and a later fill on the same table succeeds bit-identically.
func TestFillAutoCancelAndRecover(t *testing.T) {
	ref := bigTable(t)
	fillSeq(t, ref)

	pool := par.NewPool(4)
	defer pool.Close()

	tbl := bigTable(t)
	if err := tbl.FillAutoCtx(canceledCtx(), pool); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
		t.Fatalf("canceled fill left table readable: %v", err)
	}
	if err := tbl.FillAutoCtx(context.Background(), pool); err != nil {
		t.Fatalf("recovery fill: %v", err)
	}
	optEqual(t, "recovered FillAuto", tbl.Opt, ref.Opt)
}

// TestFillAutoMidFillCancel cancels after the fill has started (the entry
// check sees a live context, the kernel's first poll a dead one) and checks
// that the abort lands within one poll stride per worker and leaves the
// table unfilled, on the caller and on a pool.
func TestFillAutoMidFillCancel(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, tc := range []struct {
		name    string
		pool    *par.Pool
		minDone int64
	}{
		{"nil-pool", nil, 1},
		// A pool worker also polls when it claims a chunk, so it may stop
		// before its first relaxation.
		{"pool-2", pool, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := bigTable(t)
			err := tbl.FillAutoCtx(newDyingCtx(2), tc.pool)
			var cerr *cancel.Error
			if !errors.As(err, &cerr) || !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("want a *cancel.Error matching ErrCanceled, got %v", err)
			}
			workers := int64(1)
			if tc.pool != nil {
				workers = int64(tc.pool.Workers())
			}
			if cerr.EntriesFilled < tc.minDone || cerr.EntriesFilled > workers*fillCheckEvery {
				t.Fatalf("EntriesFilled = %d, want the first poll stride of each worker [%d, %d]", cerr.EntriesFilled, tc.minDone, workers*fillCheckEvery)
			}
			if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
				t.Fatalf("canceled fill left table readable: %v", err)
			}
		})
	}
}

// TestFillAutoCancelDuringSlabPhases cancels a real context while a 2-worker
// pool runs the slab phases of a planned table, at delays spread over one
// uncanceled fill. The first worker to see the context done stops the fill
// while the other polls, so under -race this pins the stop flag's
// synchronization. Each fill either completes bit-identically or leaves the
// table unfilled with the structured cancel error.
func TestFillAutoCancelDuringSlabPhases(t *testing.T) {
	ref := bigTable(t)
	fillSeq(t, ref)
	pool := par.NewPool(2)
	defer pool.Close()
	live, stop := context.WithCancel(context.Background())
	start := time.Now()
	err := bigTable(t).FillAutoCtx(live, pool)
	span := time.Since(start)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	const cuts = 16
	canceled := 0
	for i := range cuts {
		tbl := bigTable(t)
		ctx, cancelFn := context.WithCancel(context.Background())
		timer := time.AfterFunc(span*time.Duration(i)/cuts, cancelFn)
		err := tbl.FillAutoCtx(ctx, pool)
		timer.Stop()
		cancelFn()
		switch {
		case err == nil:
			optEqual(t, "uncanceled FillAutoCtx", tbl.Opt, ref.Opt)
		case errors.Is(err, cancel.ErrCanceled):
			canceled++
			if _, err := tbl.OptValue(); !errors.Is(err, ErrNotFilled) {
				t.Fatalf("cut %d: canceled fill left table readable: %v", i, err)
			}
		default:
			t.Fatalf("cut %d: %v", i, err)
		}
	}
	if canceled == 0 {
		t.Fatalf("no cut over the %v fill canceled it", span)
	}
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
			var pool *par.Pool
			if tc.pool {
				pool = par.NewBarrierPool(4)
				defer pool.Close()
			}
			tbl := bigTable(t)
			if err := tbl.FillAutoCtx(newDyingCtx(2), pool); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if s := tbl.AutoStats; s != (AutoStats{}) {
				t.Fatalf("canceled fill reported stats %+v, want zero", s)
			}
		})
	}
}
