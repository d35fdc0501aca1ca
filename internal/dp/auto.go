package dp

// The production fill (see ALGORITHM.md section 10). The paper's
// level-synchronous Parallel DP pays one dispatch round per anti-diagonal,
// and even routed level by level onto a persistent barrier pool (inline,
// fused and wide arms, since deleted) its 2-worker fill was no faster than
// one worker on a 2-core host. The config-outer run-length sweep
// (FillSequentialCtx) beat it on every probe table measured, so FillAutoCtx
// runs that one kernel on every table, on the calling goroutine.

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/par"
)

// AutoStats reports how FillAutoCtx ran the anti-diagonal levels of one
// fill. The three counters sum to NPrime (all levels except the trivial
// level 0) on a completed fill.
type AutoStats struct {
	// LevelsInline counts levels filled on the calling goroutine: every
	// level of a completed FillAutoCtx fill, since it runs the one-thread
	// config-outer kernel.
	LevelsInline int
	// LevelsFused and LevelsParallel counted levels the deleted barrier-pool
	// routing dispatched. FillAutoCtx never dispatches, so both stay zero;
	// they remain because callers outside this module still read them.
	LevelsFused    int
	LevelsParallel int
}

// FillAutoCtx computes the table with the production fill: the config-outer
// run-length sweep of FillSequentialCtx on the calling goroutine, for every
// table size. bp is not used and may be nil; the parameter remains because
// callers outside this module still pass a pool. t.AutoStats records every level
// inline once the fill completes. Cancellation follows FillSequentialCtx: a
// dead ctx aborts before the fill starts or within fillCheckEvery
// relaxations of it, leaving the table unfilled and AutoStats zero, and
// returns the structured cancel error. The resulting table is bit-identical
// to every other fill variant.
func (t *Table) FillAutoCtx(ctx context.Context, bp *par.BarrierPool) error {
	t.AutoStats = AutoStats{}
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	if err := t.FillSequentialCtx(ctx); err != nil {
		return err
	}
	t.AutoStats.LevelsInline = t.NPrime
	return nil
}
