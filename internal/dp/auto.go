package dp

// The production fill (see ALGORITHM.md sections 7 and 10). The paper's
// level-synchronous Parallel DP pays one dispatch round per anti-diagonal,
// and on a 2-core host its 2-worker fill was no faster than one worker. The
// config-outer run-length sweep crosses levels, so it cannot split a
// configuration's pass by level, but it has an independence of its own: a
// configuration that leaves class a empty never moves an entry between the
// slabs v_a = x. FillAutoCtx runs the sweep in phases of such
// configurations (the slab-phase plan of layout.go), one pool round per
// phase over the slabs of its class, and the configurations that use every
// phase class on the caller. Tables without a plan, and fills without a
// pool of at least two workers, run the same kernel on the calling
// goroutine.

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/par"
)

// AutoStats reports how FillAutoCtx ran the anti-diagonal levels of one
// fill and how much work it did. The level counters sum to NPrime (all
// levels except the trivial level 0) on a completed fill.
type AutoStats struct {
	// LevelsInline counts the levels of a fill that ran on the calling
	// goroutine alone: a table without a slab-phase plan, or no pool of at
	// least two workers.
	LevelsInline int
	// LevelsFused counted levels a deleted barrier-pool routing fused into
	// one dispatch. It stays zero; it remains because callers outside this
	// module still read it.
	LevelsFused int
	// LevelsParallel counts the levels of a fill whose phases ran on the
	// pool.
	LevelsParallel int
	// Relaxations counts the entry relaxations of a completed fill, summed
	// over its workers: the pinned box of every configuration it sweeps,
	// whatever the pool (ALGORITHM.md section 7). A sparse set that keeps
	// every configuration of at most two jobs sweeps only those of three or
	// more; the entries its closed-form pass writes are not relaxations.
	Relaxations int64
}

// slabChunksPerWorker bounds a phase round to this many chunks per worker.
// A phase's slabs hold equal work, so a few chunks per worker balance it,
// and fewer chunks repeat fewer per-row odometer set-ups.
const slabChunksPerWorker = 8

// FillAutoCtx computes the table with the production fill. With a pool of at
// least two workers and a table whose configuration set has a slab-phase
// plan (pinned boxes summing to at least planMinWork), each phase runs as one
// pool round: a worker claims a chunk of the phase class's slabs and relaxes
// every configuration of the phase over it, and the tail of configurations
// that use every phase class runs on the caller. Otherwise it runs
// FillSequentialCtx on the calling goroutine; a nil pool is allowed. The pool
// may be reused across calls. t.AutoStats records the levels as parallel or
// inline once the fill completes.
//
// Cancellation: a dead ctx aborts before the fill starts; a running fill's
// workers poll every fillCheckEvery relaxations and at every chunk, and the
// first to see ctx done stops the others through a shared flag. The round
// still joins, the table is left unfilled, AutoStats stays zero and the
// structured cancel error is returned. The resulting table is bit-identical
// to every other fill variant.
func (t *Table) FillAutoCtx(ctx context.Context, pool *par.Pool) error {
	t.filled = false
	t.AutoStats = AutoStats{}
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	if pool == nil || pool.Workers() < 2 || len(t.lay.ends) == 0 {
		n, err := t.fillCaller(ctx)
		if err != nil {
			return err
		}
		t.AutoStats = AutoStats{LevelsInline: t.NPrime, Relaxations: n}
		return nil
	}
	n, err := t.fillSlabs(ctx, pool)
	if err != nil {
		return err
	}
	t.AutoStats = AutoStats{LevelsParallel: t.NPrime, Relaxations: n}
	return nil
}

// SlabPhases reports how many pool rounds FillAutoCtx runs on a pool of at
// least two workers: the phases of the table's slab-phase plan. It is 0 when
// the table has no plan, and FillAutoCtx then fills it on the calling
// goroutine whatever the pool, so a caller can leave the pool unstarted.
func (t *Table) SlabPhases() int { return len(t.lay.ends) }

// fillSlabs runs the phases of the table's plan on the pool and the tail on
// the caller, and returns the relaxations its workers did.
func (t *Table) fillSlabs(ctx context.Context, pool *par.Pool) (int64, error) {
	workers := pool.Workers()
	f := &slabFill{t: t, done: ctxDone(ctx), workers: newSlabWorkers(t.set.d, workers)}
	if !f.start(&f.workers[0]) {
		return 0, f.canceled(ctx)
	}
	body := func(w, c int) { f.chunk(&f.workers[w], c) }
	row := 0
	for k, end := range t.lay.ends {
		f.r0, f.r1, f.pos = row, int(end), k
		f.slabs = int(t.lay.pcount[k]) + 1
		f.chunks = min(f.slabs, slabChunksPerWorker*workers)
		pool.ForWorker(f.chunks, par.Dynamic, 1, body)
		if f.stop.Load() {
			return 0, f.canceled(ctx)
		}
		row = int(end)
	}
	if !f.relaxRows(&f.workers[0], row, t.set.n, -1, 0, 0) {
		return 0, f.canceled(ctx)
	}
	t.filled = true
	return f.work(), nil
}

// odoGap is the gap, in odometer words, between two workers' odometers: a
// cache line.
const odoGap = 64 / 4

// newSlabWorkers returns the worker slots of a pooled fill over d classes.
// Their odometers (2·d words each, written at every row of runs) share one
// allocation with a cache line between any two, so two workers never write
// the same line, whatever address the allocation got.
func newSlabWorkers(d, workers int) []slabWorker {
	sw := make([]slabWorker, workers)
	span := 2*d + odoGap
	odo := make([]int32, span*workers)
	for w := range sw {
		sw[w].odo = odo[span*w : span*w+2*d]
	}
	return sw
}

// chunk relaxes the current phase over chunk c of its slabs on worker sw,
// after a cancellation poll: relaxRows restarts its poll budget.
func (f *slabFill) chunk(sw *slabWorker, c int) {
	if f.done != nil && f.stopped() {
		return
	}
	x0 := int64(c * f.slabs / f.chunks)
	x1 := int64((c + 1) * f.slabs / f.chunks)
	f.relaxRows(sw, f.r0, f.r1, f.pos, x0, x1)
}
