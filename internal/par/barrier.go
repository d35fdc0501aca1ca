package par

// The barrier pool is a low-overhead dispatch substrate for level-synchronous
// computations such as the paper's DP fill: they run thousands of tiny
// parallel-for rounds, and the per-round cost of Pool — a WaitGroup Add/Wait
// pair, a mutex-serialized channel send per worker and a scheduler wakeup
// per worker — dominates the actual work on paper-scale tables (see
// BenchmarkDispatchOverhead). BarrierPool removes that round-trip:
//
//   - Workers stay resident and synchronize on a sense-reversing barrier: the
//     round word (an atomic holding participant-count and sequence) is the
//     "sense"; publishing a new value releases the workers, and a single
//     cumulative arrival counter forms the join. No WaitGroup, no per-round
//     channel traffic on the fast path.
//   - The caller participates as worker 0, so a P-way round needs only P-1
//     resident goroutines and the caller never blocks while work remains.
//   - Iterations are pre-partitioned into static contiguous ranges; each
//     participant drains its own range in chunks claimed from a per-worker
//     cache-line-padded atomic cursor, then steals chunks from the other
//     cursors, so tail imbalance cannot serialize a round.
//   - ForBatch runs several segments (DP levels) in one dispatch, separated
//     by internal spin barriers — consecutive small levels fuse into a
//     single wakeup instead of paying one dispatch each.
//
// Workers spin briefly (yielding to the scheduler) before parking on a
// per-worker channel, so back-to-back rounds never sleep while sparse use
// does not burn CPU. The concurrency contract matches Pool: at most one
// round in flight at a time, Close idempotent and safe concurrently with an
// in-flight round (the round drains, a not-yet-dispatched round panics).

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cancel"
)

// barrierSpin is how many scheduler-yielding spin iterations a worker (or
// the completing caller) performs before parking on its wake channel. Small
// enough that a single-core host hands the CPU over almost immediately,
// large enough that back-to-back DP levels on a multicore host never park.
const barrierSpin = 192

// Round-word layout: the participant count lives in the top bits, the
// round sequence in the low barrierSeqBits. Any change of the word announces
// a new round; non-participants decide from the word alone, so they never
// touch the (unsynchronized for them) round state fields.
const (
	barrierSeqBits = 48
	barrierSeqMask = (uint64(1) << barrierSeqBits) - 1
	// maxBarrierWorkers keeps the participant count inside the round word.
	maxBarrierWorkers = 1 << 12
)

// cursorPad keeps each participant's chunk cursor on its own cache line:
// the cursors are the hottest contended words of a round, and false sharing
// between neighbouring workers would serialize the claims.
type cursorPad struct {
	v atomic.Int64
	_ [56]byte
}

// BarrierPool is a set of persistent workers synchronizing on a
// sense-reversing barrier, optimized for many small parallel-for rounds.
// The zero value is unusable; construct with NewBarrierPool and release
// with Close.
//
// Concurrency contract (same as Pool): at most one For/ForWorker/ForBatch
// call may be in flight at a time — rounds are strictly sequential. Close is
// idempotent and safe to call concurrently with an in-flight round: the
// round drains normally, and a round dispatched after Close panics with a
// descriptive message instead of hanging or sending on a closed channel.
type BarrierPool struct {
	workers int

	// Round state: written by the dispatcher before it advances the round
	// word, read by that round's participants after they observe the new
	// word (the atomic round word carries the happens-before edge).
	// Non-participants read only the round word itself.
	rsegs      []int
	rbody      func(worker, seg, i int)
	arriveBase int64
	seg1       [1]int // scratch so single-segment rounds do not allocate

	round    atomic.Uint64 // parts<<barrierSeqBits | seq
	arrive   atomic.Int64  // cumulative arrivals, never reset
	poisoned atomic.Bool   // a body panicked: participants skip remaining work
	cursors  [2][]cursorPad

	// Caller-completion handoff: when the caller exhausts its spin budget it
	// stores its round's sequence in callerWaiting and blocks on done; the
	// participant whose arrival completes a round claims the flag with
	// CompareAndSwap(itsRoundSeq, 0) and sends the single completion token
	// only on success. Tagging the flag with the sequence (0 = not waiting;
	// dispatch never issues seq 0) closes the cross-round race where a worker
	// that finished round N is preempted between its final arrive.Add and the
	// claim: by the time it runs again the caller may be parked on round N+1,
	// and an untagged swap would hand that caller a premature token while
	// round N+1 is still executing. With the tag, the stale claim fails and
	// only round N+1's own last arriver can release the caller.
	callerWaiting atomic.Uint64
	done          chan struct{}

	// Parking: a worker sets parked[w], re-checks the round word, then
	// blocks on wake[w]. A dispatcher (or Close) claims the flag with an
	// atomic swap before sending the wake token; the worker's own re-check
	// uses the same swap, so a token is sent iff exactly one side consumes
	// it — no missed wakeups, no stale tokens.
	parked []atomic.Bool
	wake   []chan struct{}

	// mu serializes round dispatch against Close (one lock acquisition per
	// round; the fast path inside a round is lock-free). closed is only
	// accessed under mu; closedA mirrors it for lock-free reads by workers.
	mu      sync.Mutex
	closed  bool
	closedA atomic.Bool

	panicMu  sync.Mutex
	panicked any

	// ctxPads are the per-worker cancellation countdowns of the Ctx
	// variants, allocated once (rounds are sequential, so reuse is safe).
	ctxPads []pad

	// residents counts the resident goroutines still running; Close waits
	// for it to drain.
	residents sync.WaitGroup
}

// NewBarrierPool starts workers-1 resident goroutines (GOMAXPROCS if
// workers < 1); the caller of each round acts as worker 0. Worker counts
// above 4096 are clamped (the round-word encoding bounds them, and a
// barrier over more participants than that degrades anyway).
func NewBarrierPool(workers int) *BarrierPool {
	workers = Normalize(workers)
	if workers > maxBarrierWorkers {
		workers = maxBarrierWorkers
	}
	b := &BarrierPool{
		workers: workers,
		done:    make(chan struct{}, 1),
		parked:  make([]atomic.Bool, workers),
		wake:    make([]chan struct{}, workers),
		ctxPads: make([]pad, workers),
	}
	b.cursors[0] = make([]cursorPad, workers)
	b.cursors[1] = make([]cursorPad, workers)
	for w := 1; w < workers; w++ {
		b.wake[w] = make(chan struct{}, 1)
		b.residents.Add(1)
		go b.resident(w)
	}
	return b
}

// Workers reports the pool size (including the participating caller).
func (b *BarrierPool) Workers() int { return b.workers }

// Close releases the resident workers and returns once they have exited.
// It is idempotent and safe to call concurrently with itself and with an
// in-flight round: a dispatched round drains normally (workers check for
// new rounds before the closed flag), a round dispatched after Close panics
// with "For on closed BarrierPool". It must not be called from inside a
// round's body, whose resident would then wait for itself.
func (b *BarrierPool) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.closedA.Store(true)
		for w := 1; w < b.workers; w++ {
			if b.parked[w].Swap(false) {
				b.wake[w] <- struct{}{}
			}
		}
	}
	b.mu.Unlock()
	b.residents.Wait()
}

// staticLo returns the start of participant w's static range over [0, n).
func staticLo(w, parts, n int) int64 {
	return int64(w) * int64(n) / int64(parts)
}

// resident is the main loop of a resident worker: wait for the round word
// to change, participate if inside the round's participant set, hand the
// caller its completion token when last to arrive, exit on Close.
func (b *BarrierPool) resident(w int) {
	defer b.residents.Done()
	var last uint64
	for {
		r := b.round.Load()
		if r == last {
			if b.closedA.Load() {
				return
			}
			b.waitForWork(w, last)
			continue
		}
		last = r
		if parts := int(r >> barrierSeqBits); w < parts {
			cur, final := b.participate(w, parts)
			// Last arriver of THIS round: release the caller only if it is
			// parked on this same round (seq-tagged CAS; see callerWaiting).
			if cur == final && b.callerWaiting.CompareAndSwap(r&barrierSeqMask, 0) {
				b.done <- struct{}{}
			}
		}
	}
}

// waitForWork spins briefly for a new round (or Close), then parks on the
// worker's wake channel. The parked-flag swap protocol guarantees that a
// wake token is sent iff this worker consumes it.
func (b *BarrierPool) waitForWork(w int, last uint64) {
	for i := 0; i < barrierSpin; i++ {
		if b.round.Load() != last || b.closedA.Load() {
			return
		}
		runtime.Gosched()
	}
	b.parked[w].Store(true)
	if b.round.Load() != last || b.closedA.Load() {
		// A dispatcher or Close may have claimed the flag between the store
		// and this re-check; consume its in-flight token if so.
		if !b.parked[w].Swap(false) {
			<-b.wake[w]
		}
		return
	}
	<-b.wake[w]
}

// participate runs worker w's share of every segment of the current round,
// crossing an internal spin barrier between consecutive segments. It
// returns this worker's last arrival-counter value and the round's final
// target so the caller-handoff can detect "I was last".
func (b *BarrierPool) participate(w, parts int) (cur, final int64) {
	segs, body, base := b.rsegs, b.rbody, b.arriveBase
	final = base + int64(parts)*int64(len(segs))
	for s, n := range segs {
		if s+1 < len(segs) {
			// Initialize the own cursor for the next segment before arriving
			// at this segment's barrier: cursors are double-buffered by
			// segment parity, so the slot is idle and the barrier publishes
			// the store to every thief.
			b.cursors[(s+1)&1][w].v.Store(staticLo(w, parts, segs[s+1]))
		}
		b.runShare(w, s, n, parts, body)
		cur = b.arrive.Add(1)
		if s+1 < len(segs) {
			target := base + int64(parts)*int64(s+1)
			for b.arrive.Load() < target {
				runtime.Gosched()
			}
		}
	}
	return cur, final
}

// runShare drains worker w's static range of segment seg in chunks, then
// steals chunks from the other participants' ranges. A body panic is
// recorded (first wins), poisons the round so other participants stop
// claiming work, and re-panics in the dispatching caller.
func (b *BarrierPool) runShare(w, seg, n, parts int, body func(worker, seg, i int)) {
	defer func() {
		if e := recover(); e != nil {
			b.panicMu.Lock()
			if b.panicked == nil {
				b.panicked = e
			}
			b.panicMu.Unlock()
			b.poisoned.Store(true)
		}
	}()
	if b.poisoned.Load() {
		return
	}
	g := int64(n / (8 * parts))
	if g < 1 {
		g = 1
	}
	slot := b.cursors[seg&1]
	hi := staticLo(w+1, parts, n)
	c := &slot[w].v
	for {
		start := c.Add(g) - g
		if start >= hi {
			break
		}
		end := start + g
		if end > hi {
			end = hi
		}
		for i := start; i < end; i++ {
			body(w, seg, int(i))
		}
		if b.poisoned.Load() {
			return
		}
	}
	for off := 1; off < parts; off++ {
		v := w + off
		if v >= parts {
			v -= parts
		}
		vhi := staticLo(v+1, parts, n)
		vc := &slot[v].v
		for vc.Load() < vhi {
			start := vc.Add(g) - g
			if start >= vhi {
				break
			}
			end := start + g
			if end > vhi {
				end = vhi
			}
			for i := start; i < end; i++ {
				body(w, seg, int(i))
			}
			if b.poisoned.Load() {
				return
			}
		}
	}
}

// dispatch runs one round over segs. Rounds with at most one useful
// participant (every segment shorter than 2, or a 1-worker pool) run inline
// on the caller. It panics on a closed pool and re-panics the first body
// panic once the round completes.
func (b *BarrierPool) dispatch(segs []int, body func(worker, seg, i int)) {
	parts := b.workers
	maxSeg := 0
	for _, n := range segs {
		if n > maxSeg {
			maxSeg = n
		}
	}
	if parts > maxSeg {
		parts = maxSeg
	}
	if parts <= 1 {
		if b.closedA.Load() {
			panic("par: For on closed BarrierPool")
		}
		for s, n := range segs {
			for i := 0; i < n; i++ {
				body(0, s, i)
			}
		}
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		panic("par: For on closed BarrierPool")
	}
	b.rsegs, b.rbody = segs, body
	b.arriveBase = b.arrive.Load()
	b.poisoned.Store(false)
	for w := 0; w < parts; w++ {
		b.cursors[0][w].v.Store(staticLo(w, parts, segs[0]))
	}
	seq := (b.round.Load() + 1) & barrierSeqMask
	if seq == 0 {
		// Seq 0 is the callerWaiting "not waiting" sentinel; skip it on wrap.
		seq = 1
	}
	b.round.Store(uint64(parts)<<barrierSeqBits | seq)
	for w := 1; w < parts; w++ {
		if b.parked[w].Swap(false) {
			b.wake[w] <- struct{}{}
		}
	}
	b.mu.Unlock()
	cur, final := b.participate(0, parts)
	if cur != final {
		b.awaitFinal(final, seq)
	}
	b.panicMu.Lock()
	e := b.panicked
	b.panicked = nil
	b.panicMu.Unlock()
	if e != nil {
		panic(e)
	}
}

// awaitFinal blocks the caller until every participant arrived at the
// round's final barrier: a short yielding spin, then the seq-tagged handoff
// with the round's last arriver (see callerWaiting). seq is this round's
// sequence, never 0.
func (b *BarrierPool) awaitFinal(final int64, seq uint64) {
	for i := 0; i < barrierSpin; i++ {
		if b.arrive.Load() >= final {
			return
		}
		runtime.Gosched()
	}
	for {
		b.callerWaiting.Store(seq)
		if b.arrive.Load() >= final {
			// Completed between the spin and the flag store. If the last
			// arriver already claimed the flag, its token is in flight and
			// must be drained so the next round starts clean.
			if !b.callerWaiting.CompareAndSwap(seq, 0) {
				<-b.done
			}
			return
		}
		<-b.done
		// A token implies its sender claimed this round's seq after arriving
		// last, so the round is complete; re-validate anyway so a handoff bug
		// can never return the caller into a still-running round.
		if b.arrive.Load() >= final {
			return
		}
	}
}

// For runs body(i) for every i in [0, n) across the pool and waits.
// It panics when called on a closed BarrierPool, and re-panics a body panic
// in the caller once the round completes.
func (b *BarrierPool) For(n int, body func(i int)) {
	b.ForWorker(n, func(_, i int) { body(i) })
}

// ForWorker is For with the executing worker's id passed to the body (for
// per-worker scratch space). Rounds with n == 1 run inline on the caller and
// rounds with n < workers wake only the workers that have work. It panics
// when called on a closed BarrierPool, and re-panics a body panic in the
// caller once the round completes.
func (b *BarrierPool) ForWorker(n int, body func(worker, i int)) {
	if n <= 0 {
		if b.closedA.Load() {
			panic("par: For on closed BarrierPool")
		}
		return
	}
	b.seg1[0] = n
	b.dispatch(b.seg1[:], func(w, _, i int) { body(w, i) })
}

// ForBatch runs several segments in one dispatch round: every i in
// [0, segs[s]) of every segment s, in strict segment order — segment s+1
// starts only after every body call of segment s returned (an internal
// barrier separates them), which is what makes fusing dependent DP levels
// into one round correct. Worker assignment within a segment matches
// ForWorker. It panics when called on a closed BarrierPool, on a negative
// segment length, and re-panics a body panic once the round completes (the
// remaining iterations of a panicked round may be skipped).
func (b *BarrierPool) ForBatch(segs []int, body func(worker, seg, i int)) {
	for _, n := range segs {
		if n < 0 {
			panic("par: ForBatch with negative segment length")
		}
	}
	if len(segs) == 0 {
		if b.closedA.Load() {
			panic("par: For on closed BarrierPool")
		}
		return
	}
	b.dispatch(segs, body)
}

// ForCtx is For with cooperative cancellation: when ctx is canceled, the
// participants stop claiming iterations, the barrier still completes (no
// leaked goroutines, the pool stays usable) and the structured cancel error
// is returned. A nil or never-cancelable ctx behaves exactly like For.
func (b *BarrierPool) ForCtx(ctx context.Context, n int, body func(i int)) error {
	return b.ForWorkerCtx(ctx, n, func(_, i int) { body(i) })
}

// ForWorkerCtx is ForWorker with cooperative cancellation (see ForCtx): the
// context is polled every cancelCheckEvery iterations per worker through a
// shared stop flag, exactly like Pool.ForWorkerCtx.
func (b *BarrierPool) ForWorkerCtx(ctx context.Context, n int, body func(worker, i int)) error {
	if ctx == nil || ctx.Done() == nil {
		b.ForWorker(n, body)
		return nil
	}
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	var stop atomic.Bool
	b.ForWorker(n, b.wrapCtx(ctx, &stop, body))
	if stop.Load() {
		return cancel.From(ctx)
	}
	return cancel.Check(ctx)
}

// ForBatchCtx is ForBatch with cooperative cancellation: a cancellation
// observed in any segment stops the remaining work of the whole batch (the
// internal barriers still complete) and returns the structured cancel error.
func (b *BarrierPool) ForBatchCtx(ctx context.Context, segs []int, body func(worker, seg, i int)) error {
	if ctx == nil || ctx.Done() == nil {
		b.ForBatch(segs, body)
		return nil
	}
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	var stop atomic.Bool
	done := ctx.Done()
	counters := b.ctxPads
	b.ForBatch(segs, func(w, s, i int) {
		if stop.Load() {
			return
		}
		if counters[w].n++; counters[w].n%cancelCheckEvery == 0 {
			select {
			case <-done:
				stop.Store(true)
				return
			default:
			}
		}
		body(w, s, i)
	})
	if stop.Load() {
		return cancel.From(ctx)
	}
	return cancel.Check(ctx)
}

// wrapCtx decorates a worker body with the pool's amortized cancellation
// check: per-worker padded countdowns, a shared stop flag so one worker's
// observation stops all of them within one iteration each.
func (b *BarrierPool) wrapCtx(ctx context.Context, stop *atomic.Bool, body func(worker, i int)) func(worker, i int) {
	done := ctx.Done()
	counters := b.ctxPads
	return func(w, i int) {
		if stop.Load() {
			return
		}
		if counters[w].n++; counters[w].n%cancelCheckEvery == 0 {
			select {
			case <-done:
				stop.Store(true)
				return
			default:
			}
		}
		body(w, i)
	}
}
