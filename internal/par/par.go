// Package par is the shared-memory parallel substrate used by the parallel
// PTAS. It provides a "parallel for" over an index range with the scheduling
// strategies of an OpenMP runtime:
//
//   - RoundRobin: iteration i goes to worker i mod P. This is the paper's
//     "each of the P processors will be assigned one iteration of the for
//     loop in a round-robin fashion" (OpenMP schedule(static,1)).
//   - Dynamic: workers repeatedly claim fixed-size chunks from an atomic
//     counter (OpenMP schedule(dynamic,grain)).
//
// A Pool keeps P goroutines alive across many parallel-for rounds so that a
// level-synchronous computation (one round per DP anti-diagonal, thousands of
// rounds) does not pay goroutine start-up per round. The Pool is the
// module's only goroutine spawner: every other package runs its parallel
// work as Pool rounds.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Strategy selects how iterations are divided among workers.
type Strategy int

// Available scheduling strategies.
const (
	RoundRobin Strategy = iota
	Dynamic
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Normalize clamps a requested worker count: values below 1 become
// GOMAXPROCS, everything else is returned unchanged. The paper's P is a free
// parameter, so worker counts above the hardware parallelism are allowed
// (they emulate oversubscription) but not chosen by default.
func Normalize(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// round describes one parallel-for executed by a Pool. parts is the number
// of workers the round was dispatched to — min(n, pool size), so a round
// with fewer iterations than workers never wakes the idle tail.
type round struct {
	n        int
	strategy Strategy
	grain    int
	parts    int
	body     func(worker, i int)
}

// Pool is a set of persistent worker goroutines. The zero value is unusable;
// construct with NewPool and release with Close.
//
// Concurrency contract: at most one ForWorker call may be in flight at a
// time — rounds are strictly sequential (the PTAS driver's levels are
// barrier-separated). Close is safe to call concurrently with an in-flight
// round and with other Close calls: it is idempotent, and the mutex around
// round dispatch guarantees a round either fully dispatches before the feeds
// close or observes the closed pool and panics with a descriptive message —
// never a send on a closed channel.
type Pool struct {
	workers int
	feeds   []chan round
	// running counts the worker goroutines still running; Close waits for
	// it to drain.
	running sync.WaitGroup

	// mu serializes round dispatch against Close (and Close against
	// itself); closed is only read/written under mu. It is the Pool's one
	// lock, and no other lock is taken while it is held.
	mu     sync.Mutex
	closed bool

	// panicked holds the current round's first body panic, boxed: the
	// first panicking worker stores it, and the caller swaps it out once
	// the barrier completes.
	panicked atomic.Pointer[any]

	// The per-round barrier and Dynamic cursor. Rounds are sequential by
	// contract, so one of each serves every round: the dispatch resets them
	// and the caller's Wait orders the reset after the previous round's last
	// use, which keeps a round free of allocation.
	done sync.WaitGroup
	next atomic.Int64
}

// NewPool starts workers goroutines (GOMAXPROCS if workers < 1).
func NewPool(workers int) *Pool {
	workers = Normalize(workers)
	p := &Pool{workers: workers, feeds: make([]chan round, workers)}
	p.running.Add(workers)
	for w := 0; w < workers; w++ {
		p.feeds[w] = make(chan round)
		go p.worker(w)
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close terminates the worker goroutines and returns once they have exited.
// Close is idempotent and safe to call concurrently with itself and with an
// in-flight ForWorker round: a round that already dispatched drains
// normally (its workers exit after finishing it), a round that has not yet
// dispatched panics with "For on closed Pool". It must not be called from
// inside a round's body, whose worker would then wait for itself.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, ch := range p.feeds {
			close(ch)
		}
	}
	p.mu.Unlock()
	p.running.Wait()
}

func (p *Pool) worker(w int) {
	defer p.running.Done()
	for r := range p.feeds[w] {
		p.run(w, r)
	}
}

// run executes worker w's share of round r, converting a body panic into a
// recorded failure so the barrier still completes.
func (p *Pool) run(w int, r round) {
	defer func() {
		if e := recover(); e != nil {
			p.recordPanic(e)
		}
		p.done.Done()
	}()
	switch r.strategy {
	case RoundRobin:
		for i := w; i < r.n; i += r.parts {
			r.body(w, i)
		}
	case Dynamic:
		for {
			start := int(p.next.Add(int64(r.grain))) - r.grain
			if start >= r.n {
				return
			}
			end := start + r.grain
			if end > r.n {
				end = r.n
			}
			for i := start; i < end; i++ {
				r.body(w, i)
			}
		}
	}
}

// recordPanic keeps e unless the round already recorded a panic. Boxing e
// here rather than in run's deferred closure keeps the allocation on the
// panicking path, so a round without a panic allocates nothing.
func (p *Pool) recordPanic(e any) {
	p.panicked.CompareAndSwap(nil, &e)
}

// ForWorker runs body(w, i) for every i in [0, n) across the pool's workers,
// w being the executing worker's id (for per-worker scratch space), and
// waits for completion. grain is the Dynamic chunk size (grain <= 0 selects
// max(1, n/(8*workers)); RoundRobin ignores it). A round with n < workers
// dispatches to only the first n workers (the idle tail is never woken),
// and n == 1 runs inline on the caller. It panics when called on a closed
// Pool. If any body call panics, ForWorker re-panics in the caller after all
// workers finished, so the pool stays usable.
func (p *Pool) ForWorker(n int, strategy Strategy, grain int, body func(worker, i int)) {
	if n <= 1 {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			panic("par: For on closed Pool")
		}
		if n == 1 {
			body(0, 0)
		}
		return
	}
	parts := p.workers
	if n < parts {
		parts = n
	}
	if grain <= 0 {
		grain = n / (8 * parts)
		if grain < 1 {
			grain = 1
		}
	}
	r := round{n: n, strategy: strategy, grain: grain, parts: parts, body: body}
	// Dispatch under the mutex: a concurrent Close either waits for all
	// sends to land (workers already hold the round, so closing the feeds
	// afterwards cannot lose it) or wins the lock first, in which case the
	// closed check panics instead of sending on a closed channel.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("par: For on closed Pool")
	}
	p.next.Store(0)
	p.done.Add(parts)
	for _, ch := range p.feeds[:parts] {
		ch <- r
	}
	p.mu.Unlock()
	p.done.Wait()
	if e := p.panicked.Swap(nil); e != nil {
		panic(*e)
	}
}

// BarrierPool is a deprecated alias of Pool, kept for callers that still
// spell the old name.
//
// Deprecated: use Pool.
type BarrierPool = Pool

// NewBarrierPool is a deprecated alias of NewPool.
//
// Deprecated: use NewPool.
func NewBarrierPool(workers int) *BarrierPool { return NewPool(workers) }
