package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cancel"
)

// strategies lists every scheduling strategy, for the tests that run under
// each.
var strategies = []Strategy{RoundRobin, Dynamic}

func coverageCheck(t *testing.T, n int, run func(mark func(i int))) {
	t.Helper()
	counts := make([]int64, n)
	run(func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, strategy := range strategies {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			p := NewPool(workers)
			for _, n := range []int{0, 1, 2, 5, 100, 1023} {
				coverageCheck(t, n, func(mark func(int)) {
					p.For(n, strategy, mark)
				})
			}
			p.Close()
		}
	}
}

// The contract tests below take the pool constructor, so each runs twice:
// once through NewPool and once, as a TestBarrier* test, through the
// deprecated NewBarrierPool alias, which callers outside this module still
// use and which must keep every guarantee the deleted barrier pool gave.

func TestPoolForCoversEveryIndexOnce(t *testing.T) { testForCoversEveryIndexOnce(t, NewPool) }
func TestBarrierForCoversEveryIndexOnce(t *testing.T) {
	testForCoversEveryIndexOnce(t, NewBarrierPool)
}

func testForCoversEveryIndexOnce(t *testing.T, newPool func(int) *Pool) {
	for _, strategy := range strategies {
		for _, workers := range []int{1, 2, 5, 16} {
			p := newPool(workers)
			for _, n := range []int{0, 1, 7, 256} {
				coverageCheck(t, n, func(mark func(int)) {
					p.For(n, strategy, mark)
				})
			}
			p.Close()
		}
	}
}

func TestPoolReusedAcrossManyRounds(t *testing.T) { testReusedAcrossManyRounds(t, NewPool) }
func TestBarrierPoolReusedAcrossManyRounds(t *testing.T) {
	testReusedAcrossManyRounds(t, NewBarrierPool)
}

func testReusedAcrossManyRounds(t *testing.T, newPool func(int) *Pool) {
	p := newPool(4)
	defer p.Close()
	var total atomic.Int64
	const rounds, n = 500, 37
	for r := 0; r < rounds; r++ {
		p.For(n, RoundRobin, func(i int) { total.Add(1) })
	}
	if got := total.Load(); got != rounds*n {
		t.Fatalf("executed %d bodies, want %d", got, rounds*n)
	}
}

func TestForWorkerIDsInRange(t *testing.T)        { testForWorkerIDsInRange(t, NewPool) }
func TestBarrierForWorkerIDsInRange(t *testing.T) { testForWorkerIDsInRange(t, NewBarrierPool) }

func testForWorkerIDsInRange(t *testing.T, newPool func(int) *Pool) {
	for _, strategy := range strategies {
		p := newPool(5)
		var bad atomic.Int64
		p.ForWorker(1000, strategy, 0, func(w, i int) {
			if w < 0 || w >= 5 {
				bad.Add(1)
			}
		})
		p.Close()
		if bad.Load() != 0 {
			t.Fatalf("strategy %v produced out-of-range worker ids", strategy)
		}
	}
}

func TestPoolSmallRoundUsesOnlyNeededWorkers(t *testing.T) {
	testSmallRoundUsesOnlyNeededWorkers(t, NewPool)
}
func TestBarrierSmallRoundUsesOnlyNeededWorkers(t *testing.T) {
	testSmallRoundUsesOnlyNeededWorkers(t, NewBarrierPool)
}

func testSmallRoundUsesOnlyNeededWorkers(t *testing.T, newPool func(int) *Pool) {
	// n < workers dispatches to just the first n workers: ids stay below n
	// and coverage is exact (the idle tail never wakes).
	for _, strategy := range strategies {
		p := newPool(8)
		for _, n := range []int{2, 3, 7} {
			var bad atomic.Int64
			coverageCheck(t, n, func(mark func(int)) {
				p.ForWorker(n, strategy, 0, func(w, i int) {
					if w >= n {
						bad.Add(1)
					}
					mark(i)
				})
			})
			if bad.Load() != 0 {
				t.Fatalf("%v n=%d: worker id >= n", strategy, n)
			}
		}
		p.Close()
	}
}

func TestPoolSingleIterationRunsInlineOnCaller(t *testing.T) {
	testSingleIterationRunsInlineOnCaller(t, NewPool)
}
func TestBarrierSingleIterationRunsInlineOnCaller(t *testing.T) {
	testSingleIterationRunsInlineOnCaller(t, NewBarrierPool)
}

func testSingleIterationRunsInlineOnCaller(t *testing.T, newPool func(int) *Pool) {
	// n == 1 must run on the calling goroutine: an unsynchronized local
	// write would be a reported race otherwise (run with -race).
	p := newPool(4)
	defer p.Close()
	ran := 0
	p.ForWorker(1, Dynamic, 0, func(w, i int) {
		if w != 0 || i != 0 {
			t.Errorf("inline call got (w=%d, i=%d)", w, i)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
}

func TestRoundRobinAssignsByModulo(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	workerOf := make([]int32, 64)
	p.ForWorker(64, RoundRobin, 0, func(w, i int) {
		atomic.StoreInt32(&workerOf[i], int32(w))
	})
	for i, w := range workerOf {
		if int(w) != i%4 {
			t.Fatalf("index %d ran on worker %d, want %d (paper's round-robin)", i, w, i%4)
		}
	}
}

func TestDynamicGrainRespected(t *testing.T) {
	// With grain 10 over 100 indices, every run of 10 consecutive indices
	// must execute on a single worker.
	p := NewPool(3)
	defer p.Close()
	workerOf := make([]int32, 100)
	p.ForWorker(100, Dynamic, 10, func(w, i int) {
		atomic.StoreInt32(&workerOf[i], int32(w))
	})
	for chunk := 0; chunk < 10; chunk++ {
		w := workerOf[chunk*10]
		for i := chunk*10 + 1; i < (chunk+1)*10; i++ {
			if workerOf[i] != w {
				t.Fatalf("chunk %d split across workers %d and %d", chunk, w, workerOf[i])
			}
		}
	}
}

func TestBodyPanicPropagatesAndPoolSurvives(t *testing.T) {
	testBodyPanicPropagatesAndPoolSurvives(t, NewPool)
}
func TestBarrierBodyPanicPropagatesAndPoolSurvives(t *testing.T) {
	testBodyPanicPropagatesAndPoolSurvives(t, NewBarrierPool)
}

func testBodyPanicPropagatesAndPoolSurvives(t *testing.T, newPool func(int) *Pool) {
	p := newPool(3)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in body did not propagate")
			}
		}()
		p.For(10, RoundRobin, func(i int) {
			if i == 7 {
				panic("boom")
			}
		})
	}()
	// The pool must still work.
	coverageCheck(t, 20, func(mark func(int)) {
		p.For(20, Dynamic, mark)
	})
}

// TestEveryWorkerPanicsInOneRound runs one round in which every worker's
// body panics, so the workers record their panics concurrently. Under -race
// it pins the recording's lock; the caller re-panics one worker's value, and
// the pool stays usable.
func TestEveryWorkerPanicsInOneRound(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	func() {
		defer func() {
			e := recover()
			if w, ok := e.(int); !ok || w < 0 || w >= workers {
				t.Fatalf("round re-panicked %v, want one worker's id", e)
			}
		}()
		p.ForWorker(workers, RoundRobin, 0, func(w, _ int) { panic(w) })
	}()
	coverageCheck(t, 64, func(mark func(int)) {
		p.For(64, Dynamic, mark)
	})
}

func TestForOnClosedPoolPanics(t *testing.T)    { testForOnClosedPanics(t, NewPool) }
func TestBarrierForOnClosedPanics(t *testing.T) { testForOnClosedPanics(t, NewBarrierPool) }

func testForOnClosedPanics(t *testing.T, newPool func(int) *Pool) {
	p := newPool(2)
	p.Close()
	for _, n := range []int{0, 1, 10} {
		func() {
			defer func() {
				if r := recover(); r != "par: For on closed Pool" {
					t.Fatalf("For(%d) on closed pool: recover = %v", n, r)
				}
			}()
			p.For(n, RoundRobin, func(int) {})
		}()
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestCloseConcurrentlyIdempotent(t *testing.T) { testCloseConcurrentlyIdempotent(t, NewPool) }
func TestBarrierCloseIdempotentAndConcurrent(t *testing.T) {
	p := NewBarrierPool(2)
	p.Close()
	p.Close() // must not panic
	testCloseConcurrentlyIdempotent(t, NewBarrierPool)
}

func testCloseConcurrentlyIdempotent(t *testing.T, newPool func(int) *Pool) {
	// Many goroutines racing Close must close the feeds exactly once.
	for rep := 0; rep < 50; rep++ {
		p := newPool(3)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Close()
			}()
		}
		wg.Wait()
	}
}

// TestCloseDuringRoundsNeverSendsOnClosedChannel documents the Pool's
// concurrency contract: rounds come from a single caller at a time, but
// Close may race an in-flight round. The round either completes (it
// dispatched before Close won the mutex) or panics with the descriptive
// "For on closed Pool" — never the runtime's "send on closed channel".
func TestCloseDuringRoundsNeverSendsOnClosedChannel(t *testing.T) {
	testCloseDuringRounds(t, NewPool)
}
func TestBarrierCloseDuringRoundsDrains(t *testing.T) { testCloseDuringRounds(t, NewBarrierPool) }

func testCloseDuringRounds(t *testing.T, newPool func(int) *Pool) {
	for rep := 0; rep < 100; rep++ {
		p := newPool(2)
		roundsDone := make(chan any, 1)
		go func() {
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				for i := 0; i < 1000; i++ {
					p.For(8, RoundRobin, func(int) {})
				}
			}()
			roundsDone <- recovered
		}()
		p.Close()
		if r := <-roundsDone; r != nil {
			msg, ok := r.(string)
			if !ok || msg != "par: For on closed Pool" {
				t.Fatalf("rep %d: round panicked with %v, want the documented closed-pool panic", rep, r)
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize(3); got != 3 {
		t.Fatalf("Normalize(3) = %d", got)
	}
	if got := Normalize(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Normalize(0) = %d, want GOMAXPROCS", got)
	}
	if got := Normalize(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Normalize(-5) = %d, want GOMAXPROCS", got)
	}
}

func TestWorkersAccessor(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	if p.Workers() != 6 {
		t.Fatalf("Workers = %d", p.Workers())
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		RoundRobin: "round-robin", Dynamic: "dynamic",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy should still render")
	}
}

func TestNoDataRacesUnderSharedWrites(t *testing.T) { testSharedWritesPublished(t, NewPool) }
func TestBarrierSharedWritesPublishedByBarrier(t *testing.T) {
	testSharedWritesPublished(t, NewBarrierPool)
}

func testSharedWritesPublished(t *testing.T, newPool func(int) *Pool) {
	// Run with -race: each index writes its own slot; the WaitGroup barrier
	// must publish all writes to the caller.
	p := newPool(8)
	defer p.Close()
	out := make([]int, 4096)
	p.For(len(out), Dynamic, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d after barrier", i, v)
		}
	}
}

func TestSequentialOneWorkerOrder(t *testing.T) {
	// A single worker with RoundRobin must preserve index order.
	p := NewPool(1)
	defer p.Close()
	var mu sync.Mutex
	var order []int
	p.For(10, RoundRobin, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// closeWithin closes p and fails the test unless Close, which returns only
// once every worker goroutine of p has exited, returns within 5 s.
func closeWithin(t *testing.T, p *Pool) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting for its worker goroutines after 5s")
	}
}

func TestCloseStopsWorkerGoroutines(t *testing.T) { testCloseStopsWorkers(t, NewPool) }
func TestBarrierCloseStopsResidentGoroutines(t *testing.T) {
	testCloseStopsWorkers(t, NewBarrierPool)
}

// testCloseStopsWorkers checks that Close returns once its pool's workers
// have exited, whether they were idle or just back from a round: right after
// the last Close the goroutine count is back at its baseline, give or take
// the closeWithin helpers still winding down.
func testCloseStopsWorkers(t *testing.T, newPool func(int) *Pool) {
	before := runtime.NumGoroutine()
	pools := make([]*Pool, 8)
	for i := range pools {
		pools[i] = newPool(8)
	}
	if during := runtime.NumGoroutine(); during < before+32 {
		t.Fatalf("expected worker goroutines to start: before=%d during=%d", before, during)
	}
	for i, p := range pools {
		if i%2 == 0 {
			p.For(1024, Dynamic, func(int) {})
		}
		closeWithin(t, p)
	}
	if now := runtime.NumGoroutine(); now > before+len(pools) {
		t.Fatalf("worker goroutines outlived Close: before=%d now=%d", before, now)
	}
}

// TestBarrierCallerParkHandoffAcrossRounds checks that every dispatch
// returns only after all bodies of its round ran, also when the workers
// other than worker 0 finish long after it.
func TestBarrierCallerParkHandoffAcrossRounds(t *testing.T) {
	p := NewBarrierPool(4)
	defer p.Close()
	const rounds, n = 300, 8
	var ran atomic.Int64
	for r := 0; r < rounds; r++ {
		ran.Store(0)
		p.ForWorker(n, RoundRobin, 0, func(w, i int) {
			if w != 0 {
				time.Sleep(100 * time.Microsecond)
			}
			ran.Add(1)
		})
		if got := ran.Load(); got != n {
			t.Fatalf("round %d: dispatch returned after %d of %d bodies", r, got, n)
		}
	}
}

// The ForCtx tests drive ForWorkerCtx, the pool's one cancelable round.

func TestForCtxCoversEveryIndexWhenNotCanceled(t *testing.T) {
	testForCtxCoversEveryIndex(t, NewPool)
}
func TestBarrierForCtxCoversEveryIndexWhenNotCanceled(t *testing.T) {
	testForCtxCoversEveryIndex(t, NewBarrierPool)
}

func testForCtxCoversEveryIndex(t *testing.T, newPool func(int) *Pool) {
	for _, strategy := range strategies {
		p := newPool(4)
		for _, n := range []int{0, 1, 7, 1024} {
			coverageCheck(t, n, func(mark func(int)) {
				if err := p.ForWorkerCtx(context.Background(), n, strategy, 0, func(_, i int) { mark(i) }); err != nil {
					t.Fatalf("uncanceled ForWorkerCtx: %v", err)
				}
			})
		}
		p.Close()
	}
}

func TestForCtxNilContextBehavesLikeFor(t *testing.T) { testForCtxNilContext(t, NewPool) }
func TestBarrierForCtxNilContextBehavesLikeFor(t *testing.T) {
	testForCtxNilContext(t, NewBarrierPool)
}

func testForCtxNilContext(t *testing.T, newPool func(int) *Pool) {
	p := newPool(3)
	defer p.Close()
	coverageCheck(t, 100, func(mark func(int)) {
		if err := p.ForWorkerCtx(nil, 100, RoundRobin, 0, func(_, i int) { mark(i) }); err != nil {
			t.Fatalf("nil-ctx ForWorkerCtx: %v", err)
		}
	})
}

func TestForCtxStopsOnCancel(t *testing.T) { testForCtxStopsOnCancel(t, NewPool) }
func TestBarrierForCtxStopsOnCancelMidRound(t *testing.T) {
	testForCtxStopsOnCancel(t, NewBarrierPool)
}

// pollStrideBound is ForWorkerCtx's cancellation contract: once ctx is
// canceled, each worker runs at most this many more iterations.
const pollStrideBound = 1 << 16

// testForCtxStopsOnCancel cancels a round in its first iteration and counts,
// per worker, the iterations that start after the cancel. Each worker's
// share of the round is four times pollStrideBound, so a worker that polled
// less often than the contract allows would overrun it.
func testForCtxStopsOnCancel(t *testing.T, newPool func(int) *Pool) {
	const workers = 4
	for _, strategy := range strategies {
		p := newPool(workers)
		ctx, cancelFn := context.WithCancel(context.Background())
		var ran atomic.Int64
		var canceled atomic.Bool
		var after [workers]int64 // after[w] is written by worker w only
		const n = workers * 4 * pollStrideBound
		err := p.ForWorkerCtx(ctx, n, strategy, 0, func(w, i int) {
			if canceled.Load() {
				after[w]++
			}
			if ran.Add(1) == 1 {
				cancelFn()
				canceled.Store(true)
			}
		})
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Fatalf("%v: want ErrCanceled, got %v", strategy, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("%v: cancellation ignored, all %d iterations ran", strategy, got)
		}
		for w, a := range after {
			if a > pollStrideBound {
				t.Fatalf("%v: worker %d ran %d iterations after the cancel, over the %d-iteration poll stride", strategy, w, a, pollStrideBound)
			}
		}
		// The pool must remain usable after a canceled round.
		coverageCheck(t, 128, func(mark func(int)) {
			p.For(128, strategy, mark)
		})
		p.Close()
		cancelFn()
	}
}

func TestForCtxAlreadyCanceledRunsNothing(t *testing.T) {
	testForCtxAlreadyCanceled(t, NewPool)
}
func TestBarrierForCtxAlreadyCanceledRunsNothing(t *testing.T) {
	testForCtxAlreadyCanceled(t, NewBarrierPool)
}

func testForCtxAlreadyCanceled(t *testing.T, newPool func(int) *Pool) {
	p := newPool(4)
	defer p.Close()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	var ran atomic.Int64
	err := p.ForWorkerCtx(ctx, 1000, RoundRobin, 0, func(_, _ int) { ran.Add(1) })
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d iterations ran on a dead context", ran.Load())
	}
}

func TestCanceledForCtxLeaksNoGoroutines(t *testing.T) { testCanceledRoundsLeakNothing(t, NewPool) }
func TestBarrierCanceledRoundsLeakNoGoroutines(t *testing.T) {
	testCanceledRoundsLeakNothing(t, NewBarrierPool)
}

// testCanceledRoundsLeakNothing is the abort-leak regression guard: a round
// canceled mid-flight must still complete its barrier, and Close must then
// return, with every worker exited, within 5 s.
func testCanceledRoundsLeakNothing(t *testing.T, newPool func(int) *Pool) {
	before := runtime.NumGoroutine()
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		p := newPool(8)
		ctx, cancelFn := context.WithCancel(context.Background())
		var ran atomic.Int64
		_ = p.ForWorkerCtx(ctx, 1<<18, Dynamic, 0, func(_, _ int) {
			if ran.Add(1) == 100 {
				cancelFn()
			}
		})
		closeWithin(t, p)
		cancelFn()
	}
	if now := runtime.NumGoroutine(); now > before+trials {
		t.Fatalf("goroutines leaked after canceled rounds: before=%d now=%d", before, now)
	}
}

// TestRoundsAllocateNothing pins the allocation-free round: the barrier and
// the Dynamic cursor live in the Pool, so a ForWorker round whose body was
// built once allocates nothing, under every strategy, and ForWorkerCtx with
// a never-canceled ctx is that same round.
func TestRoundsAllocateNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	body := func(w, i int) { sink.Add(int64(i)) }
	for _, strategy := range strategies {
		if a := testing.AllocsPerRun(100, func() { p.ForWorker(64, strategy, 0, body) }); a != 0 {
			t.Errorf("%v: ForWorker allocated %v times per round, want 0", strategy, a)
		}
		a := testing.AllocsPerRun(100, func() {
			if err := p.ForWorkerCtx(context.Background(), 64, strategy, 0, body); err != nil {
				t.Fatal(err)
			}
		})
		if a != 0 {
			t.Errorf("%v: ForWorkerCtx allocated %v times per round, want 0", strategy, a)
		}
	}
}
