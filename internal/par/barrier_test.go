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

func TestBarrierForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8} {
		b := NewBarrierPool(workers)
		for _, n := range []int{0, 1, 2, 5, 100, 1023, 4096} {
			coverageCheck(t, n, func(mark func(int)) {
				b.For(n, mark)
			})
		}
		b.Close()
	}
}

func TestBarrierForWorkerIDsInRange(t *testing.T) {
	b := NewBarrierPool(5)
	defer b.Close()
	var bad atomic.Int64
	b.ForWorker(1000, func(w, i int) {
		if w < 0 || w >= 5 {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("out-of-range worker ids")
	}
}

func TestBarrierSmallRoundUsesOnlyNeededWorkers(t *testing.T) {
	// A round with n < workers clamps the participant set to n, so worker
	// ids stay below n (the idle tail is never woken).
	b := NewBarrierPool(8)
	defer b.Close()
	for _, n := range []int{2, 3, 7} {
		var bad atomic.Int64
		coverageCheck(t, n, func(mark func(int)) {
			b.ForWorker(n, func(w, i int) {
				if w >= n {
					bad.Add(1)
				}
				mark(i)
			})
		})
		if bad.Load() != 0 {
			t.Fatalf("n=%d: worker id >= n", n)
		}
	}
}

func TestBarrierSingleIterationRunsInlineOnCaller(t *testing.T) {
	// n == 1 must run on the calling goroutine: an unsynchronized local
	// write would be a reported race otherwise (run with -race).
	b := NewBarrierPool(4)
	defer b.Close()
	ran := 0
	b.For(1, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
}

func TestBarrierPoolReusedAcrossManyRounds(t *testing.T) {
	b := NewBarrierPool(4)
	defer b.Close()
	var total atomic.Int64
	const rounds, n = 2000, 37
	for r := 0; r < rounds; r++ {
		b.For(n, func(i int) { total.Add(1) })
	}
	if got := total.Load(); got != rounds*n {
		t.Fatalf("executed %d bodies, want %d", got, rounds*n)
	}
}

func TestBarrierCallerParkHandoffAcrossRounds(t *testing.T) {
	// Regression for the cross-round completion handoff: a worker that ends
	// round N may be preempted between its final arrival and its claim of the
	// caller's waiting flag, by which time the caller can already be parked
	// on round N+1 — a stale (untagged) claim would release the caller while
	// round N+1 is still running. Force the caller to park every round (the
	// non-caller shares outlast its spin budget) and check each dispatch
	// returns only after all its bodies ran.
	b := NewBarrierPool(4)
	defer b.Close()
	const rounds, n = 300, 8
	var ran atomic.Int64
	for r := 0; r < rounds; r++ {
		ran.Store(0)
		b.ForWorker(n, func(w, i int) {
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

func TestBarrierSharedWritesPublishedByBarrier(t *testing.T) {
	// Run with -race: each index writes its own slot; the final barrier must
	// publish every participant's writes to the caller.
	b := NewBarrierPool(8)
	defer b.Close()
	out := make([]int, 4096)
	b.For(len(out), func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d after barrier", i, v)
		}
	}
}

func TestBarrierForBatchCoversAllSegments(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		b := NewBarrierPool(workers)
		segs := []int{5, 100, 1, 0, 63, 1024}
		counts := make([][]int64, len(segs))
		for s, n := range segs {
			counts[s] = make([]int64, n)
		}
		b.ForBatch(segs, func(w, s, i int) {
			atomic.AddInt64(&counts[s][i], 1)
		})
		for s := range counts {
			for i, c := range counts[s] {
				if c != 1 {
					t.Fatalf("workers=%d seg %d index %d executed %d times", workers, s, i, c)
				}
			}
		}
		b.Close()
	}
}

func TestBarrierForBatchRunsSegmentsInOrder(t *testing.T) {
	// The fused-level correctness contract: no body call of segment s may
	// start before every body call of segment s-1 returned.
	b := NewBarrierPool(4)
	defer b.Close()
	segs := []int{300, 17, 1000, 64, 2, 500}
	finished := make([]atomic.Int64, len(segs))
	var violations atomic.Int64
	for rep := 0; rep < 20; rep++ {
		for s := range finished {
			finished[s].Store(0)
		}
		b.ForBatch(segs, func(w, s, i int) {
			if s > 0 && finished[s-1].Load() != int64(segs[s-1]) {
				violations.Add(1)
			}
			finished[s].Add(1)
		})
	}
	if violations.Load() != 0 {
		t.Fatalf("%d body calls started before the previous segment finished", violations.Load())
	}
}

func TestBarrierForBatchNegativeSegmentPanics(t *testing.T) {
	b := NewBarrierPool(2)
	defer b.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("negative segment length did not panic")
		}
	}()
	b.ForBatch([]int{3, -1}, func(w, s, i int) {})
}

func TestBarrierBodyPanicPropagatesAndPoolSurvives(t *testing.T) {
	b := NewBarrierPool(3)
	defer b.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in body did not propagate")
			}
		}()
		b.For(1000, func(i int) {
			if i == 707 {
				panic("boom")
			}
		})
	}()
	// The pool must still work, including batches.
	coverageCheck(t, 200, func(mark func(int)) {
		b.For(200, mark)
	})
	var total atomic.Int64
	b.ForBatch([]int{80, 80}, func(w, s, i int) { total.Add(1) })
	if total.Load() != 160 {
		t.Fatalf("batch after panic ran %d bodies", total.Load())
	}
}

func TestBarrierBatchPanicPropagates(t *testing.T) {
	b := NewBarrierPool(4)
	defer b.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in batch body did not propagate")
			}
		}()
		b.ForBatch([]int{100, 100, 100}, func(w, s, i int) {
			if s == 1 && i == 50 {
				panic("mid-batch")
			}
		})
	}()
	coverageCheck(t, 128, func(mark func(int)) { b.For(128, mark) })
}

func TestBarrierForOnClosedPanics(t *testing.T) {
	b := NewBarrierPool(2)
	b.Close()
	for name, call := range map[string]func(){
		"For":      func() { b.For(10, func(int) {}) },
		"For1":     func() { b.For(1, func(int) {}) },
		"For0":     func() { b.For(0, func(int) {}) },
		"ForBatch": func() { b.ForBatch([]int{4, 4}, func(int, int, int) {}) },
		"Batch0":   func() { b.ForBatch(nil, func(int, int, int) {}) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "par: For on closed BarrierPool" {
					t.Fatalf("%s on closed pool: recover = %v", name, r)
				}
			}()
			call()
		}()
	}
}

func TestBarrierCloseIdempotentAndConcurrent(t *testing.T) {
	b := NewBarrierPool(2)
	b.Close()
	b.Close() // must not panic
	for rep := 0; rep < 50; rep++ {
		p := NewBarrierPool(3)
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

// TestBarrierCloseDuringRoundsDrains mirrors the Pool contract test: Close
// racing a stream of rounds either lets a dispatched round drain or makes a
// not-yet-dispatched round panic with the documented message — never a hang
// or a runtime fault.
func TestBarrierCloseDuringRoundsDrains(t *testing.T) {
	for rep := 0; rep < 100; rep++ {
		b := NewBarrierPool(3)
		roundsDone := make(chan any, 1)
		go func() {
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				for i := 0; i < 1000; i++ {
					b.For(64, func(int) {})
				}
			}()
			roundsDone <- recovered
		}()
		b.Close()
		if r := <-roundsDone; r != nil {
			msg, ok := r.(string)
			if !ok || msg != "par: For on closed BarrierPool" {
				t.Fatalf("rep %d: round panicked with %v, want the documented closed-pool panic", rep, r)
			}
		}
	}
}

// TestBarrierCloseStopsResidentGoroutines checks that Close returns only
// once every resident goroutine of its pool has exited, whether the
// residents were parked or just back from a round. It waits on each pool's
// own residents, so goroutines that other tests leave behind cannot disturb
// it.
func TestBarrierCloseStopsResidentGoroutines(t *testing.T) {
	pools := make([]*BarrierPool, 8)
	for i := range pools {
		pools[i] = NewBarrierPool(8)
	}
	for i, b := range pools {
		if i%2 == 0 {
			b.For(1024, func(int) {}) // park/unpark cycle before Close
		}
		closed := make(chan struct{})
		go func() {
			b.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("pool %d: Close still waiting for its resident goroutines after 5s", i)
		}
	}
}

func TestBarrierForCtxCoversEveryIndexWhenNotCanceled(t *testing.T) {
	b := NewBarrierPool(4)
	defer b.Close()
	for _, n := range []int{0, 1, 7, 1024} {
		coverageCheck(t, n, func(mark func(int)) {
			if err := b.ForCtx(context.Background(), n, mark); err != nil {
				t.Fatalf("uncanceled ForCtx: %v", err)
			}
		})
	}
}

func TestBarrierForCtxNilContextBehavesLikeFor(t *testing.T) {
	b := NewBarrierPool(3)
	defer b.Close()
	coverageCheck(t, 100, func(mark func(int)) {
		if err := b.ForCtx(nil, 100, mark); err != nil {
			t.Fatalf("nil-ctx ForCtx: %v", err)
		}
	})
}

func TestBarrierForCtxStopsOnCancelMidRound(t *testing.T) {
	b := NewBarrierPool(4)
	defer b.Close()
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	var ran atomic.Int64
	const n = 1 << 20
	err := b.ForCtx(ctx, n, func(i int) {
		if ran.Add(1) == 64 {
			cancelFn()
		}
	})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("cancellation ignored, all %d iterations ran", got)
	}
	// The pool must remain usable after a canceled round.
	coverageCheck(t, 128, func(mark func(int)) {
		b.For(128, mark)
	})
}

func TestBarrierForCtxAlreadyCanceledRunsNothing(t *testing.T) {
	b := NewBarrierPool(4)
	defer b.Close()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	var ran atomic.Int64
	err := b.ForCtx(ctx, 1000, func(i int) { ran.Add(1) })
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d iterations ran on a dead context", ran.Load())
	}
}

func TestBarrierForBatchCtxStopsOnCancel(t *testing.T) {
	b := NewBarrierPool(4)
	defer b.Close()
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	segs := []int{1 << 18, 1 << 18, 1 << 18}
	var ran atomic.Int64
	err := b.ForBatchCtx(ctx, segs, func(w, s, i int) {
		if ran.Add(1) == 64 {
			cancelFn()
		}
	})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	total := int64(0)
	for _, n := range segs {
		total += int64(n)
	}
	if got := ran.Load(); got >= total {
		t.Fatalf("cancellation ignored, all %d iterations ran", got)
	}
	// Batches and plain rounds both work afterwards.
	var again atomic.Int64
	if err := b.ForBatchCtx(context.Background(), []int{100, 100}, func(w, s, i int) { again.Add(1) }); err != nil {
		t.Fatalf("batch after cancel: %v", err)
	}
	if again.Load() != 200 {
		t.Fatalf("recovery batch ran %d bodies", again.Load())
	}
}

func TestBarrierCanceledRoundsLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		b := NewBarrierPool(8)
		ctx, cancelFn := context.WithCancel(context.Background())
		var ran atomic.Int64
		_ = b.ForCtx(ctx, 1<<18, func(i int) {
			if ran.Add(1) == 100 {
				cancelFn()
			}
		})
		b.Close()
		cancelFn()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after canceled rounds: before=%d now=%d", before, runtime.NumGoroutine())
}

func TestBarrierWorkersAccessorAndClamp(t *testing.T) {
	b := NewBarrierPool(6)
	if b.Workers() != 6 {
		t.Fatalf("Workers = %d", b.Workers())
	}
	b.Close()
	big := NewBarrierPool(maxBarrierWorkers + 5)
	if big.Workers() != maxBarrierWorkers {
		t.Fatalf("Workers = %d, want clamp to %d", big.Workers(), maxBarrierWorkers)
	}
	big.Close()
}
