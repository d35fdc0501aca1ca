package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// strategies lists every scheduling strategy, for the tests that run under
// each.
var strategies = []Strategy{RoundRobin, Dynamic}

// forIndex runs body(i) for every i in [0, n) as one round of p.
func forIndex(p *Pool, n int, strategy Strategy, body func(i int)) {
	p.ForWorker(n, strategy, 0, func(_, i int) { body(i) })
}

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
					forIndex(p, n, strategy, mark)
				})
			}
			p.Close()
		}
	}
}

func TestPoolForCoversEveryIndexOnce(t *testing.T) {
	for _, strategy := range strategies {
		for _, workers := range []int{1, 2, 5, 16} {
			p := NewPool(workers)
			for _, n := range []int{0, 1, 7, 256} {
				coverageCheck(t, n, func(mark func(int)) {
					forIndex(p, n, strategy, mark)
				})
			}
			p.Close()
		}
	}
}

// TestBarrierForCoversEveryIndexOnce checks the deprecated NewBarrierPool,
// which callers outside this module still use: NewBarrierPool(n) is a
// working pool of n workers.
func TestBarrierForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		p := NewBarrierPool(workers)
		if p.Workers() != workers {
			t.Fatalf("NewBarrierPool(%d) has %d workers", workers, p.Workers())
		}
		for _, strategy := range strategies {
			coverageCheck(t, 256, func(mark func(int)) {
				forIndex(p, 256, strategy, mark)
			})
		}
		p.Close()
	}
}

func TestPoolReusedAcrossManyRounds(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	const rounds, n = 500, 37
	for r := 0; r < rounds; r++ {
		forIndex(p, n, RoundRobin, func(i int) { total.Add(1) })
	}
	if got := total.Load(); got != rounds*n {
		t.Fatalf("executed %d bodies, want %d", got, rounds*n)
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	for _, strategy := range strategies {
		p := NewPool(5)
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
	// n < workers dispatches to just the first n workers: ids stay below n
	// and coverage is exact (the idle tail never wakes).
	for _, strategy := range strategies {
		p := NewPool(8)
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
	// n == 1 must run on the calling goroutine: an unsynchronized local
	// write would be a reported race otherwise (run with -race).
	p := NewPool(4)
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
	p := NewPool(3)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in body did not propagate")
			}
		}()
		forIndex(p, 10, RoundRobin, func(i int) {
			if i == 7 {
				panic("boom")
			}
		})
	}()
	// The pool must still work.
	coverageCheck(t, 20, func(mark func(int)) {
		forIndex(p, 20, Dynamic, mark)
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
		forIndex(p, 64, Dynamic, mark)
	})
}

func TestForOnClosedPoolPanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	for _, n := range []int{0, 1, 10} {
		func() {
			defer func() {
				if r := recover(); r != "par: For on closed Pool" {
					t.Fatalf("For(%d) on closed pool: recover = %v", n, r)
				}
			}()
			forIndex(p, n, RoundRobin, func(int) {})
		}()
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestCloseConcurrentlyIdempotent(t *testing.T) {
	// Many goroutines racing Close must close the feeds exactly once.
	for rep := 0; rep < 50; rep++ {
		p := NewPool(3)
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
	for rep := 0; rep < 100; rep++ {
		p := NewPool(2)
		roundsDone := make(chan any, 1)
		go func() {
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				for i := 0; i < 1000; i++ {
					forIndex(p, 8, RoundRobin, func(int) {})
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

func TestNoDataRacesUnderSharedWrites(t *testing.T) {
	// Run with -race: each index writes its own slot; the WaitGroup barrier
	// must publish all writes to the caller.
	p := NewPool(8)
	defer p.Close()
	out := make([]int, 4096)
	forIndex(p, len(out), Dynamic, func(i int) { out[i] = i * i })
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
	forIndex(p, 10, RoundRobin, func(i int) {
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

// TestCloseStopsWorkerGoroutines checks that Close returns once its pool's
// workers have exited, whether they were idle or just back from a round:
// right after the last Close the goroutine count is back at its baseline,
// give or take the closeWithin helpers still winding down.
func TestCloseStopsWorkerGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	pools := make([]*Pool, 8)
	for i := range pools {
		pools[i] = NewPool(8)
	}
	if during := runtime.NumGoroutine(); during < before+32 {
		t.Fatalf("expected worker goroutines to start: before=%d during=%d", before, during)
	}
	for i, p := range pools {
		if i%2 == 0 {
			forIndex(p, 1024, Dynamic, func(int) {})
		}
		closeWithin(t, p)
	}
	if now := runtime.NumGoroutine(); now > before+len(pools) {
		t.Fatalf("worker goroutines outlived Close: before=%d now=%d", before, now)
	}
}

// TestBarrierCallerParkHandoffAcrossRounds checks the round barrier: every
// dispatch returns only after all bodies of its round ran, also when the
// workers other than worker 0 finish long after it.
func TestBarrierCallerParkHandoffAcrossRounds(t *testing.T) {
	p := NewPool(4)
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

// TestRoundsAllocateNothing pins the allocation-free round: the barrier and
// the Dynamic cursor live in the Pool, so a ForWorker round whose body was
// built once allocates nothing, under every strategy.
func TestRoundsAllocateNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	body := func(w, i int) { sink.Add(int64(i)) }
	for _, strategy := range strategies {
		if a := testing.AllocsPerRun(100, func() { p.ForWorker(64, strategy, 0, body) }); a != 0 {
			t.Errorf("%v: ForWorker allocated %v times per round, want 0", strategy, a)
		}
	}
}
