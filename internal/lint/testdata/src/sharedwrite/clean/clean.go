// Package clean holds parallel regions the sharedwrite prover must certify:
// every write is worker-indexed, instance-indexed, atomic, mutex-guarded on
// both sides, or separated from the spawner by a join edge. The -race stress
// harness executes each of them to confirm the certificates are real.
package clean

import (
	"sync"
	"sync/atomic"

	"example.com/sharedwrite/par"
)

// Result is a single value handed back over a proper join.
type Result struct {
	V int64
}

// Slots writes one padded slot per worker: the interval engine proves the
// index equals the worker id.
func Slots(p *par.Pool, slots []int64, items int) {
	p.ForWorker(items, func(w, i int) {
		slots[w]++
	})
}

// Items writes one output element per work item: the index is
// instance-distinguishing under the dispatch contract.
func Items(p *par.Pool, out, in []int64) {
	p.For(len(in), func(i int) {
		out[i] = in[i] * 2
	})
}

// Atomic funnels all instances through sync/atomic.
func Atomic(p *par.Pool, items int) int64 {
	var total int64
	p.For(items, func(i int) {
		atomic.AddInt64(&total, 1)
	})
	return total
}

// TypedFlag is TypedHandoff's handoff word, a typed atomic.
type TypedFlag struct {
	State atomic.Uint64
}

// TypedHandoff is CASHandoff's certified twin: the spawner reads the word
// before the join too, but both sides go through the typed atomic.
func TypedHandoff(f *TypedFlag) uint64 {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.State.CompareAndSwap(0, 1)
	}()
	seen := f.State.Load()
	wg.Wait()
	return seen
}

// Locked guards both sides of the conflict with one mutex.
type lockedBox struct {
	mu sync.Mutex
	n  int
}

// Locked bumps the box under its mutex from every instance.
func Locked(p *par.Pool, b *lockedBox, items int) int {
	p.For(items, func(i int) {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	})
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	return n
}

// Joined reads the result only after wg.Wait orders the write before the
// read.
func Joined(g *Result) int64 {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		g.V = 42
		wg.Done()
	}()
	wg.Wait()
	return g.V
}

// ChanJoined uses a channel close as the join edge.
func ChanJoined(g *Result) int64 {
	done := make(chan struct{})
	go func() {
		g.V = 7
		close(done)
	}()
	<-done
	return g.V
}

// BoundSlots is Slots with the round body built once, outside the loop of
// rounds.
func BoundSlots(p *par.Pool, slots []int64, rounds, items int) {
	body := func(w, i int) {
		slots[w]++
	}
	for r := 0; r < rounds; r++ {
		p.ForWorker(items, body)
	}
}

func bump(n *int64) { *n++ }

// SlotPointer hands each worker a pointer to its own slot: the argument
// chain &slots[w] is worker-indexed, so the callee's write is too.
func SlotPointer(p *par.Pool, slots []int64, items int) {
	p.ForWorker(items, func(w, i int) {
		bump(&slots[w])
	})
}
