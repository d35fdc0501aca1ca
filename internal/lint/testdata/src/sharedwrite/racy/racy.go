// Package racy holds parallel regions the sharedwrite prover must reject.
// Every pattern here is cross-confirmed by the -race stress harness in
// racy_stress_test.go: the analyzer's verdict and the runtime detector agree.
package racy

import (
	"sync"
	"sync/atomic"

	"example.com/sharedwrite/par"
)

// Gate is the PR-4 shape: a result field handed from workers back to the
// spawner.
type Gate struct {
	Out int64
	mu  sync.Mutex
}

// Handoff distills the PR-4 barrier handoff bug: goroutines spawned in a
// loop write a shared field with no join, and the spawner reads it while
// they may still be running.
func Handoff(g *Gate, xs []int64) int64 {
	for _, x := range xs {
		go func(x int64) {
			g.Out += x // want "write to Out"
		}(x)
	}
	return g.Out
}

// Flag is CASHandoff's handoff word: a plain uint64 that one side reaches
// through sync/atomic.
type Flag struct {
	State uint64
}

// CASHandoff is Handoff with only the worker side made atomic: the
// goroutine publishes with a CAS, but the spawner reads the word plainly
// before the join. One atomic access orders nothing against a plain one.
func CASHandoff(f *Flag) uint64 {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		atomic.CompareAndSwapUint64(&f.State, 0, 1) // want "write to State"
	}()
	seen := f.State
	wg.Wait()
	return seen
}

// SlotMix indexes by w%2: the interval engine cannot prove the slot equals
// the worker id, so two workers may collide on one element.
func SlotMix(p *par.Pool, slots []int64, items int) {
	p.ForWorker(items, func(w, i int) {
		slots[w%2]++ // want "write to slots"
	})
}

// Counter bumps a plain captured counter from every instance.
func Counter(p *par.Pool, items int) int {
	total := 0
	p.For(items, func(i int) {
		total++ // want "write to total"
	})
	return total
}

// Sibling spawns two goroutines that are only joined after both writes: the
// regions are unordered with each other.
func Sibling(g *Gate) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); g.Out = 1 }() // want "write to Out"
	go func() { defer wg.Done(); g.Out = 2 }()
	wg.Wait()
}

// HalfLocked takes the mutex on only one side of the conflict.
func HalfLocked(p *par.Pool, g *Gate, items int) {
	p.For(items, func(i int) {
		g.mu.Lock()
		g.Out++ // want "write to Out"
		g.mu.Unlock()
		_ = g.Out // the unguarded read defeats the lock
	})
}

// BoundBody builds its round body once, outside the loop of rounds, as an
// allocation-free caller does: the model follows the variable to the
// literal, so the plain counter write is still caught.
func BoundBody(p *par.Pool, rounds, items int) int {
	total := 0
	body := func(i int) {
		total++ // want "write to total"
	}
	for r := 0; r < rounds; r++ {
		p.For(items, body)
	}
	return total
}

// Window writes through a sub-slice of the shared buffer: the sub-slice's
// elements sit at unknown offsets of buf, so the write counts against all of
// it.
func Window(p *par.Pool, buf []int64, items int) {
	p.For(items, func(i int) {
		win := buf[:1]
		win[0]++ // want "write to buf"
	})
}

func bump(n *int64) { *n++ }

// PointerArg hands every instance the same word by pointer: the callee's
// write lands on the caller's storage.
func PointerArg(p *par.Pool, g *Gate, items int) {
	p.For(items, func(i int) {
		bump(&g.Out) // want "write to Out"
	})
}
