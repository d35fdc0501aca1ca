package clean

import (
	"testing"

	"example.com/sharedwrite/par"
)

// TestCleanPatternsDoNotRace executes every pattern the sharedwrite prover
// certifies. Under `go test -race` (driven by internal/lint's
// TestRaceFixtures) the package must stay green: the certificates — worker
// indexing, instance indexing, atomics, both-sides locking, join edges —
// hold at runtime, not just in the model.
func TestCleanPatternsDoNotRace(t *testing.T) {
	p := par.NewPool(4)
	for round := 0; round < 20; round++ {
		Slots(p, make([]int64, p.Workers()), 4096)
		BoundSlots(p, make([]int64, p.Workers()), 2, 4096)
		SlotPointer(p, make([]int64, p.Workers()), 4096)
		in := make([]int64, 1024)
		for i := range in {
			in[i] = int64(i)
		}
		out := make([]int64, len(in))
		Items(p, out, in)
		if got := Atomic(p, 4096); got != 4096 {
			t.Fatalf("Atomic: want 4096, got %d", got)
		}
		if got := TypedHandoff(&TypedFlag{}); got > 1 {
			t.Fatalf("TypedHandoff: want 0 or 1, got %d", got)
		}
		if got := Locked(p, &lockedBox{}, 4096); got != 4096 {
			t.Fatalf("Locked: want 4096, got %d", got)
		}
		if got := Joined(&Result{}); got != 42 {
			t.Fatalf("Joined: want 42, got %d", got)
		}
		if got := ChanJoined(&Result{}); got != 7 {
			t.Fatalf("ChanJoined: want 7, got %d", got)
		}
	}
}
