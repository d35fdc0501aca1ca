package racy

import (
	"testing"
	"time"

	"example.com/sharedwrite/par"
)

// TestRacyPatternsRace executes every pattern the sharedwrite prover
// rejects. Under `go test -race` (driven by internal/lint's
// TestRaceFixtures) at least one access pair trips the runtime detector,
// failing this package — the analyzer's verdict and the dynamic detector
// agree that these are real races, not model artifacts.
func TestRacyPatternsRace(t *testing.T) {
	p := par.NewPool(4)
	xs := make([]int64, 64)
	for i := range xs {
		xs[i] = int64(i)
	}
	for round := 0; round < 20; round++ {
		g := &Gate{}
		_ = Handoff(g, xs)
		_ = CASHandoff(&Flag{})
		SlotMix(p, make([]int64, 2), 256)
		_ = Counter(p, 4096)
		Sibling(&Gate{})
		HalfLocked(p, &Gate{}, 256)
		_ = BoundBody(p, 2, 256)
		Window(p, make([]int64, 2), 256)
		PointerArg(p, &Gate{}, 256)
	}
	// Let the unjoined Handoff goroutines finish inside the test body so
	// the detector observes their writes.
	time.Sleep(50 * time.Millisecond)
}
