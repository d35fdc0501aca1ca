package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
	"repro/internal/listsched"
	"repro/internal/workload"
)

// pollCtx is a context whose Done channel is closed by its k-th Done call:
// a cancellation that lands at one chosen poll of the solve. With k = 0 it
// never closes, and calls counts the polls of an uncanceled solve.
type pollCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
	done  chan struct{}
}

func newPollCtx(k int64) *pollCtx {
	return &pollCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.calls.Add(1) == c.k {
		close(c.done)
	}
	return c.done
}

func (c *pollCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelAtAnyPoll cancels solves of the fill-par benchmark's shapes
// (fig3 U(1,100) and U(1,10n), eps 0.2) at polls spread over the Done calls
// of an uncanceled solve, with the production fill and the paper's fills at
// one and two workers. Every solve either completes with the uncanceled
// schedule or degrades to LPT's schedule with UsedLPTFallback set and a
// *cancel.Error matching ErrCanceled.
func TestCancelAtAnyPoll(t *testing.T) {
	const cuts = 8
	for _, family := range []workload.Family{workload.U1_100, workload.U1_10n} {
		in := workload.MustGenerate(workload.Spec{Family: family, M: 10, N: 50, Seed: 1})
		lpt := listsched.LPT(in)
		for _, workers := range []int{1, 2} {
			for _, faithful := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/w%d/faithful=%v", family, workers, faithful), func(t *testing.T) {
					opts := Options{Epsilon: 0.2, Workers: workers, PaperFaithful: faithful, LPTFallback: true}
					count := newPollCtx(0)
					want, _, err := Solve(count, in, opts)
					if err != nil {
						t.Fatal(err)
					}
					polls := count.calls.Load()
					for i := range int64(cuts + 1) {
						k := 1 + (polls-1)*i/cuts
						got, st, err := Solve(newPollCtx(k), in, opts)
						if err == nil {
							if !slices.Equal(got.Assignment, want.Assignment) {
								t.Fatalf("poll %d of %d: completed with a schedule other than the uncanceled one", k, polls)
							}
							continue
						}
						var cerr *cancel.Error
						if !errors.As(err, &cerr) || !errors.Is(err, cancel.ErrCanceled) {
							t.Fatalf("poll %d of %d: want a *cancel.Error matching ErrCanceled, got %v", k, polls, err)
						}
						if got == nil || st == nil || !st.UsedLPTFallback {
							t.Fatalf("poll %d of %d: canceled solve returned schedule %v, stats %+v; want LPT's with UsedLPTFallback", k, polls, got, st)
						}
						if err := got.Validate(in); err != nil {
							t.Fatalf("poll %d of %d: %v", k, polls, err)
						}
						if !slices.Equal(got.Assignment, lpt.Assignment) {
							t.Fatalf("poll %d of %d: canceled solve returned a schedule other than LPT's", k, polls)
						}
					}
				})
			}
		}
	}
}
