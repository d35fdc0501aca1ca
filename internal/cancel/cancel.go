// Package cancel is the shared cancellation vocabulary of the solve path.
// Every layer that stops on a dead context.Context — the solver facade and
// its registry, the core PTAS driver, the DP fills and the auxiliary solvers
// — converts it into the same structured error through this package, so a
// caller can test errors.Is(err, cancel.ErrCanceled) (or ErrDeadline) no
// matter which layer noticed the cancellation first. The branch-and-bound
// solvers of package exact keep a MIP solver's contract instead (the
// incumbent with Optimal == false and a nil error); the solver registry
// converts their interruption.
//
// The package distinguishes two ways a solve ends early:
//
//   - ErrDeadline: the context's deadline passed (context.DeadlineExceeded).
//   - ErrCanceled: every other cancellation (an explicit CancelFunc, a parent
//     context dying, ...).
//
// ErrDeadline wraps ErrCanceled — a deadline is one kind of cancellation —
// so errors.Is(err, ErrCanceled) holds for both, while
// errors.Is(err, ErrDeadline) identifies the deadline case specifically.
package cancel

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled reports that a solve was interrupted by its context.
var ErrCanceled = errors.New("solve canceled")

// ErrDeadline reports that a solve ran past its context deadline. It wraps
// ErrCanceled.
var ErrDeadline = fmt.Errorf("%w: deadline exceeded", ErrCanceled)

// Error is the structured cancellation failure returned by the solve path.
// It wraps the matching sentinel (ErrCanceled or ErrDeadline) and the
// context's cause, and carries the partial progress the interrupted solve
// had made, so callers can log how far it got before degrading to a
// fallback schedule.
type Error struct {
	sentinel error // ErrCanceled or ErrDeadline
	cause    error // context.Cause at interruption time

	// Iterations counts bisection (or search) iterations completed before
	// the interruption. Layers that have no iteration notion leave it 0.
	Iterations int
	// EntriesFilled counts DP table entries completed before the
	// interruption, summed over finished fills.
	EntriesFilled int64
}

// Error formats the failure with its cause.
func (e *Error) Error() string {
	if e.cause != nil && !errors.Is(e.sentinel, e.cause) {
		return fmt.Sprintf("%v (%v)", e.sentinel, e.cause)
	}
	return e.sentinel.Error()
}

// Unwrap exposes both the sentinel chain (ErrDeadline -> ErrCanceled) and
// the context cause (context.Canceled / context.DeadlineExceeded / a custom
// cause) to errors.Is and errors.As.
func (e *Error) Unwrap() []error {
	if e.cause == nil {
		return []error{e.sentinel}
	}
	return []error{e.sentinel, e.cause}
}

// From builds the structured error for a context that is already done. The
// sentinel is chosen by the context's error: DeadlineExceeded maps to
// ErrDeadline, everything else to ErrCanceled.
func From(ctx context.Context) *Error {
	sentinel := ErrCanceled
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		sentinel = ErrDeadline
	}
	return &Error{sentinel: sentinel, cause: context.Cause(ctx)}
}

// Check polls the context and returns nil while it is live, or the
// structured *Error once it is done. A nil context never fails. The check
// is a non-blocking select on ctx.Done(), cheap enough for per-probe and
// per-level call sites; inner loops should amortize it over a counter (the
// fills check every few thousand entries).
func Check(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return From(ctx)
	default:
		return nil
	}
}
