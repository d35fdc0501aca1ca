// Package solver holds entry points on the cancellation path: exported
// functions taking a context that reach the //lint:hotpath kernel. Every
// loop on that path must poll cancellation with a provably bounded stride.
package solver

import (
	"context"

	"example.com/cancelpoll/kernel"
)

const checkEvery = 1 << 15

// SolveBad never polls: a canceled solve runs to completion.
func SolveBad(ctx context.Context, xs []int64) int64 {
	var total int64
	for i := range xs { // want "never polls for cancellation"
		total += kernel.Entry(xs, i)
	}
	return total
}

// SolveBudget polls through the repo's countdown idiom: the budget is reset
// to the constant checkEvery, so the stride is 2^15.
func SolveBudget(ctx context.Context, xs []int64) (int64, error) {
	done := ctx.Done()
	budget := int64(checkEvery)
	var total int64
	for i := range xs {
		total += kernel.Entry(xs, i)
		budget--
		if budget <= 0 {
			select {
			case <-done:
				return total, ctx.Err()
			default:
			}
			budget = checkEvery
		}
	}
	return total, nil
}

// SolveModulo polls on an i%K == 0 stride guard.
func SolveModulo(ctx context.Context, xs []int64) int64 {
	var total int64
	for i := 0; i < len(xs); i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return total
			}
		}
		total += kernel.Entry(xs, i)
	}
	return total
}

// SolveMask polls on an i&(K-1) == 0 mask guard.
func SolveMask(ctx context.Context, xs []int64) int64 {
	var total int64
	for i := 0; i < len(xs); i++ {
		if i&1023 == 0 {
			if ctx.Err() != nil {
				return total
			}
		}
		total += kernel.Entry(xs, i)
	}
	return total
}

// SolveHuge polls, but 2^20 iterations apart: beyond the latency bound.
func SolveHuge(ctx context.Context, xs []int64) int64 {
	var total int64
	for i := 0; i < len(xs); i++ { // want "only every 1048576 iterations"
		if i%(1<<20) == 0 {
			if ctx.Err() != nil {
				return total
			}
		}
		total += kernel.Entry(xs, i)
	}
	return total
}

// SolveOpaque guards its poll with a condition that has no constant
// stride.
func SolveOpaque(ctx context.Context, xs []int64, verbose bool) int64 {
	var total int64
	for i := range xs { // want "cannot bound the cancellation poll stride"
		if verbose {
			if ctx.Err() != nil {
				return total
			}
		}
		total += kernel.Entry(xs, i)
	}
	return total
}

// SolveDelegate delegates both the kernel call and the poll to a helper
// that polls on every invocation.
func SolveDelegate(ctx context.Context, xs []int64) int64 {
	var total int64
	for i := range xs {
		total += step(ctx, xs, i)
	}
	return total
}

// step polls unconditionally, so callers inherit a stride-1 poll.
func step(ctx context.Context, xs []int64, i int) int64 {
	if ctx.Err() != nil {
		return 0
	}
	return kernel.Entry(xs, i)
}
