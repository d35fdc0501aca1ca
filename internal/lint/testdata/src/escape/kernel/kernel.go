// Package kernel exercises the value-flow escape analyzer: an allocation
// site in a //lint:hotpath function is only a finding when its value
// escapes (or can never be stack-allocated at all); the same site kept
// local is free and must stay quiet. grow.go holds the append and boxing
// sites, which allocate whether or not anything escapes.
package kernel

import "errors"

var errEmpty = errors.New("empty input")

type point struct{ X, Y int64 }

var callbacks []func() int64

// Escaping returns its literal to the caller.
//
//lint:hotpath returned literal escapes
func Escaping(x, y int64) *point {
	return &point{X: x, Y: y} // want "composite literal escapes"
}

// Local keeps the literal on the stack.
//
//lint:hotpath stack-local literal is free
func Local(x, y int64) int64 {
	p := point{X: x, Y: y}
	return p.X + p.Y
}

// Dynamic sizes its scratch from a parameter; that alone defeats stack
// allocation, escaping or not.
//
//lint:hotpath non-constant make size
func Dynamic(n int) int64 {
	buf := make([]int64, n) // want "non-constant size defeats stack allocation"
	var s int64
	for i := range buf {
		s += int64(i)
	}
	return s
}

// Fixed uses a constant-size scratch that never leaves the function.
//
//lint:hotpath constant-size scratch stays on the stack
func Fixed(xs []int64) int64 {
	buf := make([]int64, 8)
	var s int64
	for i, x := range xs {
		buf[i&7] = x
		s += buf[i&7]
	}
	return s
}

// Register stores its closure into a package-level slice.
//
//lint:hotpath stored closure escapes
func Register(x int64) {
	fn := func() int64 { return x }   // want "closure escapes"
	callbacks = append(callbacks, fn) // want "append — it may grow the backing array"
}

// Apply only calls its closure locally; the closure value never leaves.
//
//lint:hotpath locally-invoked closure stays put
func Apply(xs []int64) int64 {
	step := func(a int64) int64 { return a + 1 }
	var s int64
	for _, x := range xs {
		s += step(x)
	}
	return s
}

// Dedup needs a map, and a map always allocates.
//
//lint:hotpath a map always allocates
func Dedup(xs []int64) int {
	seen := make(map[int64]bool, len(xs)) // want "a map always allocates"
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// Checked only allocates on the cold error bail-out; the cold-branch
// classifier keeps it quiet.
//
//lint:hotpath literal on the cold error path stays quiet
func Checked(xs []int64) (*point, error) {
	if len(xs) == 0 {
		return &point{}, errEmpty
	}
	return nil, nil
}
