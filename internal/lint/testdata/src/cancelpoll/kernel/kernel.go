// Package kernel is the fixture's hot inner loop: the target every
// solver-to-hotpath path must reach with a bounded poll stride.
package kernel

//lint:hotpath fixture DP fill kernel; loops here are the amortized unit itself
func Entry(xs []int64, i int) int64 {
	if i < 0 || i >= len(xs) {
		return 0
	}
	return xs[i] * 3
}

// A directive outside any function's doc comment marks no kernel, so it is
// reported rather than silently ignored.
//
//lint:hotpath floating directive // want "stray //lint:hotpath"
var scale = int64(2)
