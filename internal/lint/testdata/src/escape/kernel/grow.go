package kernel

// The sites escape reports whether or not anything escapes: append may grow
// its backing array, and interface boxing allocates at the conversion or
// the call itself.

import "errors"

var errBad = errors.New("bad")

// Leaky is marked hot and allocates three ways no escape cause is needed
// for.
//
//lint:hotpath exercised by the fixture
func Leaky(dst []int, n int) []int {
	dst = append(dst, n) // want "append — it may grow the backing array"
	sink(n)              // want "interface argument — boxing a concrete value"
	_ = interface{}(n)   // want "interface conversion — boxing a concrete value"
	return dst
}

func sink(v interface{}) { _ = v }

// Sum is hot and clean: index loops, no boxing. Passing one interface to
// another interface parameter does not box.
//
//lint:hotpath regression guard for the clean shape
func Sum(xs []int, sel interface{}) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	sink(sel)
	return total
}

// ColdBail is hot, but its only allocations sit on the error bail-out: the
// append and the boxing argument run at most once, right before the function
// gives up, so the cold-branch classifier must keep them quiet.
//
//lint:hotpath regression guard for cold error branches
func ColdBail(xs []int, n int) ([]int, error) {
	if n < 0 {
		xs = append(xs, n)
		sink(n)
		return nil, errBad
	}
	for i := 0; i < n && i < len(xs); i++ {
		xs[i] = n
	}
	return xs, nil
}

// Cold allocates freely without the directive; not the analyzer's business.
func Cold(n int) []int {
	return append(make([]int, 0, n), n)
}

//lint:hotpath floating directive // want "stray //lint:hotpath"
var coldVar = 3
