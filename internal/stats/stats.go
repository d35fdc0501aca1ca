// Package stats provides the small reporting toolkit used by the experiment
// harness: the mean over repetition sets, float formatting and
// fixed-width/CSV table rendering.
package stats

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
