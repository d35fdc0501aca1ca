// Package lib produces a small, stable finding set for the golden-output
// test: a malformed suppression directive and one go statement that trips
// both the join check and the termination check.
package lib

//lint:ignore maporder
func Spin() {
	go func() {
		for {
		}
	}()
}
