// Package lib produces a small, stable finding set for the golden-output
// test: a malformed suppression directive and one go statement outside
// internal/par.
package lib

//lint:ignore maporder
func Spin() {
	go func() {
		for {
		}
	}()
}
