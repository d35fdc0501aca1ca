// Package leaky spawns goroutines it never joins.
package leaky

// Spawn leaks a goroutine. Its doc mentions nothing.
func Spawn(f func()) {
	go f() // want "go statement outside internal/par"
}
