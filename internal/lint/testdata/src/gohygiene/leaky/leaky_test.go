package leaky

import "testing"

// Tests may start goroutines: gohygiene reads non-test files only.
func TestSpawn(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	Spawn(func() {})
}
