// Package joined pairs every spawn with a barrier, which does not exempt
// it: outside internal/par no goroutine is started at all.
package joined

import "sync"

// Fan joins through a WaitGroup.
func Fan(fs []func()) {
	var wg sync.WaitGroup
	for _, f := range fs {
		wg.Add(1)
		go func() { // want "go statement outside internal/par"
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// Pipe joins by receiving the result.
func Pipe(f func() int) int {
	ch := make(chan int, 1)
	go func() { ch <- f() }() // want "go statement outside internal/par"
	return <-ch
}
