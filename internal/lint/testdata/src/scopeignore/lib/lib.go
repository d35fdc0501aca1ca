// Package lib pins down suppression scoping: one line triggers two
// analyzers, the directive names exactly one of them, and only that one
// goes quiet.
package lib

import "context"

// Serve's go statement starts a goroutine outside internal/par (gohygiene)
// and mints a root context in library code (ctxfirst). The directive
// suppresses gohygiene alone; the ctxfirst finding on the same line must
// survive.
func Serve(f func(context.Context)) {
	//lint:ignore gohygiene the fixture wants only the goroutine finding silenced-by-name
	go f(context.Background())
}
