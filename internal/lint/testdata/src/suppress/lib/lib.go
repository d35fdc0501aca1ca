// Package lib exercises the //lint:ignore directive forms. The expectations
// live in lint_test.go's TestSuppression rather than want comments, because
// the malformed-directive findings land on the directive lines themselves.
package lib

// Detach is a fire-and-forget helper whose leak is deliberate.
func Detach(f func()) {
	//lint:ignore gohygiene deliberate fire-and-forget; joined by process lifetime
	go f()
}

// DetachTrailing suppresses on the same line.
func DetachTrailing(f func()) {
	go f() //lint:ignore gohygiene deliberate fire-and-forget; joined by process lifetime
}

// NoReason shows a directive missing its reason: the directive is reported
// and the finding it meant to silence survives.
func NoReason(f func()) {
	//lint:ignore gohygiene
	go f()
}

// WrongCheck shows a directive naming an unknown check.
func WrongCheck(f func()) {
	//lint:ignore nosuchcheck because reasons
	go f()
}

// Stale carries a well-formed directive that suppresses nothing: the call
// below it starts no goroutine, so gohygiene never fires and the directive
// is dead weight, reported as a stale lintdirective finding.
func Stale(f func()) {
	f()
	//lint:ignore gohygiene this excuse outlived the finding it excused
	f()
}
