package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/exact"
	"repro/internal/trsched"
	"repro/pcmax"
)

// This file is the variant-dispatch layer of the registry: per-algorithm
// capability sets over pcmax.Variant, the typed error for capability misses,
// the Solve helper that routes an instance to a named algorithm only when the
// algorithm supports the instance's variant, and the variant-capable
// algorithms themselves ("ptas-tr", "brute", and the generalized "ls"/"lpt").

// ErrUnsupportedVariant matches every capability miss: the selected algorithm
// does not support some feature (release times, setup times, availability
// windows) the instance uses. The concrete error is a *VariantError.
var ErrUnsupportedVariant = errors.New("solver: algorithm does not support the instance variant")

// VariantError reports which algorithm rejected which instance variant; it
// unwraps to ErrUnsupportedVariant.
type VariantError struct {
	// Algorithm is the registry name of the rejecting algorithm.
	Algorithm string
	// Variant is the instance's variant.
	Variant pcmax.Variant
	// Supported is the algorithm's capability set.
	Supported pcmax.Variant
}

func (e *VariantError) Error() string {
	return fmt.Sprintf("solver: algorithm %q supports only %s instances, got %s",
		e.Algorithm, e.Supported, e.Variant)
}

func (e *VariantError) Unwrap() error { return ErrUnsupportedVariant }

// VariantCapable is the optional interface an Algorithm implements to declare
// support for instance-model features beyond plain P||Cmax. Algorithms that
// do not implement it are treated as plain-only.
type VariantCapable interface {
	// Capabilities returns the set of feature bits the algorithm handles.
	Capabilities() pcmax.Variant
}

// capabilitiesOf resolves an algorithm's capability set; plain-only when the
// algorithm does not declare one.
func capabilitiesOf(a Algorithm) pcmax.Variant {
	if vc, ok := a.(VariantCapable); ok {
		return vc.Capabilities()
	}
	return pcmax.Plain
}

// Capabilities returns the registered algorithm's variant capability set.
func Capabilities(name string) (pcmax.Variant, error) {
	a, err := Lookup(name)
	if err != nil {
		return 0, err
	}
	return capabilitiesOf(a), nil
}

// checkVariant rejects instances whose variant uses features outside the
// algorithm's capability set.
func checkVariant(a Algorithm, in *pcmax.Instance) error {
	v := in.Variant()
	caps := capabilitiesOf(a)
	if v&^caps != 0 {
		return &VariantError{Algorithm: a.Name(), Variant: v, Supported: caps}
	}
	return nil
}

// Solve dispatches the instance to the named algorithm, enforcing the
// algorithm's variant capability set: an instance using features the
// algorithm does not support fails fast with a *VariantError (matching
// ErrUnsupportedVariant) instead of being solved under the wrong semantics.
// This is the intended entry point for name-driven callers (CLIs, benchmark
// harnesses); it covers externally registered algorithms too.
func Solve(ctx context.Context, name string, in *pcmax.Instance, opts Options) (*pcmax.Schedule, Report, error) {
	a, err := Lookup(name)
	if err != nil {
		return nil, Report{}, err
	}
	if verr := checkVariant(a, in); verr != nil {
		return nil, Report{Algorithm: a.Name()}, verr
	}
	return a.Solve(ctx, in, opts)
}

// CapableNames returns the sorted names of registered algorithms whose
// capability sets cover the variant.
func CapableNames(v pcmax.Variant) []string {
	var names []string
	for n, a := range Registry {
		if v&^capabilitiesOf(a) == 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// DefaultAlgorithm picks the registry algorithm best suited to the variant:
// the guaranteed approximation scheme when one applies ("ptas" on plain
// instances, "ptas-tr" on setup/window instances), the generalized LPT greedy
// otherwise.
func DefaultAlgorithm(v pcmax.Variant) string {
	switch {
	case v == pcmax.Plain:
		return "ptas"
	case v&^trsched.Capabilities == 0:
		return "ptas-tr"
	default:
		return "lpt"
	}
}

// TROptions configures TimeRestricted (registry name "ptas-tr"), the
// bisection solver for instances with availability windows and setup times.
// The zero value selects the library defaults.
type TROptions struct {
	// Epsilon is the grouped-mode rounding coarseness (sizes round up to
	// multiples of max(1, eps*T/4) when the instance has too many distinct
	// sizes for exact mode); 0 selects the default 0.3. Exact mode ignores
	// it.
	Epsilon float64
	// MaxStates caps the per-probe machine-DP state space; <= 0 uses
	// trsched.DefaultMaxStates.
	MaxStates int64
	// MaxDistinctExact is the distinct-size threshold below which exact mode
	// runs; <= 0 uses trsched.DefaultMaxDistinctExact.
	MaxDistinctExact int
}

// DefaultTROptions mirrors the PTAS default coarseness.
func DefaultTROptions() TROptions { return TROptions{Epsilon: 0.3} }

// TRStats reports what one TimeRestricted run did: bisection probes, the
// initial bracket, the final target, the final probe's configurations,
// states and size classes, and which mode and fallback applied. It is the
// solver's own statistics record; see trsched.Stats for every field.
type TRStats = trsched.Stats

// trOptions resolves the effective TR options so the zero value works.
func trOptions(opts TROptions) trsched.Options {
	if opts.Epsilon == 0 {
		opts.Epsilon = DefaultTROptions().Epsilon
	}
	return trsched.Options{
		Epsilon:          opts.Epsilon,
		MaxStates:        opts.MaxStates,
		MaxDistinctExact: opts.MaxDistinctExact,
	}
}

// TimeRestricted schedules an instance with availability windows and/or
// machine setup times by bisection over the target makespan, certifying each
// probe with configuration enumeration, per-machine window packing and a
// machine-covering dynamic program (see internal/trsched). With few distinct
// job sizes the result is a certified optimum (TRStats.Exact); otherwise the
// sizes are rounded and the result is a certified upper bound no worse than
// generalized LPT. Plain instances are accepted (the solver degenerates to
// an exact plain bisection); release times are not.
func TimeRestricted(ctx context.Context, in *pcmax.Instance, opts TROptions) (*pcmax.Schedule, *TRStats, error) {
	sched, st, err := trsched.Solve(ctx, in, trOptions(opts))
	return sched, &st, err
}

// BruteForceVariant computes a certified-optimal schedule for any instance
// variant by exhaustive search (registry name "brute"). It is a small-n test
// oracle — the reference optimum for the variant guarantee tests — not a
// production solver; see exact.BruteForceMaxJobs.
func BruteForceVariant(ctx context.Context, in *pcmax.Instance) (*pcmax.Schedule, ExactResult, error) {
	return exact.BruteForceVariant(ctx, in)
}

func init() {
	Register(algo{name: "ptas-tr", caps: trsched.Capabilities,
		fn: func(ctx context.Context, in *pcmax.Instance, opts Options, rep *Report) (*pcmax.Schedule, error) {
			sched, st, err := TimeRestricted(ctx, in, opts.TR)
			rep.TR = st
			return sched, err
		}})
	Register(algo{name: "brute", caps: pcmax.AllVariants,
		fn: func(ctx context.Context, in *pcmax.Instance, _ Options, rep *Report) (*pcmax.Schedule, error) {
			sched, res, err := BruteForceVariant(ctx, in)
			if err != nil {
				return nil, err
			}
			rep.Exact = &res
			return sched, nil
		}})
}
