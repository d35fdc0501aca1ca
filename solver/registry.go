package solver

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cancel"
	"repro/pcmax"
)

// Options aggregates the per-algorithm option structs for registry dispatch.
// Only the struct matching the selected algorithm is consulted; the zero
// value is usable for every algorithm (PTAS takes DefaultPTASOptions'
// epsilon when Options.PTAS.Epsilon is unset).
type Options struct {
	PTAS  PTASOptions
	Exact ExactOptions
	Sahni SahniOptions
	TR    TROptions
}

// Report is the uniform outcome record every registered algorithm returns:
// which algorithm ran, what makespan it achieved and how long it took, plus
// the algorithm-specific detail when there is one.
type Report struct {
	// Algorithm is the registry name of the algorithm that produced the
	// schedule.
	Algorithm string
	// Makespan of the returned schedule; 0 when no schedule was produced.
	Makespan pcmax.Time
	// Elapsed is the wall-clock duration of the Solve call.
	Elapsed time.Duration
	// Interrupted reports that the context died before the algorithm
	// finished. The schedule (when non-nil) is the best fallback/incumbent,
	// without the algorithm's usual guarantee.
	Interrupted bool

	// PTAS carries the PTAS run statistics ("ptas" only).
	PTAS *PTASStats
	// Exact carries the branch-and-bound outcome ("exact", "ip" and "brute"
	// only).
	Exact *ExactResult
	// TR carries the time-restricted bisection statistics ("ptas-tr" only).
	TR *TRStats
}

// Algorithm is the uniform interface every scheduling algorithm in the
// repository implements for named dispatch. Solve must honor ctx
// cooperatively and report interruptions through the returned error
// (matching ErrCanceled) and Report.Interrupted.
type Algorithm interface {
	Name() string
	Solve(ctx context.Context, in *pcmax.Instance, opts Options) (*pcmax.Schedule, Report, error)
}

// Registry maps algorithm names to implementations. All ten algorithms are
// registered at init: "ls", "lpt", "multifit", "ptas", "ptas-sparse",
// "exact", "ip", "sahni", "ptas-tr" and "brute". Callers may add their own
// algorithms under fresh names; an algorithm that also implements
// VariantCapable declares support for instance-model features beyond plain
// P||Cmax (see variants.go), and the Solve helper enforces those capability
// sets on dispatch.
var Registry = map[string]Algorithm{}

// Register adds an algorithm to Registry; it panics on a duplicate name,
// which is a programming error.
func Register(a Algorithm) {
	if _, dup := Registry[a.Name()]; dup {
		panic(fmt.Sprintf("solver: duplicate algorithm %q", a.Name()))
	}
	Registry[a.Name()] = a
}

// Lookup resolves an algorithm by name, with an error that lists the
// registered names on a miss.
func Lookup(name string) (Algorithm, error) {
	a, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("solver: unknown algorithm %q (have %v)", name, Names())
	}
	return a, nil
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// algo adapts a plain solve function to the Algorithm interface, stamping
// the uniform Report fields (name, makespan, elapsed, interruption) and
// enforcing the declared variant capability set.
type algo struct {
	name string
	caps pcmax.Variant
	fn   func(ctx context.Context, in *pcmax.Instance, opts Options, rep *Report) (*pcmax.Schedule, error)
}

func (a algo) Name() string { return a.name }

// Capabilities implements VariantCapable.
func (a algo) Capabilities() pcmax.Variant { return a.caps }

func (a algo) Solve(ctx context.Context, in *pcmax.Instance, opts Options) (*pcmax.Schedule, Report, error) {
	rep := Report{Algorithm: a.name}
	if err := checkVariant(a, in); err != nil {
		return nil, rep, err
	}
	t0 := time.Now()
	sched, err := a.fn(ctx, in, opts, &rep)
	rep.Elapsed = time.Since(t0)
	if err != nil && cancel.Check(ctx) != nil {
		rep.Interrupted = true
	}
	if sched != nil {
		rep.Makespan = sched.Makespan(in)
	}
	return sched, rep, err
}

// ptasOptions resolves the effective PTAS options for registry dispatch: a
// zero Epsilon selects the default epsilon so the zero Options value works;
// every other option is the caller's.
func ptasOptions(opts Options) PTASOptions {
	p := opts.PTAS
	if p.Epsilon == 0 {
		p.Epsilon = DefaultPTASOptions().Epsilon
	}
	return p
}

// exactInterruption surfaces a context interruption of the exact solvers as
// a structured error: the solvers themselves keep their MIP-style contract
// (incumbent, Optimal == false, nil error), so the registry — whose callers
// select algorithms uniformly and need a uniform interruption signal —
// re-derives the error from ctx when the proof did not finish.
func exactInterruption(ctx context.Context, res ExactResult) error {
	if res.Optimal {
		return nil
	}
	if err := cancel.Check(ctx); err != nil {
		return err
	}
	return nil
}

func init() {
	Register(algo{name: "ls", caps: pcmax.AllVariants,
		fn: func(ctx context.Context, in *pcmax.Instance, _ Options, _ *Report) (*pcmax.Schedule, error) {
			return LS(ctx, in)
		}})
	Register(algo{name: "lpt", caps: pcmax.AllVariants,
		fn: func(ctx context.Context, in *pcmax.Instance, _ Options, _ *Report) (*pcmax.Schedule, error) {
			return LPT(ctx, in)
		}})
	Register(algo{name: "multifit",
		fn: func(ctx context.Context, in *pcmax.Instance, _ Options, _ *Report) (*pcmax.Schedule, error) {
			return MultiFit(ctx, in)
		}})
	Register(algo{name: "ptas",
		fn: func(ctx context.Context, in *pcmax.Instance, opts Options, rep *Report) (*pcmax.Schedule, error) {
			sched, st, err := PTAS(ctx, in, ptasOptions(opts))
			rep.PTAS = st
			return sched, err
		}})
	Register(algo{name: "ptas-sparse",
		fn: func(ctx context.Context, in *pcmax.Instance, opts Options, rep *Report) (*pcmax.Schedule, error) {
			popts := ptasOptions(opts)
			popts.Sparsify = true
			sched, st, err := PTAS(ctx, in, popts)
			rep.PTAS = st
			return sched, err
		}})
	Register(algo{name: "exact",
		fn: func(ctx context.Context, in *pcmax.Instance, opts Options, rep *Report) (*pcmax.Schedule, error) {
			sched, res, err := Exact(ctx, in, opts.Exact)
			if err != nil {
				return nil, err
			}
			rep.Exact = &res
			return sched, exactInterruption(ctx, res)
		}})
	Register(algo{name: "ip",
		fn: func(ctx context.Context, in *pcmax.Instance, opts Options, rep *Report) (*pcmax.Schedule, error) {
			sched, res, err := ExactIP(ctx, in, opts.Exact)
			if err != nil {
				return nil, err
			}
			rep.Exact = &res
			return sched, exactInterruption(ctx, res)
		}})
	Register(algo{name: "sahni",
		fn: func(ctx context.Context, in *pcmax.Instance, opts Options, _ *Report) (*pcmax.Schedule, error) {
			return Sahni(ctx, in, opts.Sahni)
		}})
}
