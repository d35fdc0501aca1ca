// Package exper is the experiment harness that regenerates every figure and
// table of the paper's evaluation (Section V):
//
//   - Figures 2, 3, 4: average speedup of the parallel PTAS with respect to
//     the sequential PTAS (panel a) and to the IP/exact baseline (panel b),
//     plus running times (panel c), for (m=20,n=100), (m=10,n=50) and
//     (m=10,n=30) over the four uniform instance families.
//   - Tables II and III + Figure 5: actual approximation ratios of the
//     parallel PTAS, LPT and LS against the optimal makespan on best-case
//     and worst-case instance sets.
//
// Speedups are reported twice: measured wall clock (honest on whatever
// hardware runs the harness — meaningless on a single-core container) and
// simulated on the paper's Section IV cost model via package simsched,
// calibrated by the measured sequential fill time of the same tables.
package exper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/simsched"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// Config controls a harness run.
type Config struct {
	// Reps is the number of random instances per type; the paper uses 20.
	Reps int
	// Cores lists the worker counts to evaluate; the paper uses 2..16.
	Cores []int
	// Epsilon is the PTAS relative error; the paper uses 0.3.
	Epsilon float64
	// Seed is the base RNG seed; instance (type, rep) derives from it.
	Seed uint64
	// ExactNodeLimit caps the search nodes of each exact and IP solve, and
	// ExactTimeLimit puts a context deadline on each (0 = none; the tighter
	// of it and AlgoTimeout applies).
	ExactNodeLimit int64
	ExactTimeLimit time.Duration
	// AlgoTimeout bounds every individual algorithm invocation with a
	// context deadline (0 = unbounded). Timed-out cells are logged to
	// stderr and skipped or filled from the fallback/incumbent instead of
	// aborting the whole experiment.
	AlgoTimeout time.Duration
	// BarrierNs sets the simulated per-level barrier (0 = library default).
	BarrierNs float64
	// WallClock also measures real parallel runs per core count.
	WallClock bool
	// PaperFaithful switches the PTAS to the paper's own DP fills (the
	// recursive Algorithm 2 at 1 worker, the Parallel DP of Algorithm 3
	// with level scans otherwise, both with per-entry configuration
	// enumeration). Without it every run, wall-clock ones included, uses
	// the production fill, which runs on the run's workers only the slab
	// phases of tables with at least 2^16 units of fill work.
	PaperFaithful bool
	// SkipIP skips the exact baselines entirely (used by the scaled
	// speedup experiment, which studies DP scaling, not IP times).
	SkipIP bool
	// SkipIPBaseline skips only the assignment-formulation IP timing while
	// keeping the strong solver's certified optimum (used by the ratio
	// experiments, which need optima but not IP times).
	SkipIPBaseline bool
	// Out receives the rendered tables; nil means os.Stdout.
	Out io.Writer
	// CSV renders tables as CSV instead of aligned text.
	CSV bool
}

// DefaultConfig returns the harness defaults: the paper's eps and core
// range, 5 repetitions (pass 20 to match the paper's protocol exactly).
func DefaultConfig() Config {
	return Config{
		Reps:           5,
		Cores:          []int{1, 2, 4, 8, 16},
		Epsilon:        0.3,
		Seed:           2017,
		ExactTimeLimit: 30 * time.Second,
		WallClock:      true,
	}
}

func (cfg *Config) out() io.Writer {
	if cfg.Out != nil {
		return cfg.Out
	}
	return os.Stdout
}

// timeout returns the deadline of one invocation of the named algorithm
// (0 = none): AlgoTimeout, or ExactTimeLimit for the exact and IP solvers
// when it is set and tighter.
func (cfg *Config) timeout(name string) time.Duration {
	d := cfg.AlgoTimeout
	if (name == "exact" || name == "ip") && cfg.ExactTimeLimit > 0 && (d <= 0 || cfg.ExactTimeLimit < d) {
		d = cfg.ExactTimeLimit
	}
	return d
}

// algoCtx returns the context bounding one invocation of the named
// algorithm: ctx narrowed by its timeout when set, ctx unchanged otherwise.
// The harness never mints a root context; cancelling the context a Run*
// entry point was given aborts the whole experiment cooperatively.
func (cfg *Config) algoCtx(ctx context.Context, name string) (context.Context, context.CancelFunc) {
	if d := cfg.timeout(name); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// runAlgo dispatches one algorithm through the solver registry under the
// per-algorithm timeout, with variant capability checking (an instance using
// features the algorithm does not support fails fast with a typed error —
// see solver.Solve). A timed-out cell is logged to stderr; the caller still
// receives the fallback/incumbent schedule (when the algorithm provides one)
// next to the ErrCanceled-matching error and decides whether the cell is
// usable.
func (cfg *Config) runAlgo(ctx context.Context, name string, in *pcmax.Instance, opts solver.Options) (*pcmax.Schedule, solver.Report, error) {
	ctx, cancel := cfg.algoCtx(ctx, name)
	defer cancel()
	sched, rep, err := solver.Solve(ctx, name, in, opts)
	if err != nil && errors.Is(err, solver.ErrCanceled) {
		fmt.Fprintf(os.Stderr, "exper: %s timed out after %v on m=%d n=%d\n",
			name, cfg.timeout(name), in.M, in.N())
	}
	return sched, rep, err
}

// exactLimits packages the exact-solver node limit as registry options;
// runAlgo applies ExactTimeLimit.
func (cfg *Config) exactLimits() solver.Options {
	return solver.Options{Exact: solver.ExactOptions{NodeLimit: cfg.ExactNodeLimit}}
}

// ptasOptions packages the harness's PTAS configuration for registry
// dispatch. The LPT fallback is disabled so the measured schedule is the
// PTAS construction itself, as in the paper's protocol (the registry default
// would silently substitute LPT's schedule when it wins).
func (cfg *Config) ptasOptions(workers int) solver.Options {
	return solver.Options{PTAS: solver.PTASOptions{
		Epsilon:       cfg.Epsilon,
		Workers:       workers,
		PaperFaithful: cfg.PaperFaithful,
		NoLPTFallback: true,
	}}
}

func (cfg *Config) validate() error {
	if cfg.Reps < 1 {
		return fmt.Errorf("exper: Reps must be >= 1, got %d", cfg.Reps)
	}
	if cfg.Epsilon <= 0 {
		return fmt.Errorf("exper: Epsilon must be positive, got %v", cfg.Epsilon)
	}
	if len(cfg.Cores) == 0 {
		return fmt.Errorf("exper: Cores must not be empty")
	}
	for _, c := range cfg.Cores {
		if c < 1 {
			return fmt.Errorf("exper: core count %d < 1", c)
		}
	}
	return nil
}

// measurement holds everything the harness learns from one instance.
type measurement struct {
	seqSeconds   float64         // sequential PTAS wall clock
	wallSeconds  map[int]float64 // parallel PTAS wall clock per core count
	simSeconds   map[int]float64 // simulated parallel PTAS total per core count
	exactSeconds float64         // IP (assignment B&B) wall clock
	ipProven     bool            // IP baseline proved optimality within its limits
	exactProven  bool            // optimum certified (by either solver)

	optMakespan  pcmax.Time // exact (or best-known) makespan
	ptasMakespan pcmax.Time
	lptMakespan  pcmax.Time
	lsMakespan   pcmax.Time
}

// measure runs every solver on one instance under ctx.
func (cfg *Config) measure(ctx context.Context, in *pcmax.Instance) (*measurement, error) {
	m := &measurement{
		wallSeconds: make(map[int]float64),
		simSeconds:  make(map[int]float64),
	}

	// Sequential PTAS with profile collection (calibrates the simulator).
	// This is the one call that bypasses the registry: the Profile hook is
	// an internal instrumentation knob the public options don't expose. It
	// still runs under the per-algorithm timeout.
	profile := &simsched.Profile{}
	copts := core.Options{Epsilon: cfg.Epsilon, Workers: 1, Profile: profile, PaperFaithful: cfg.PaperFaithful}
	seqCtx, cancelSeq := cfg.algoCtx(ctx, "ptas")
	t0 := time.Now()
	seqSched, seqStats, err := core.Solve(seqCtx, in, copts)
	cancelSeq()
	if err != nil {
		return nil, fmt.Errorf("sequential PTAS: %w", err)
	}
	m.seqSeconds = time.Since(t0).Seconds()
	m.ptasMakespan = seqSched.Makespan(in)

	// Simulated parallel total time: sequential non-DP part plus the
	// simulated fill on P cores.
	nonDP := m.seqSeconds - seqStats.FillTime.Seconds()
	if nonDP < 0 {
		nonDP = 0
	}
	for _, c := range cfg.Cores {
		if profile.SeqFill > 0 && profile.TotalWork() > 0 {
			fill, err := simsched.Machine{Workers: c, BarrierNs: cfg.BarrierNs}.FillTime(profile)
			if err != nil {
				return nil, fmt.Errorf("simulate %d cores: %w", c, err)
			}
			m.simSeconds[c] = nonDP + fill.Seconds()
		} else {
			m.simSeconds[c] = m.seqSeconds
		}
	}

	// Measured wall-clock parallel runs (also verifies that the parallel
	// schedule matches the sequential one). A timed-out cell is logged by
	// runAlgo and skipped rather than failing the whole figure.
	if cfg.WallClock {
		for _, c := range cfg.Cores {
			parSched, parRep, err := cfg.runAlgo(ctx, "ptas", in, cfg.ptasOptions(c))
			if err != nil {
				if errors.Is(err, solver.ErrCanceled) {
					continue
				}
				return nil, fmt.Errorf("parallel PTAS (%d workers): %w", c, err)
			}
			m.wallSeconds[c] = parRep.Elapsed.Seconds()
			if got, want := parSched.Makespan(in), m.ptasMakespan; got != want {
				return nil, fmt.Errorf("parallel PTAS (%d workers) makespan %d != sequential %d", c, got, want)
			}
		}
	}

	// Classical baselines.
	for name, dst := range map[string]*pcmax.Time{"lpt": &m.lptMakespan, "ls": &m.lsMakespan} {
		_, rep, err := cfg.runAlgo(ctx, name, in, solver.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		*dst = rep.Makespan
	}

	if cfg.SkipIP {
		m.optMakespan = in.LowerBound() // reported but unused without IP
		return m, nil
	}

	// IP baseline timing (assignment-formulation branch-and-bound, the
	// shape the paper measured with CPLEX). A per-algorithm timeout leaves
	// the incumbent with ipProven = false, like a MIP time limit.
	limits := cfg.exactLimits()
	if !cfg.SkipIPBaseline {
		_, ipRep, err := cfg.runAlgo(ctx, "ip", in, limits)
		if err != nil && !errors.Is(err, solver.ErrCanceled) {
			return nil, fmt.Errorf("IP baseline: %w", err)
		}
		if ipRep.Exact == nil {
			return nil, fmt.Errorf("IP baseline: no result for m=%d n=%d", in.M, in.N())
		}
		m.exactSeconds = ipRep.Elapsed.Seconds()
		m.ipProven = ipRep.Exact.Optimal
		m.exactProven = ipRep.Exact.Optimal
		m.optMakespan = ipRep.Exact.Makespan
	}

	// Certified optimum for ratios from the strong combinatorial solver
	// (fast on all evaluation families).
	_, exRep, err := cfg.runAlgo(ctx, "exact", in, limits)
	if err != nil && !errors.Is(err, solver.ErrCanceled) {
		return nil, fmt.Errorf("exact: %w", err)
	}
	if exRep.Exact == nil {
		return nil, fmt.Errorf("exact: no result for m=%d n=%d", in.M, in.N())
	}
	res := exRep.Exact
	if m.optMakespan == 0 || res.Makespan < m.optMakespan || res.Optimal {
		m.optMakespan = res.Makespan
	}
	if res.Optimal {
		m.exactProven = true
	}
	return m, nil
}

// specFor derives the deterministic instance spec of one (family, rep) cell.
func (cfg *Config) specFor(fam workload.Family, m, n, rep int) workload.Spec {
	return workload.Spec{Family: fam, M: m, N: n, Seed: cfg.Seed + uint64(rep)*1000003}
}
