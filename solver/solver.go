// Package solver is the public API of the library: one-call access to every
// scheduling algorithm in the repository.
//
//   - LS: Graham's list scheduling, 2-approximation.
//   - LPT: longest processing time, 4/3-approximation.
//   - MultiFit: Coffman–Garey–Johnson MF algorithm.
//   - PTAS: the Hochbaum–Shmoys (1+eps)-approximation scheme, sequential or
//     parallel (the paper's contribution) depending on Workers.
//   - Exact: optimal makespan by branch-and-bound (the paper's CPLEX "IP"
//     baseline).
//   - ExactIP: branch-and-bound over the assignment IP formulation.
//   - Sahni: fixed-m dynamic programming (exact or FPTAS-grade).
//
// All functions validate their inputs and never panic on bad instances.
//
// # Deadlines and cancellation
//
// Every entry point takes a context.Context and honors it cooperatively all
// the way down — inside DP table fills, between branch-and-bound nodes,
// between capacity probes — so an abort lands within milliseconds, not after
// the current phase. Use context.WithTimeout for request deadlines. An
// interrupted solve returns an error matching ErrCanceled (and ErrDeadline
// when a deadline caused it); PTAS additionally degrades gracefully,
// returning plain LPT's schedule next to the error so callers still get a
// valid (if unguaranteed) answer. The exact solvers have no time option: a
// deadline on ctx is their time limit.
//
// The named-dispatch layer lives in registry.go: every algorithm is also
// reachable through Registry by name via the uniform Algorithm interface.
package solver

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/listsched"
	"repro/internal/multifit"
	"repro/internal/sahni"
	"repro/pcmax"
)

// Structured cancellation sentinels, re-exported from the internal cancel
// vocabulary so callers can test errors.Is without reaching into internals.
var (
	// ErrCanceled matches every context-interrupted solve.
	ErrCanceled = cancel.ErrCanceled
	// ErrDeadline matches solves interrupted by a context deadline; it
	// wraps ErrCanceled.
	ErrDeadline = cancel.ErrDeadline
)

// Interruption is the structured error carried by interrupted solves; use
// errors.As to recover the partial progress (bisection iterations completed,
// DP entries filled) an interrupted PTAS had made.
type Interruption = cancel.Error

// LS runs Graham's list scheduling in job input order. It accepts every
// instance variant: on non-plain instances the priority list is unchanged and
// each job goes to the machine completing it earliest under release, setup
// and window semantics (see internal/listsched). Plain instances take the
// classic code path and schedules are bit-identical to before the variant
// model existed.
func LS(ctx context.Context, in *pcmax.Instance) (*pcmax.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := cancel.Check(ctx); err != nil {
		return nil, err
	}
	return listsched.LSGeneral(in)
}

// LPT runs Graham's longest-processing-time algorithm. Like LS it accepts
// every instance variant, choosing the earliest-completion machine for each
// job of the LPT priority list; plain instances take the classic code path
// unchanged.
func LPT(ctx context.Context, in *pcmax.Instance) (*pcmax.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := cancel.Check(ctx); err != nil {
		return nil, err
	}
	return listsched.LPTGeneral(in)
}

// MultiFit runs the MF algorithm with the capacity search at full
// convergence. ctx is checked between capacity probes.
func MultiFit(ctx context.Context, in *pcmax.Instance) (*pcmax.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return multifit.Solve(ctx, in)
}

// PTASOptions configures PTAS. The zero value is invalid (Epsilon must be
// positive); start from DefaultPTASOptions.
type PTASOptions struct {
	// Epsilon is the relative error of the scheme; the schedule's makespan
	// is at most (1+Epsilon) times optimal (for coarse epsilons this relies
	// on the default LPT fallback — integer rounding otherwise leaves a
	// small additive slack; see ALGORITHM.md §2). The paper evaluates 0.3.
	Epsilon float64
	// Workers is the number of DP workers; values below 1 select
	// GOMAXPROCS. Above 1, the production fill runs the slab phases of
	// large tables (at least 2^16 units of fill work) on that many
	// goroutines and smaller tables on the caller; under PaperFaithful the
	// Parallel DP runs on them. Every variant produces the same schedule.
	Workers int
	// ShortJobsLS switches the short-job placement from the paper's LPT
	// rule to the original Hochbaum–Shmoys LS rule.
	ShortJobsLS bool
	// PaperFaithful fills every faithful DP table with the paper's own
	// algorithms, with per-entry configuration enumeration: the recursive
	// memoized DP (Algorithm 2) at Workers == 1, and the Parallel DP
	// (Algorithm 3) with per-level full table scans otherwise. The pruned
	// tables of a Sparsify solve keep the production fill, which is also the
	// default for every table: the config-outer sweep, slab-parallel on
	// large tables at Workers > 1. Schedules are identical; only the time
	// differs.
	PaperFaithful bool
	// MaxTableEntries caps the DP table size; <= 0 uses the library default
	// (1<<25 entries). The PTAS fails with a descriptive error when an
	// instance/epsilon combination would exceed it.
	MaxTableEntries int64
	// NoLPTFallback disables returning plain LPT's schedule when it beats
	// the PTAS construction. The fallback (on by default through
	// DefaultPTASOptions) never hurts and is what makes the stated
	// guarantee robust for coarse epsilons under integer rounding; disable
	// only for paper-faithful measurements.
	NoLPTFallback bool
	// Sparsify enables the sparsified DP pipeline (the "ptas-sparse"
	// registry algorithm): geometric grouping of the rounded size classes
	// plus a support-bounded, dominance-pruned configuration enumeration
	// shrink every bisection probe's DP. The (1+eps) guarantee is preserved
	// by construction-time verification: the driver certifies the converged
	// target against the faithful enumeration and gate-checks the measured
	// makespan, transparently re-solving faithfully when either fails
	// (PTASStats.SparseCertified, PTASStats.SparseFallback).
	Sparsify bool
}

// DefaultPTASOptions mirrors the paper's experimental configuration:
// eps = 0.3 and sequential execution. Small epsilons can take
// super-exponential time, so production callers should bound the solve
// with a context deadline.
func DefaultPTASOptions() PTASOptions {
	return PTASOptions{Epsilon: 0.3, Workers: 1}
}

// PTASStats reports what one PTAS run did: bisection iterations, final
// target makespan, table dimensions, fill time, which fallbacks fired. It is
// the driver's own statistics record; see core.Stats for every field.
type PTASStats = core.Stats

// PTAS runs the (1+eps)-approximation scheme. At opts.Workers != 1 its DP
// fills run on a pool: the production fill's slab phases, or the paper's
// parallel DP when opts.PaperFaithful is set.
//
// When ctx is canceled (or its deadline expires) mid-solve, PTAS degrades
// gracefully: it returns plain LPT's schedule (non-nil, valid, without the
// (1+eps) guarantee), the partial stats, and an error matching
// ErrCanceled/ErrDeadline that carries the progress made (see
// Interruption).
func PTAS(ctx context.Context, in *pcmax.Instance, opts PTASOptions) (*pcmax.Schedule, *PTASStats, error) {
	// On cancellation core.Solve already degraded to the LPT fallback
	// schedule; pass it through next to the structured error.
	return core.Solve(ctx, in, coreOptions(opts))
}

// coreOptions maps the public PTAS options onto the internal driver's
// configuration. Shared by the cold path (PTAS) and the warm path
// (Session.SolveDelta), which additionally threads its persistent cache and
// warm bracket through the returned value.
func coreOptions(opts PTASOptions) core.Options {
	copts := core.Options{
		Epsilon:         opts.Epsilon,
		Workers:         opts.Workers,
		PaperFaithful:   opts.PaperFaithful,
		MaxTableEntries: opts.MaxTableEntries,
		LPTFallback:     !opts.NoLPTFallback,
		Sparsify:        opts.Sparsify,
	}
	if opts.ShortJobsLS {
		copts.ShortRule = core.ShortLS
	}
	return copts
}

// ExactOptions bounds the exact solver.
type ExactOptions struct {
	// NodeLimit caps search nodes; <= 0 uses the library default.
	NodeLimit int64
	// Workers > 1 parallelizes each feasibility probe by racing the
	// first-bin subtrees across that many goroutines (an extension in the
	// paper's future-work direction). The optimal makespan is unchanged;
	// only wall-clock time and the specific optimal schedule may differ.
	Workers int
}

// ExactResult reports the exact solve outcome: the makespan, whether it is
// proved optimal (false when a limit interrupted the proof; the schedule is
// then the best incumbent found), the nodes searched and the lower bound.
type ExactResult = exact.Result

// Exact computes an optimal schedule by branch-and-bound (the repository's
// substitute for the paper's CPLEX IP baseline). A context cancellation
// behaves like a MIP solver's time limit: the best incumbent is returned
// with Optimal == false and a nil error.
func Exact(ctx context.Context, in *pcmax.Instance, opts ExactOptions) (*pcmax.Schedule, ExactResult, error) {
	return exact.SolveParallel(ctx, in, exact.Options{NodeLimit: opts.NodeLimit}, opts.Workers)
}

// ExactIP solves the instance with a branch-and-bound over the assignment
// formulation of the problem's integer program — the search a MIP solver
// performs on the paper's IP model, with only the LP-relaxation bound. It is
// the repository's stand-in for the paper's CPLEX baseline: expect running
// times that vary wildly across instance families, exactly as the paper
// reports for CPLEX. For a certified optimum use Exact, which is uniformly
// stronger. Cancellation semantics match Exact's (incumbent, Optimal ==
// false, nil error).
func ExactIP(ctx context.Context, in *pcmax.Instance, opts ExactOptions) (*pcmax.Schedule, ExactResult, error) {
	return exact.SolveAssignment(ctx, in, exact.Options{NodeLimit: opts.NodeLimit})
}

// SahniOptions configures Sahni, the fixed-m dynamic-programming scheme
// from the paper's related work: Epsilon 0 is exact, > 0 a
// (1+Epsilon)-approximation; MaxStates and MaxMachines bound the state set
// and m (<= 0 selects the library defaults). See sahni.Options.
type SahniOptions = sahni.Options

// Sahni schedules the instance with Sahni's fixed-m dynamic program: exact
// for Epsilon == 0, a (1+Epsilon)-approximation otherwise. Complementary to
// PTAS: use it when m is small and certified optimality (or an FPTAS-grade
// guarantee) matters more than scaling in m. ctx is checked once per job
// sweep and within large sweeps; a cancellation surfaces as an error
// matching ErrCanceled.
func Sahni(ctx context.Context, in *pcmax.Instance, opts SahniOptions) (*pcmax.Schedule, error) {
	return sahni.Solve(ctx, in, opts)
}
