package solver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/pcmax"
)

// This file implements incremental solving: a Session owns the last accepted
// solution, a certified lower bound on its optimum, and a persistent DP
// cache, and re-solves after instance mutations through three stacked fast
// paths instead of from scratch. It is the ROADMAP's "online/incremental
// solving" item: the serving workload (jobs arrive, finish, get cancelled)
// pays for a delta, not a cold solve.

// ErrBadDelta matches malformed SolveDelta mutations: a removal index out of
// range or repeated, or a non-positive added processing time.
var ErrBadDelta = errors.New("solver: invalid delta")

// ErrNoSolution matches Session calls that need a current solution (e.g.
// Schedule) before any Solve/SolveDelta succeeded.
var ErrNoSolution = errors.New("solver: session has no accepted solution yet")

// sessionAlgorithmName is the name *VariantError reports for Session's
// capability gate. Session drives the plain-instance PTAS pipeline, so its
// capability set is pcmax.Plain.
const sessionAlgorithmName = "session"

// SessionOptions configures a Session. The zero value is invalid (the
// embedded PTAS options need a positive Epsilon); start from
// DefaultSessionOptions.
type SessionOptions struct {
	// PTAS configures the underlying scheme: Epsilon sets both the solve
	// guarantee and the repair acceptance certificate.
	PTAS PTASOptions
	// RepairFraction bounds the LPT-repair fast path: the repair is
	// attempted only when the mutation touches at most
	// max(1, RepairFraction*n) jobs (n after the mutation). 0 selects the
	// default 0.25; negative disables the repair path entirely (every delta
	// goes to the warm bisection).
	RepairFraction float64
}

// DefaultSessionOptions returns the default incremental configuration: the
// default PTAS options and repair attempted for deltas up to a quarter of
// the instance.
func DefaultSessionOptions() SessionOptions {
	return SessionOptions{PTAS: DefaultPTASOptions(), RepairFraction: 0.25}
}

// DeltaPath identifies which fast path produced a SolveDelta result.
type DeltaPath int

const (
	// DeltaCold is a full cold solve (first Solve, or a delta that fell
	// through every fast path restart).
	DeltaCold DeltaPath = iota
	// DeltaRepair accepted the LPT-repaired previous schedule: the repaired
	// makespan was within the (1+eps) certificate of the updated lower
	// bound, so no bisection ran at all.
	DeltaRepair
	// DeltaWarm ran the bisection warm-started from the previous solution's
	// bracket, with the session cache carrying config sets across the delta.
	DeltaWarm
)

// String names the path.
func (p DeltaPath) String() string {
	switch p {
	case DeltaCold:
		return "cold"
	case DeltaRepair:
		return "repair"
	case DeltaWarm:
		return "warm"
	default:
		return fmt.Sprintf("DeltaPath(%d)", int(p))
	}
}

// DeltaStats reports what one Session solve did.
type DeltaStats struct {
	// Path is the fast path that produced the accepted result.
	Path DeltaPath
	// Added and Removed count the mutation's jobs; N is the job count after
	// it.
	Added, Removed, N int
	// LowerBound is the certified lower bound on the mutated instance's
	// optimum that the acceptance certificate used (the max of the fresh
	// instance bounds and the delta-shifted previous certificate,
	// lb.FromPrevious).
	LowerBound pcmax.Time
	// RepairMakespan is the LPT-repaired schedule's makespan — the warm
	// upper bracket. Zero when no previous solution existed.
	RepairMakespan pcmax.Time
	// Makespan is the accepted schedule's makespan.
	Makespan pcmax.Time
	// PTAS holds the underlying bisection's stats when one ran (warm and
	// cold paths); nil on the repair path.
	PTAS *PTASStats
}

// SessionCounters accumulates path traffic over a Session's lifetime.
type SessionCounters struct {
	// Solves counts every accepted solve (cold, repair and warm).
	Solves int64
	// Repairs, Warm and Cold split Solves by path.
	Repairs, Warm, Cold int64
}

// Session owns an evolving P||Cmax instance and re-solves it incrementally.
// It keeps the last accepted schedule, a certified lower bound on the
// current optimum, and a persistent dp.Cache, so SolveDelta can try, in
// order:
//
//  1. LPT repair — pull removed jobs, keep every surviving assignment,
//     place added jobs greedily (listsched.RepairInPlace). Accepted
//     outright when the repaired makespan is within (1+eps) of the updated
//     certified lower bound: the certificate then proves the (1+eps)·OPT
//     guarantee with no bisection at all.
//  2. Warm-started bisection — core.Solve seeded with
//     [shifted lower bound, repaired makespan] via core.Options.WarmBracket,
//     shrinking the probe count to the delta-shifted range; the session
//     cache turns repeated probes into enumeration-free hits.
//  3. Profile-keyed cache reuse — inside the warm solve, dp.Cache's
//     gcd-canonical profile keys let probes whose rounded job profile
//     is unchanged by the delta reuse cached configuration sets
//     outright.
//
// Every accepted result carries the same (1+eps) guarantee grade as a cold
// solve of the mutated instance (see the path notes above and
// ALGORITHM.md §15); on error or cancellation the session state is
// unchanged — a Session never exposes a schedule that does not match its
// current instance.
//
// A Session is safe for concurrent use; solves serialize on its mutex.
// Session handles plain instances only (the capability set of the
// underlying PTAS pipeline): Solve rejects variant instances with a
// *VariantError.
type Session struct {
	mu   sync.Mutex
	opts SessionOptions

	// cache persists across every solve of the session (fast path 3).
	cache *dp.Cache

	// Accepted state; in is nil until the first successful Solve.
	in     *pcmax.Instance
	sched  *pcmax.Schedule
	ms     pcmax.Time
	certLB pcmax.Time

	counters SessionCounters
}

// NewSession returns a Session with the given options. Epsilon must be
// positive (ErrBadEpsilon otherwise, matching PTAS).
func NewSession(opts SessionOptions) (*Session, error) {
	if opts.RepairFraction == 0 {
		opts.RepairFraction = DefaultSessionOptions().RepairFraction
	}
	if _, err := core.KFor(opts.PTAS.Epsilon); err != nil {
		return nil, err
	}
	return &Session{opts: opts, cache: dp.NewCache()}, nil
}

// Solve cold-solves a full instance and makes it the session's current
// state, replacing any previous instance wholesale. The instance is copied;
// later caller mutations of in do not affect the session.
func (s *Session) Solve(ctx context.Context, in *pcmax.Instance) (*pcmax.Schedule, *DeltaStats, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if v := in.Variant(); v != pcmax.Plain {
		return nil, nil, &VariantError{Algorithm: sessionAlgorithmName, Variant: v, Supported: pcmax.Plain}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coldSolve(ctx, in.Clone(), &DeltaStats{Added: in.N(), N: in.N()})
}

// coldSolve runs the full bisection on next (which s takes ownership of),
// commits the result and fills st. Callers hold s.mu.
func (s *Session) coldSolve(ctx context.Context, next *pcmax.Instance, st *DeltaStats) (*pcmax.Schedule, *DeltaStats, error) {
	copts := coreOptions(s.opts.PTAS)
	copts.Cache = s.cache
	sched, cst, err := core.Solve(ctx, next, copts)
	if err != nil {
		return nil, nil, err
	}
	st.Path = DeltaCold
	s.commit(next, sched, cst, st)
	s.counters.Cold++
	return sched.Clone(), st, nil
}

// commit installs an accepted solution and derives the certified lower
// bound to carry into the next delta. In faithful mode the bisection's
// converged target is itself certified (every raise of the lower bracket
// passed an infeasible probe, an OPT witness; the initial bracket was
// certified); a sparse solve certifies it only when SparseCertified, and
// otherwise the initial bracket LB0 — fresh bounds intersected with the
// warm bracket, certified by induction — is kept instead. Callers hold
// s.mu.
func (s *Session) commit(next *pcmax.Instance, sched *pcmax.Schedule, cst *core.Stats, st *DeltaStats) {
	certLB := cst.LB0
	if !s.opts.PTAS.Sparsify || cst.SparseCertified {
		certLB = cst.FinalT
	}
	s.in = next
	s.sched = sched
	s.ms = sched.Makespan(next)
	s.certLB = certLB
	s.counters.Solves++
	st.PTAS = cst
	st.Makespan = s.ms
	st.LowerBound = certLB
	st.N = next.N()
}

// SolveDelta mutates the session's instance — remove lists job indices of
// the current instance (deduplicated, in range), add lists processing times
// appended as new jobs — and re-solves through the fast paths. Surviving
// jobs keep their relative order followed by the added jobs, and the
// returned schedule indexes jobs of the mutated instance (use Instance for
// the matching times). On any error (including cancellation) the session
// state is unchanged; on success the mutated instance becomes current.
//
// The first call may be a pure-add delta on an empty session: it behaves
// like Solve on the added jobs once M has been established by a previous
// Solve; without one it fails with ErrNoSolution.
func (s *Session) SolveDelta(ctx context.Context, add []pcmax.Time, remove []int) (*pcmax.Schedule, *DeltaStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.in == nil {
		return nil, nil, ErrNoSolution
	}

	next, keep, removedTotal, err := s.applyDelta(add, remove)
	if err != nil {
		return nil, nil, err
	}
	if err := next.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	st := &DeltaStats{Added: len(add), Removed: len(remove), N: next.N()}

	// Updated certified lower bound: the delta-shifted previous certificate
	// (lb.FromPrevious: removals lower OPT by at most their total, additions
	// never lower it) against the mutated instance's fresh bounds.
	newLB := next.LowerBound()
	if b := lb.FromPrevious(s.certLB, removedTotal); b > newLB {
		newLB = b
	}
	st.LowerBound = newLB

	// Fast path 1: LPT repair. Always built — its makespan is the warm
	// upper bracket either way — but only *accepted* without a bisection
	// when the delta is small enough and the certificate holds:
	// repairMS <= (1+eps)·newLB <= (1+eps)·OPT. keep is this call's own
	// slice, so the repair fills it in place.
	repairMS := listsched.RepairInPlace(next, keep)
	repaired := &pcmax.Schedule{M: next.M, Assignment: keep}
	st.RepairMakespan = repairMS
	eps := s.opts.PTAS.Epsilon
	if s.repairAllowed(len(add)+len(remove), next.N()) &&
		float64(repairMS) <= (1+eps)*float64(newLB)+1e-9 {
		s.in = next
		s.sched = repaired
		s.ms = repairMS
		s.certLB = newLB
		s.counters.Solves++
		s.counters.Repairs++
		st.Path = DeltaRepair
		st.Makespan = repairMS
		return repaired.Clone(), st, nil
	}

	// Fast path 2: warm-started bisection. newLB is certified <= OPT and
	// the repaired schedule is valid, so [newLB, repairMS] is a correct
	// bracket; fast path 3 (profile-keyed config reuse) happens inside via
	// the session cache. A defensive cold retry covers the one way a warm
	// solve can fail that a cold solve would not — core.ErrInternal from a
	// bracket the invariants reject at runtime.
	copts := coreOptions(s.opts.PTAS)
	copts.Cache = s.cache
	if next.N() > 0 {
		copts.WarmBracket = &core.Bracket{LB: newLB, UB: repairMS}
	}
	sched, cst, err := core.Solve(ctx, next, copts)
	if errors.Is(err, core.ErrInternal) {
		return s.coldSolve(ctx, next, st)
	}
	if err != nil {
		return nil, nil, err
	}
	// Keep the better of the warm solve and the repair: both are valid, and
	// min(makespans) inherits the (1+eps)·OPT certificate from the solve.
	if repairMS < sched.Makespan(next) {
		sched = repaired
	}
	st.Path = DeltaWarm
	s.commit(next, sched, cst, st)
	s.counters.Warm++
	return sched.Clone(), st, nil
}

// applyDelta builds the mutated instance, the keep-map for repair (previous
// machine per surviving job, -1 per added job) and the removed total.
// Callers hold s.mu; the session is not modified.
func (s *Session) applyDelta(add []pcmax.Time, remove []int) (*pcmax.Instance, []int, pcmax.Time, error) {
	n := s.in.N()
	var removedTotal pcmax.Time
	for _, j := range remove {
		if j < 0 || j >= n {
			return nil, nil, 0, fmt.Errorf("%w: removal index %d out of range [0,%d)", ErrBadDelta, j, n)
		}
		removedTotal += s.in.Times[j]
	}
	// Removals are few; sorting a copy finds repeats and lets the survivors
	// be copied run by run.
	drop := remove
	if len(drop) > 1 {
		drop = slices.Clone(remove)
		slices.Sort(drop)
	}
	for i := 1; i < len(drop); i++ {
		if drop[i] == drop[i-1] {
			return nil, nil, 0, fmt.Errorf("%w: removal index %d repeated", ErrBadDelta, drop[i])
		}
	}
	for i, t := range add {
		if t <= 0 {
			return nil, nil, 0, fmt.Errorf("%w: added job %d has non-positive time %d", ErrBadDelta, i, t)
		}
	}
	size := n - len(remove) + len(add)
	times := make([]pcmax.Time, 0, size)
	keep := make([]int, 0, size)
	from := 0
	for _, j := range drop {
		times = append(times, s.in.Times[from:j]...)
		keep = append(keep, s.sched.Assignment[from:j]...)
		from = j + 1
	}
	times = append(append(times, s.in.Times[from:]...), add...)
	keep = append(keep, s.sched.Assignment[from:]...)
	for range add {
		keep = append(keep, -1)
	}
	return &pcmax.Instance{M: s.in.M, Times: times}, keep, removedTotal, nil
}

// repairAllowed reports whether the repair path may accept a delta of the
// given size on an n-job instance.
func (s *Session) repairAllowed(deltaSize, n int) bool {
	if s.opts.RepairFraction < 0 {
		return false
	}
	limit := int(s.opts.RepairFraction * float64(n))
	if limit < 1 {
		limit = 1
	}
	return deltaSize <= limit
}

// Instance returns a copy of the session's current instance, or nil before
// the first accepted solve.
func (s *Session) Instance() *pcmax.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.in == nil {
		return nil
	}
	return s.in.Clone()
}

// Schedule returns a copy of the last accepted schedule and its makespan.
func (s *Session) Schedule() (*pcmax.Schedule, pcmax.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sched == nil {
		return nil, 0, ErrNoSolution
	}
	return s.sched.Clone(), s.ms, nil
}

// LowerBound returns the session's certified lower bound on the current
// instance's optimal makespan (0 before the first accepted solve).
func (s *Session) LowerBound() pcmax.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.certLB
}

// Counters returns a snapshot of the session's path counters.
func (s *Session) Counters() SessionCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// CacheStats returns the session cache's lifetime counters (per-solve
// deltas are in each DeltaStats.PTAS.Cache).
func (s *Session) CacheStats() dp.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Stats()
}
