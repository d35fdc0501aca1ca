// Package trsched solves the time-restricted scheduling variant: P||Cmax
// with per-machine availability windows (and optionally machine-dependent
// setup times), following the configuration-IP viewpoint of the EPTAS for
// scheduling with time restrictions. The solver reuses the repository's
// machinery end to end: a bisection over target makespans T, the
// configuration enumeration of internal/conf at every probe, and a
// level-style dynamic program — here over machines instead of
// anti-diagonals — deciding whether the enumerated configurations cover all
// jobs.
//
// A probe at target T clips every machine's windows to [0, T] (an
// unrestricted machine is one segment [0, T]), enumerates candidate machine
// configurations over the job size classes with internal/conf, filters each
// against the machine's segments by an exact first-fit-decreasing search
// (setup included: a job occupies setup+size contiguously inside one
// window), and runs a DP over machines whose state is the remaining
// size-class vector. Feasibility is certified constructively: the DP's
// witness is turned into a schedule whose earliest-fit replay can only
// finish earlier than the packing, so Makespan <= T always holds for the
// returned schedule.
//
// Size classes come in two modes. Exact mode uses the true distinct sizes
// (chosen when there are at most MaxDistinctExact of them): the bisection
// predicate is then exact and monotone, so the solver converges to the
// certified optimal makespan. Grouped mode rounds sizes up to multiples of
// u = max(1, eps*T/4) first: every certified probe still yields a feasible
// schedule with makespan <= T (rounding up is sound against window walls),
// but the smallest feasible T found is only an upper bound, so the solver
// keeps the best certified schedule — never worse than the generalized-LPT
// incumbent it starts from. Stats.Exact records which mode ran.
package trsched

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cancel"
	"repro/internal/conf"
	"repro/internal/listsched"
	"repro/pcmax"
)

// Options configures Solve. The zero value is invalid; Epsilon must be
// positive (it controls grouped-mode rounding only — exact mode ignores it).
type Options struct {
	// Epsilon is the grouped-mode rounding coarseness: sizes are rounded up
	// to multiples of max(1, eps*T/4) when the instance has more than
	// MaxDistinctExact distinct sizes.
	Epsilon float64
	// MaxStates caps the machine-DP state space (the product of
	// per-size-class counts+1); <= 0 uses DefaultMaxStates.
	MaxStates int64
	// MaxDistinctExact is the distinct-size threshold below which exact mode
	// runs; <= 0 uses DefaultMaxDistinctExact.
	MaxDistinctExact int
}

// Defaults for the solver budgets.
const (
	DefaultMaxStates        = int64(1) << 20
	DefaultMaxDistinctExact = 16
)

// Stats reports what one Solve run did.
type Stats struct {
	// Iterations counts bisection probes.
	Iterations int
	// LB and UB bracket the initial bisection interval.
	LB, UB pcmax.Time
	// FinalT is the smallest certified-feasible target found.
	FinalT pcmax.Time
	// Configs counts the configurations enumerated at the final feasible
	// probe (before per-machine segment filtering).
	Configs int
	// States is the machine-DP state-space size at the final feasible probe.
	States int64
	// SizeClasses is the number of distinct (possibly rounded) sizes.
	SizeClasses int
	// Exact reports exact mode: FinalT is the certified optimal makespan.
	Exact bool
	// UsedLPTFallback reports that the generalized-LPT incumbent was
	// returned because no probe beat it (grouped mode only).
	UsedLPTFallback bool
}

// Solver errors.
var (
	// ErrUnsupported reports an instance whose variant uses features beyond
	// windows and setup times (release times are out of scope here).
	ErrUnsupported = errors.New("trsched: solver supports only the setup and window variants")
	// ErrTooManyStates reports a machine-DP state space beyond MaxStates.
	ErrTooManyStates = errors.New("trsched: size-class state space exceeds the budget")
	// ErrInfeasible reports an instance with a job that fits no machine's
	// windows at any time.
	ErrInfeasible = errors.New("trsched: instance is infeasible")
)

// Capabilities is the variant feature set Solve accepts.
const Capabilities = pcmax.SetupTimes | pcmax.TimeRestricted

// Solve schedules the instance. See the package comment for the algorithm
// and the exact/grouped mode split. ctx is checked between bisection probes
// and inside the per-probe DP sweeps.
func Solve(ctx context.Context, in *pcmax.Instance, opts Options) (*pcmax.Schedule, Stats, error) {
	var st Stats
	if err := in.Validate(); err != nil {
		return nil, st, err
	}
	if v := in.Variant(); v&^Capabilities != 0 {
		return nil, st, fmt.Errorf("%w (instance variant %v)", ErrUnsupported, v)
	}
	if err := cancel.Check(ctx); err != nil {
		return nil, st, err
	}

	// Generalized LPT supplies the incumbent schedule and the upper bracket.
	lpt, err := listsched.LPTGeneral(in)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	best := lpt
	bestT := lpt.Makespan(in)
	st.UsedLPTFallback = true

	lo := in.LowerBound()
	if solo := soloBound(in); solo > lo {
		lo = solo
	}
	hi := bestT
	st.LB, st.UB = lo, hi
	if in.N() == 0 || lo >= hi {
		// The incumbent already matches the lower bracket: it is optimal.
		st.FinalT = bestT
		st.Exact = true
		return best, st, nil
	}

	exact, sizes, counts, classOf := sizeClasses(in, opts)
	st.Exact = exact
	st.SizeClasses = len(sizes)

	for lo < hi {
		if err := cancel.Check(ctx); err != nil {
			return best, st, err
		}
		mid := lo + (hi-lo)/2
		st.Iterations++
		sched, pst, err := probe(ctx, in, mid, exact, sizes, counts, classOf, opts)
		if err != nil {
			return best, st, err
		}
		if sched != nil {
			st.Configs = pst.Configs
			st.States = pst.States
			if ms := sched.Makespan(in); ms < bestT {
				best, bestT = sched, ms
				st.UsedLPTFallback = false
			}
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	st.FinalT = bestT
	return best, st, nil
}

// soloBound is the window-aware single-job lower bound: every job must
// complete somewhere, so the earliest completion it can achieve on its best
// machine bounds the makespan from below.
func soloBound(in *pcmax.Instance) pcmax.Time {
	var lb pcmax.Time
	for j, t := range in.Times {
		solo := pcmax.Infeasible
		for mi := 0; mi < in.M; mi++ {
			dur := in.SetupTime(mi) + t
			est := in.ReleaseTime(j)
			if start, ok := in.EarliestStart(mi, est, dur); ok && start+dur < solo {
				solo = start + dur
			}
		}
		if solo != pcmax.Infeasible && solo > lb {
			lb = solo
		}
	}
	return lb
}

// sizeClasses builds the distinct-size classes. Exact mode (few distinct
// sizes) uses them as-is; grouped mode defers rounding to each probe, since
// the rounding unit depends on the probe target, and returns classOf == nil.
func sizeClasses(in *pcmax.Instance, opts Options) (exact bool, sizes []pcmax.Time, counts []int, classOf map[pcmax.Time]int) {
	maxD := opts.MaxDistinctExact
	if maxD <= 0 {
		maxD = DefaultMaxDistinctExact
	}
	distinct := map[pcmax.Time]int{}
	for _, t := range in.Times {
		distinct[t]++
	}
	if len(distinct) > maxD {
		return false, nil, nil, nil
	}
	sizes = make([]pcmax.Time, 0, len(distinct))
	for s := range distinct {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] > sizes[b] })
	counts = make([]int, len(sizes))
	classOf = make(map[pcmax.Time]int, len(sizes))
	for i, s := range sizes {
		counts[i] = distinct[s]
		classOf[s] = i
	}
	return true, sizes, counts, classOf
}

// groupedClasses rounds every size up to a multiple of u = max(1, eps*T/4)
// and returns the resulting classes, largest first.
func groupedClasses(in *pcmax.Instance, T pcmax.Time, eps float64) (sizes []pcmax.Time, counts []int, classOf map[pcmax.Time]int) {
	u := pcmax.Time(eps * float64(T) / 4)
	if u < 1 {
		u = 1
	}
	rounded := map[pcmax.Time]int{}
	for _, t := range in.Times {
		r := (t + u - 1) / u * u
		rounded[r]++
	}
	sizes = make([]pcmax.Time, 0, len(rounded))
	for s := range rounded {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] > sizes[b] })
	counts = make([]int, len(sizes))
	classOf = make(map[pcmax.Time]int, len(sizes))
	for i, s := range sizes {
		counts[i] = rounded[s]
		classOf[s] = i
	}
	return sizes, counts, classOf
}

// probeStats carries the per-probe observability back to Solve.
type probeStats struct {
	Configs int
	States  int64
}

// probe decides feasibility of target T and, when feasible, constructs a
// schedule with Makespan <= T. A nil schedule with a nil error means
// "infeasible at T".
func probe(ctx context.Context, in *pcmax.Instance, T pcmax.Time, exact bool,
	sizes []pcmax.Time, counts []int, classOf map[pcmax.Time]int, opts Options) (*pcmax.Schedule, probeStats, error) {
	var pst probeStats
	if !exact {
		sizes, counts, classOf = groupedClasses(in, T, opts.Epsilon)
	}
	d := len(sizes)
	for _, s := range sizes {
		if s > T {
			return nil, pst, nil // a (rounded) job exceeds the whole target
		}
	}

	// Mixed-radix strides over the class counts, exactly like the DP table.
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	stride := make([]int64, d)
	states := int64(1)
	for i := d - 1; i >= 0; i-- {
		stride[i] = states
		states *= int64(counts[i] + 1)
		if states > maxStates {
			return nil, pst, fmt.Errorf("%w (need %d, limit %d)", ErrTooManyStates, states, maxStates)
		}
	}
	// The witness DP keeps one int32 layer per machine; bound the whole
	// allocation, not just one layer.
	if total := states * int64(in.M+1); total > 1<<26 {
		return nil, pst, fmt.Errorf("%w (%d machines x %d states)", ErrTooManyStates, in.M+1, states)
	}
	pst.States = states

	cfgs, err := conf.Enumerate(sizes, counts, T, stride, 0)
	if err != nil {
		return nil, pst, err
	}
	pst.Configs = len(cfgs)

	// Filter the global configuration set per machine signature: a
	// configuration survives when its setup-inclusive durations pack into
	// the machine's windows clipped to [0, T].
	type sigCfgs struct {
		segs []pcmax.Time
		keep []int32
	}
	cache := map[string]*sigCfgs{}
	machineCfgs := make([][]int32, in.M)
	machineSegs := make([][]pcmax.Time, in.M)
	for mi := 0; mi < in.M; mi++ {
		segs := clipSegments(in, mi, T)
		key := sigKey(in.SetupTime(mi), segs)
		sc, ok := cache[key]
		if !ok {
			sc = &sigCfgs{segs: segs}
			setup := in.SetupTime(mi)
			for ci, cfg := range cfgs {
				if packs(cfg.Counts, sizes, setup, segs, nil) {
					sc.keep = append(sc.keep, int32(ci))
				}
			}
			cache[key] = sc
		}
		machineCfgs[mi] = sc.keep
		machineSegs[mi] = sc.segs
	}

	// DP over machines: state = remaining class-count vector (mixed-radix
	// index), layer k = after machines 0..k-1. choice[k+1][state] records
	// the configuration machine k used to reach state (idleChoice for an
	// idle machine, unreached otherwise).
	const (
		unreached  = int32(-1)
		idleChoice = int32(-2)
	)
	full := int64(0)
	digitsFull := make([]int32, d)
	for i, c := range counts {
		full += int64(c) * stride[i]
		digitsFull[i] = int32(c)
	}
	choice := make([][]int32, in.M+1)
	for k := range choice {
		choice[k] = make([]int32, states)
		for i := range choice[k] {
			choice[k][i] = unreached
		}
	}
	choice[0][full] = idleChoice
	frontier := []int64{full}
	digits := make([]int32, d)
	for k := 0; k < in.M && len(frontier) > 0; k++ {
		if err := cancel.Check(ctx); err != nil {
			return nil, pst, err
		}
		var next []int64
		for _, r := range frontier {
			decode(r, stride, digits)
			// Idle transition: the machine takes nothing.
			if choice[k+1][r] == unreached {
				choice[k+1][r] = idleChoice
				next = append(next, r)
			}
			for _, ci := range machineCfgs[k] {
				cfg := &cfgs[ci]
				if !fits(cfg.Counts, digits) {
					continue
				}
				nr := r - cfg.Offset
				if choice[k+1][nr] == unreached {
					choice[k+1][nr] = ci
					next = append(next, nr)
				}
			}
		}
		frontier = next
	}
	if choice[in.M][0] == unreached {
		return nil, pst, nil
	}

	return reconstruct(in, sizes, classOf, cfgs, choice, machineSegs), pst, nil
}

// decode expands a mixed-radix state index into per-class digits.
func decode(r int64, stride []int64, digits []int32) {
	for i, s := range stride {
		digits[i] = int32(r / s)
		r %= s
	}
}

// fits reports componentwise cfg <= digits.
func fits(cfg []int32, digits []int32) bool {
	for i, c := range cfg {
		if c > digits[i] {
			return false
		}
	}
	return true
}

// clipSegments returns machine mi's available capacity segments inside
// [0, T], in window order. An unrestricted machine is one segment of length
// T.
func clipSegments(in *pcmax.Instance, mi int, T pcmax.Time) []pcmax.Time {
	if !in.Restricted(mi) {
		return []pcmax.Time{T}
	}
	var segs []pcmax.Time
	for _, w := range in.Windows[mi] {
		if w.Start >= T {
			break
		}
		end := w.End
		if end > T {
			end = T
		}
		if end > w.Start {
			segs = append(segs, end-w.Start)
		}
	}
	return segs
}

// sigKey serializes a machine's (setup, segments) signature so identical
// machines share one configuration filtering pass.
func sigKey(setup pcmax.Time, segs []pcmax.Time) string {
	b := make([]byte, 0, 8*(len(segs)+1))
	app := func(v pcmax.Time) {
		for i := 0; i < 8; i++ {
			b = append(b, byte(v>>(8*i)))
		}
	}
	app(setup)
	for _, s := range segs {
		app(s)
	}
	return string(b)
}

// packs decides whether a configuration's jobs — each occupying
// setup+size contiguously — fit into the machine's capacity segments, by
// depth-first search over the durations in non-increasing order with the
// classic identical-item and identical-bin prunings. When assign is non-nil
// it receives, per duration slot in that order, the segment index used by
// the first packing found.
func packs(cfg []int32, sizes []pcmax.Time, setup pcmax.Time, segs []pcmax.Time, assign []int) bool {
	var durs []pcmax.Time
	var total pcmax.Time
	for i, c := range cfg {
		for k := int32(0); k < c; k++ {
			durs = append(durs, setup+sizes[i])
			total += setup + sizes[i]
		}
	}
	if len(durs) == 0 {
		return true
	}
	remain := append([]pcmax.Time(nil), segs...)
	var capacity pcmax.Time
	for _, s := range remain {
		capacity += s
	}
	if total > capacity {
		return false
	}
	var rec func(k int, minSeg int) bool
	rec = func(k int, minSeg int) bool {
		if k == len(durs) {
			return true
		}
		start := 0
		if k > 0 && durs[k] == durs[k-1] {
			// Identical durations are interchangeable: never place a later
			// copy in an earlier segment than its predecessor.
			start = minSeg
		}
		var tried []pcmax.Time
		for si := start; si < len(remain); si++ {
			if remain[si] < durs[k] {
				continue
			}
			dup := false
			for _, r := range tried {
				if r == remain[si] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			tried = append(tried, remain[si])
			remain[si] -= durs[k]
			if rec(k+1, si) {
				remain[si] += durs[k]
				if assign != nil {
					assign[k] = si
				}
				return true
			}
			remain[si] += durs[k]
		}
		return false
	}
	return rec(0, 0)
}

// reconstruct walks the DP witness back into a schedule: every machine gets
// concrete jobs for its configuration's class counts, packs them into its
// segments, and the schedule's Order lists each machine's jobs in segment
// order so the earliest-fit replay of Completions finishes no later than
// the packing — hence within the certified target.
func reconstruct(in *pcmax.Instance, sizes []pcmax.Time, classOf map[pcmax.Time]int,
	cfgs []conf.Config, choice [][]int32, machineSegs [][]pcmax.Time) *pcmax.Schedule {
	const idleChoice = int32(-2)

	// Per-class queues of concrete job indices, ascending.
	queues := make([][]int, len(sizes))
	for j, t := range in.Times {
		ci := classOf[roundKey(t, sizes)]
		queues[ci] = append(queues[ci], j)
	}

	sched := pcmax.NewSchedule(in.M, in.N())
	sched.Order = make([]int, 0, in.N())

	// Walk the witness backwards to list each machine's configuration, then
	// realize machines in index order.
	machineCfg := make([]int32, in.M)
	state := int64(0)
	for k := in.M; k > 0; k-- {
		ci := choice[k][state]
		machineCfg[k-1] = ci
		if ci >= 0 {
			state += cfgs[ci].Offset
		}
	}
	for mi := 0; mi < in.M; mi++ {
		ci := machineCfg[mi]
		if ci == idleChoice {
			continue
		}
		cfg := cfgs[ci]
		// Concrete jobs for the class counts, in the duration-slot order
		// packs uses (classes are sorted largest first, so class order is
		// exactly it).
		var jobs []int
		for c, cnt := range cfg.Counts {
			q := queues[c]
			jobs = append(jobs, q[:cnt]...)
			queues[c] = q[cnt:]
		}
		assign := make([]int, len(jobs))
		packs(cfg.Counts, sizes, in.SetupTime(mi), machineSegs[mi], assign)
		// Emit the machine's jobs ordered by packed segment; within a
		// segment the durations sum identically, so any order replays
		// feasibly.
		slots := make([]int, len(jobs))
		for i := range slots {
			slots[i] = i
		}
		sort.SliceStable(slots, func(a, b int) bool { return assign[slots[a]] < assign[slots[b]] })
		for _, sl := range slots {
			j := jobs[sl]
			sched.Assignment[j] = mi
			sched.Order = append(sched.Order, j)
		}
	}
	return sched
}

// roundKey maps a true size to its (possibly rounded-up) class size: the
// smallest class size >= t. sizes is sorted descending.
func roundKey(t pcmax.Time, sizes []pcmax.Time) pcmax.Time {
	key := sizes[0]
	for _, s := range sizes {
		if s >= t {
			key = s
		} else {
			break
		}
	}
	return key
}
