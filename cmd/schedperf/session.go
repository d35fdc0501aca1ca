package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/lb"
	"repro/internal/listsched"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// stepsPerCycle is the mutation cycle: seven 1-job steps, then one 30%
// replacement (above the 0.25 RepairFraction, so it takes the warm
// bisection).
const stepsPerCycle = 8

// coldCheckEvery is the session step stride of the untimed cold-solve check.
const coldCheckEvery = 50

// warmupCycles is the length of the untimed warm-up in mutation cycles; it
// is what makespan_over_lb averages over, and one cycle (160 steps) leaves
// that mean moving by more than a percent with the seed.
const warmupCycles = 4

// sessionStream is one Session driven by a deterministic mutation stream.
type sessionStream struct {
	label  string
	sess   *solver.Session
	mirror *pcmax.Instance // the harness's own copy of the current instance
	lo, hi int64
	src    *rng.Source
	step   int
	// cache mirrors the session's persistent dp.Cache for the replay.
	cache *dp.Cache
}

// nextMutation draws the stream's next delta against the current instance.
func (s *sessionStream) nextMutation() (add []pcmax.Time, remove []int) {
	n := s.mirror.N()
	draw := func() pcmax.Time { return pcmax.Time(s.src.MustUniform(s.lo, s.hi)) }
	switch s.step % stepsPerCycle {
	case 0, 3, 6: // swap
		remove = []int{s.src.Intn(n)}
		add = []pcmax.Time{draw()}
	case 1, 4:
		add = []pcmax.Time{draw()}
	case 2, 5:
		remove = []int{s.src.Intn(n)}
	default: // replace 30% of the jobs
		r := int(0.3 * float64(n))
		remove = s.src.Perm(n)[:r]
		for i := 0; i < r; i++ {
			add = append(add, draw())
		}
	}
	s.step++
	return add, remove
}

// applyDelta builds the mutated instance the way Session.SolveDelta
// defines it (survivors in order, then the added jobs), the keep-map for
// listsched.Repair from the previous schedule (nil prev gives a nil map)
// and the removed total.
func applyDelta(in *pcmax.Instance, prev *pcmax.Schedule, add []pcmax.Time, remove []int) (*pcmax.Instance, []int, pcmax.Time) {
	drop := make([]bool, in.N())
	var removed pcmax.Time
	for _, j := range remove {
		drop[j] = true
		removed += in.Times[j]
	}
	size := in.N() - len(remove) + len(add)
	times := make([]pcmax.Time, 0, size)
	var keep []int
	if prev != nil {
		keep = make([]int, 0, size)
	}
	for j, t := range in.Times {
		if drop[j] {
			continue
		}
		times = append(times, t)
		if prev != nil {
			keep = append(keep, prev.Assignment[j])
		}
	}
	times = append(times, add...)
	if prev != nil {
		for range add {
			keep = append(keep, -1)
		}
	}
	return &pcmax.Instance{M: in.M, Times: times}, keep, removed
}

// sessionBench is the session-stream workload: one op is one
// Session.SolveDelta; a pass is one full mutation cycle of every session,
// interleaved step by step.
type sessionBench struct {
	opts    solver.SessionOptions
	small   bool
	streams []*sessionStream
}

func newSessionBench(small bool) *sessionBench {
	return &sessionBench{opts: solver.DefaultSessionOptions(), small: small}
}

func (b *sessionBench) setup(seed uint64) error {
	ctx := context.Background()
	var cells []cell
	for _, sh := range []shape{fig2, fig3, fig4} {
		for _, f := range workload.Families {
			cells = append(cells, cell{sh, f})
		}
	}
	big := shape{"m100n1e4", 100, 10000}
	if b.small {
		cells = cells[:3]
		big = shape{"m20n500", 20, 500}
	}
	cells = append(cells, cell{big, workload.U1_100}, cell{big, workload.U1_10n})
	b.streams = nil // let a repeated set-up collect the previous sessions
	for i, c := range cells {
		in, err := generate(c, mix(seed, 100, uint64(i)))
		if err != nil {
			return err
		}
		lo, hi, err := c.family.Bounds(c.m, c.n)
		if err != nil {
			return err
		}
		sess, err := solver.NewSession(b.opts)
		if err != nil {
			return err
		}
		if _, _, err := sess.Solve(ctx, in); err != nil {
			return fmt.Errorf("%s/%v: initial solve: %w", c.name, c.family, err)
		}
		b.streams = append(b.streams, &sessionStream{
			label:  fmt.Sprintf("%s/%v", c.name, c.family),
			sess:   sess,
			mirror: in.Clone(),
			lo:     lo,
			hi:     hi,
			src:    rng.New(mix(seed, 200, uint64(i))),
			cache:  dp.NewCache(),
		})
	}
	return nil
}

// stepResult is one SolveDelta outcome awaiting its checks.
type stepResult struct {
	sched *pcmax.Schedule
	st    *solver.DeltaStats
	err   error
	next  *pcmax.Instance
}

// check applies the per-step checks against the harness's mutated instance
// and, every coldCheckEvery steps of a stream, the (1+eps) comparison with
// a cold solve. It returns the accepted makespan (0 on failure) and moves
// the mirror forward.
func (b *sessionBench) check(ctx context.Context, s *sessionStream, r stepResult, chk *checker) pcmax.Time {
	label := fmt.Sprintf("%s step %d", s.label, s.step)
	if r.err != nil {
		chk.fail("%s: %v", label, r.err)
		s.mirror = s.sess.Instance() // resynchronize with the unchanged session
		return 0
	}
	s.mirror = r.next
	if err := r.sched.Validate(r.next); err != nil {
		chk.fail("%s: invalid schedule: %v", label, err)
		return 0
	}
	ms := r.sched.Makespan(r.next)
	if ms != r.st.Makespan {
		chk.fail("%s: schedule makespan %d but DeltaStats.Makespan %d", label, ms, r.st.Makespan)
	}
	if s.step%coldCheckEvery == 0 {
		cold, _, err := solver.PTAS(ctx, r.next, b.opts.PTAS)
		if err != nil {
			chk.fail("%s: cold reference: %v", label, err)
		} else {
			chk.checkSessionStep(label, ms, cold.Makespan(r.next), b.opts.PTAS.Epsilon)
		}
	}
	return ms
}

// warmup runs warmupCycles untimed cycles, recording the digest and quality
// ratio.
func (b *sessionBench) warmup(ctx context.Context, chk *checker, dg *digest) (float64, int) {
	var ratioSum float64
	n := 0
	for c := 0; c < warmupCycles*stepsPerCycle; c++ {
		for _, s := range b.streams {
			add, remove := s.nextMutation()
			next, _, _ := applyDelta(s.mirror, nil, add, remove)
			sched, st, err := s.sess.SolveDelta(ctx, add, remove)
			ms := b.check(ctx, s, stepResult{sched, st, err, next}, chk)
			dg.add(ms)
			if ms == 0 {
				continue
			}
			certLB := next.LowerBound()
			if v := lb.FromLPT(next, listsched.LPT(next)); v > certLB {
				certLB = v
			}
			ratioSum += float64(ms) / float64(certLB)
			n++
		}
	}
	return ratioSum, n
}

func (b *sessionBench) timed(ctx context.Context, deadline time.Time, m *meter, chk *checker) map[string]metricValue {
	type mutation struct {
		add    []pcmax.Time
		remove []int
	}
	muts := make([]mutation, len(b.streams))
	results := make([]stepResult, len(b.streams))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for c := 0; c < stepsPerCycle; c++ {
			// One window per round of steps: the mutations are drawn and the
			// mutated instances built before it opens.
			for i, s := range b.streams {
				muts[i].add, muts[i].remove = s.nextMutation()
				results[i].next, _, _ = applyDelta(s.mirror, nil, muts[i].add, muts[i].remove)
			}
			m.reserve(len(b.streams))
			m.open()
			for i, s := range b.streams {
				t0 := time.Now()
				sched, st, err := s.sess.SolveDelta(ctx, muts[i].add, muts[i].remove)
				m.record(time.Since(t0))
				results[i].sched, results[i].st, results[i].err = sched, st, err
			}
			m.close()
			for i, s := range b.streams {
				b.check(ctx, s, results[i], chk)
				results[i] = stepResult{}
			}
		}
	}
	return nil
}

func (b *sessionBench) traced(ctx context.Context, deadline time.Time, r *replayer, chk *checker) ([]float64, []float64, *statAgg) {
	agg := &statAgg{}
	var untraced, replayed []float64
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for c := 0; c < stepsPerCycle; c++ {
			for _, s := range b.streams {
				prevSched, _, err := s.sess.Schedule()
				if err != nil {
					chk.fail("%s: %v", s.label, err)
					continue
				}
				prevLB := s.sess.LowerBound()
				prev := s.mirror
				add, remove := s.nextMutation()
				next, _, _ := applyDelta(prev, nil, add, remove)

				t0 := time.Now()
				sched, st, err := s.sess.SolveDelta(ctx, add, remove)
				untraced = append(untraced, float64(time.Since(t0)))
				ms := b.check(ctx, s, stepResult{sched, st, err, next}, chk)
				if ms == 0 {
					continue
				}
				agg.steps++
				if st.Path == solver.DeltaRepair {
					agg.repairs++
				}
				if st.PTAS != nil {
					agg.add(st.PTAS)
				}

				r.tr.op++
				r.tr.begin(spOp)
				res, path, rms, rerr := r.sessionStep(prev, prevSched, add, remove, prevLB, b.opts, s.cache)
				replayed = append(replayed, float64(r.tr.end()))
				label := fmt.Sprintf("%s step %d", s.label, s.step)
				switch {
				case rerr != nil:
					r.mismatch("%s: replay failed: %v", label, rerr)
					continue
				case path != st.Path || rms != ms:
					r.mismatch("%s: replay path %v makespan %d, session path %v makespan %d", label, path, rms, st.Path, ms)
				case res != nil && st.PTAS != nil:
					r.checkReplay(label, res, st.PTAS, rms, ms)
				}
				if err := r.afterOp(res, pass == 0); err != nil {
					r.mismatch("%s: %v", label, err)
				}
			}
		}
	}
	return untraced, replayed, agg
}

// sessionStep replays one Session.SolveDelta from the previous instance,
// schedule and certified lower bound: the mutated instance and keep-map,
// the updated lower bound, the LPT repair and its acceptance test and, when
// the repair is not accepted, the warm-bracketed solve; the accepted
// schedule is copied out as SolveDelta copies it. It returns the warm
// solve's replay (nil on the repair path), the path taken and the accepted
// makespan.
func (r *replayer) sessionStep(prev *pcmax.Instance, prevSched *pcmax.Schedule, add []pcmax.Time, remove []int, prevLB pcmax.Time, opts solver.SessionOptions, cache *dp.Cache) (*replayResult, solver.DeltaPath, pcmax.Time, error) {
	tr := r.tr
	next, keep, removed := applyDelta(prev, prevSched, add, remove)
	tr.begin(spValidate)
	err := next.Validate()
	tr.end()
	if err != nil {
		return nil, 0, 0, err
	}
	tr.begin(spBounds)
	newLB := next.LowerBound()
	if v := lb.FromPrevious(prevLB, removed); v > newLB {
		newLB = v
	}
	tr.end()
	tr.begin(spRepair)
	repaired := listsched.Repair(next, keep)
	repairMS := repaired.Makespan(next)
	tr.end()

	eps := opts.PTAS.Epsilon
	limit := max(1, int(opts.RepairFraction*float64(next.N())))
	if len(add)+len(remove) <= limit && float64(repairMS) <= (1+eps)*float64(newLB)+1e-9 {
		return nil, solver.DeltaRepair, repaired.Clone().Makespan(next), nil
	}
	res, err := r.solve(next, solveOpts{eps: eps, workers: opts.PTAS.Workers, warm: &core.Bracket{LB: newLB, UB: repairMS}, cache: cache})
	if err != nil {
		return nil, 0, 0, err
	}
	accepted := res.sched
	if repairMS < accepted.Makespan(next) {
		accepted = repaired
	}
	return res, solver.DeltaWarm, accepted.Clone().Makespan(next), nil
}
