package solver

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/workload"
	"repro/pcmax"
)

func sessionInstance(t testing.TB, fam workload.Family, m, n int, seed uint64) *pcmax.Instance {
	t.Helper()
	in, err := workload.Generate(workload.Spec{Family: fam, M: m, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewSessionRejectsBadEpsilon(t *testing.T) {
	if _, err := NewSession(SessionOptions{}); err == nil {
		t.Fatal("zero Epsilon accepted")
	}
}

func TestSessionColdSolveThenAccessors(t *testing.T) {
	in := sessionInstance(t, workload.U1_100, 5, 40, 1)
	s, err := NewSession(DefaultSessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Schedule(); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("pre-solve Schedule err = %v, want ErrNoSolution", err)
	}
	sched, st, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path != DeltaCold || st.PTAS == nil {
		t.Fatalf("cold solve stats = %+v", st)
	}
	if err := sched.Validate(in); err != nil {
		t.Fatal(err)
	}
	got, ms, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if ms != sched.Makespan(in) {
		t.Fatalf("accessor makespan %d != returned %d", ms, sched.Makespan(in))
	}
	// The accessor must hand out a copy, not the live state.
	got.Assignment[0] = -99
	again, _, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if again.Assignment[0] == -99 {
		t.Fatal("Schedule returned the session's live schedule")
	}
	if lb := s.LowerBound(); lb <= 0 || lb > ms {
		t.Fatalf("certified LB %d outside (0, %d]", lb, ms)
	}
}

func TestSessionSolveDeltaBeforeSolve(t *testing.T) {
	s, err := NewSession(DefaultSessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SolveDelta(context.Background(), []pcmax.Time{5}, nil); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestSessionRejectsVariantInstances(t *testing.T) {
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{3, 4}, Release: []pcmax.Time{0, 5}}
	s, err := NewSession(DefaultSessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Solve(context.Background(), in)
	if !errors.Is(err, ErrUnsupportedVariant) {
		t.Fatalf("err = %v, want ErrUnsupportedVariant", err)
	}
	var verr *VariantError
	if !errors.As(err, &verr) || verr.Algorithm != "session" {
		t.Fatalf("err = %v, want *VariantError for \"session\"", err)
	}
}

func TestSessionBadDeltasLeaveStateUntouched(t *testing.T) {
	in := sessionInstance(t, workload.U1_100, 5, 30, 2)
	opts := DefaultSessionOptions()
	opts.RepairFraction = -1 // a delta that gets past validation reaches the warm solve
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	before, beforeMS, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	beforeLB := s.LowerBound()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bad := []struct {
		name   string
		ctx    context.Context
		add    []pcmax.Time
		remove []int
		want   error
	}{
		{"out of range", context.Background(), nil, []int{30}, ErrBadDelta},
		{"negative index", context.Background(), nil, []int{-1}, ErrBadDelta},
		{"repeated index", context.Background(), nil, []int{3, 3}, ErrBadDelta},
		{"non-positive time", context.Background(), []pcmax.Time{0}, nil, ErrBadDelta},
		// These two fail only after the mutated instance was built and its
		// keep-map repaired in place.
		{"time over the cap", context.Background(), []pcmax.Time{pcmax.MaxTimeValue + 1}, []int{0}, ErrBadDelta},
		{"canceled warm solve", canceled, []pcmax.Time{77, 78}, []int{1, 5}, ErrCanceled},
	}
	for _, c := range bad {
		if _, _, err := s.SolveDelta(c.ctx, c.add, c.remove); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	after, afterMS, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if afterMS != beforeMS || !slices.Equal(after.Assignment, before.Assignment) || s.LowerBound() != beforeLB {
		t.Fatal("failed delta mutated the session state")
	}
	if !slices.Equal(s.Instance().Times, in.Times) {
		t.Fatal("failed delta mutated the session instance")
	}
}

func TestSessionDeltaSmallMutation(t *testing.T) {
	in := sessionInstance(t, workload.U1_100, 10, 100, 3)
	s, err := NewSession(DefaultSessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	sched, st, err := s.SolveDelta(context.Background(), []pcmax.Time{57}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 100 || st.Added != 1 || st.Removed != 1 {
		t.Fatalf("delta stats = %+v", st)
	}
	cur := s.Instance()
	if err := sched.Validate(cur); err != nil {
		t.Fatal(err)
	}
	// The accepted makespan must satisfy the certificate against the
	// updated certified lower bound regardless of path.
	eps := DefaultSessionOptions().PTAS.Epsilon
	if float64(st.Makespan) > (1+eps)*float64(st.LowerBound)+1e-9 &&
		st.Path == DeltaRepair {
		t.Fatalf("repair accepted outside certificate: %+v", st)
	}
	// Mutation semantics: survivor order is preserved, added job appended.
	if cur.N() != 100 || cur.Times[99] != 57 {
		t.Fatalf("mutated instance wrong: n=%d last=%d", cur.N(), cur.Times[99])
	}
	if cur.Times[3] != in.Times[4] {
		t.Fatalf("removal did not compact: got %d want %d", cur.Times[3], in.Times[4])
	}
}

func TestSessionRepairFractionDisablesRepair(t *testing.T) {
	in := sessionInstance(t, workload.U1_100, 10, 100, 4)
	opts := DefaultSessionOptions()
	opts.RepairFraction = -1
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	_, st, err := s.SolveDelta(context.Background(), []pcmax.Time{10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Path == DeltaRepair {
		t.Fatal("repair path ran despite RepairFraction < 0")
	}
	if st.PTAS == nil {
		t.Fatal("warm path reported no PTAS stats")
	}
}

func TestSessionDrainToEmptyAndRegrow(t *testing.T) {
	in := sessionInstance(t, workload.U1_10, 4, 20, 5)
	s, err := NewSession(DefaultSessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	all := make([]int, in.N())
	for j := range all {
		all[j] = j
	}
	sched, st, err := s.SolveDelta(context.Background(), nil, all)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 0 || len(sched.Assignment) != 0 || st.Makespan != 0 {
		t.Fatalf("drained state = %+v", st)
	}
	// Regrow from empty.
	sched, st, err = s.SolveDelta(context.Background(), []pcmax.Time{9, 7, 5, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 4 {
		t.Fatalf("regrown stats = %+v", st)
	}
	if err := sched.Validate(s.Instance()); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCounters(t *testing.T) {
	in := sessionInstance(t, workload.U1_100, 10, 100, 6)
	s, err := NewSession(DefaultSessionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.SolveDelta(context.Background(), []pcmax.Time{20 + pcmax.Time(i)}, []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Counters()
	if c.Solves != 4 || c.Cold+c.Warm+c.Repairs != 4 || c.Cold < 1 {
		t.Fatalf("counters = %+v", c)
	}
}
