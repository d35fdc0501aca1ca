package exper

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/solver"
)

// tinyConfig keeps harness tests fast: one rep, two core counts, small
// instances, tight exact limits.
func tinyConfig(out *bytes.Buffer) Config {
	cfg := DefaultConfig()
	cfg.Reps = 1
	cfg.Cores = []int{1, 2}
	cfg.ExactTimeLimit = 5 * time.Second
	cfg.ExactNodeLimit = 2_000_000
	cfg.Out = out
	return cfg
}

func TestValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reps = 0
	if err := cfg.validate(); err == nil {
		t.Fatal("want error for Reps=0")
	}
	cfg = DefaultConfig()
	cfg.Epsilon = -1
	if err := cfg.validate(); err == nil {
		t.Fatal("want error for bad epsilon")
	}
	cfg = DefaultConfig()
	cfg.Cores = nil
	if err := cfg.validate(); err == nil {
		t.Fatal("want error for empty cores")
	}
	cfg = DefaultConfig()
	cfg.Cores = []int{2, 0}
	if err := cfg.validate(); err == nil {
		t.Fatal("want error for zero core count")
	}
}

func TestSpecForDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := cfg.specFor(workload.U1_100, 5, 10, 3)
	b := cfg.specFor(workload.U1_100, 5, 10, 3)
	if a != b {
		t.Fatal("specFor not deterministic")
	}
	if a == cfg.specFor(workload.U1_100, 5, 10, 4) {
		t.Fatal("reps must differ")
	}
}

func TestRunSpeedupFigureSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	res, err := cfg.RunSpeedupFigure(context.Background(), "figT", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 4 || res.N != 16 || len(res.Cores) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	for _, fam := range res.Families {
		if res.SeqPTAS[fam] <= 0 {
			t.Fatalf("%v: non-positive sequential time", fam)
		}
		if len(res.SimSpeedupPTAS[fam]) != 2 {
			t.Fatalf("%v: speedup series length %d", fam, len(res.SimSpeedupPTAS[fam]))
		}
		// 1 core means speedup 1 by definition of the model.
		if s := res.SimSpeedupPTAS[fam][0]; s < 0.99 || s > 1.01 {
			t.Fatalf("%v: simulated speedup at 1 core = %v, want ~1", fam, s)
		}
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"figT(a)", "figT(b)", "figT(c)", "U(1,100)", "cores"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

func TestRunSpeedupFigureNoWallClock(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.WallClock = false
	res, err := cfg.RunSpeedupFigure(context.Background(), "figT", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "figT(a')") {
		t.Fatal("wall-clock panel rendered despite WallClock=false")
	}
}

func TestRunSpeedupFigureCSV(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.CSV = true
	cfg.WallClock = false
	res, err := cfg.RunSpeedupFigure(context.Background(), "figT", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `cores,"U(1,2m-1)"`) {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
}

func TestRunRatioFigureSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	instances := []RatioInstance{
		{ID: "T1", Fam: workload.U1_10, M: 3, N: 12, Note: "tiny"},
		{ID: "T2", Fam: workload.Um_2m1, M: 3, N: 7, Note: "adversarial"},
	}
	res, err := cfg.RunRatioFigure(context.Background(), "figR", instances)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PTAS) != 2 || len(res.LPT) != 2 || len(res.LS) != 2 {
		t.Fatalf("series lengths: %+v", res)
	}
	for i, ri := range instances {
		for algo, ratio := range map[string]float64{
			"ptas": res.PTAS[i], "lpt": res.LPT[i], "ls": res.LS[i],
		} {
			if ratio < 1.0-1e-9 {
				t.Fatalf("%s %s ratio %v below 1 — optimum must not be beaten", ri.ID, algo, ratio)
			}
			if ratio > 2.0 {
				t.Fatalf("%s %s ratio %v above the LS guarantee", ri.ID, algo, ratio)
			}
		}
		// The PTAS at eps=0.3 must respect its guarantee.
		if res.PTAS[i] > 1.3+1e-9 {
			t.Fatalf("%s PTAS ratio %v breaks the 1.3 guarantee", ri.ID, res.PTAS[i])
		}
	}
	if err := res.Render(cfg, "inventory", "panel"); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"inventory", "panel", "T1", "T2", "parallel PTAS", "LPT", "LS"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

func TestTableIIandIIIWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, ri := range append(TableII(), TableIII()...) {
		if seen[ri.ID] {
			t.Fatalf("duplicate instance id %s", ri.ID)
		}
		seen[ri.ID] = true
		if ri.M < 1 || ri.N < 1 {
			t.Fatalf("%s has degenerate dimensions", ri.ID)
		}
		if _, err := workload.Generate(workload.Spec{Family: ri.Fam, M: ri.M, N: ri.N, Seed: 1}); err != nil {
			t.Fatalf("%s cannot generate: %v", ri.ID, err)
		}
	}
	if len(TableII()) != 6 || len(TableIII()) != 6 {
		t.Fatal("tables must have six instances each, like the paper")
	}
}

func TestMeasureParallelMatchesSequential(t *testing.T) {
	// measure() itself asserts the parallel makespan equals the sequential
	// one; a successful run of a wall-clock config is the assertion.
	cfg := DefaultConfig()
	cfg.Reps = 1
	cfg.Cores = []int{1, 3}
	cfg.ExactTimeLimit = 5 * time.Second
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 4, N: 20, Seed: 11})
	meas, err := cfg.measure(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if meas.ptasMakespan < meas.optMakespan {
		t.Fatalf("PTAS %d beat the optimum %d", meas.ptasMakespan, meas.optMakespan)
	}
	if meas.lsMakespan < meas.optMakespan || meas.lptMakespan < meas.optMakespan {
		t.Fatal("baseline beat the optimum")
	}
}

func TestRunAlgoTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AlgoTimeout = time.Nanosecond // expires before the solve starts
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 4, N: 16, Seed: 9})
	sched, rep, err := cfg.runAlgo(context.Background(), "ptas", in, cfg.ptasOptions(1))
	if !errors.Is(err, solver.ErrCanceled) {
		t.Fatalf("error %v does not match solver.ErrCanceled", err)
	}
	if sched == nil {
		t.Fatal("timed-out PTAS cell lost its fallback schedule")
	}
	if !rep.Interrupted {
		t.Fatal("timed-out cell not marked interrupted")
	}

	// Without a timeout the same dispatch completes.
	cfg.AlgoTimeout = 0
	if _, _, err := cfg.runAlgo(context.Background(), "ptas", in, cfg.ptasOptions(1)); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutPicksTheTighterDeadline pins which deadline bounds each
// invocation: AlgoTimeout for every algorithm, and for the exact and IP
// solvers ExactTimeLimit when it is set and tighter.
func TestTimeoutPicksTheTighterDeadline(t *testing.T) {
	for _, tc := range []struct {
		algo, exact time.Duration
		want        map[string]time.Duration
	}{
		{0, 0, map[string]time.Duration{"ptas": 0, "exact": 0, "ip": 0}},
		{0, time.Second, map[string]time.Duration{"ptas": 0, "exact": time.Second, "ip": time.Second}},
		{2 * time.Second, time.Second, map[string]time.Duration{"ptas": 2 * time.Second, "exact": time.Second, "ip": time.Second}},
		{time.Second, 2 * time.Second, map[string]time.Duration{"ptas": time.Second, "exact": time.Second, "ip": time.Second}},
		{time.Second, 0, map[string]time.Duration{"ptas": time.Second, "exact": time.Second, "ip": time.Second}},
	} {
		cfg := Config{AlgoTimeout: tc.algo, ExactTimeLimit: tc.exact}
		for name, want := range tc.want {
			if got := cfg.timeout(name); got != want {
				t.Errorf("AlgoTimeout %v, ExactTimeLimit %v: timeout(%q) = %v, want %v", tc.algo, tc.exact, name, got, want)
			}
		}
	}
}
