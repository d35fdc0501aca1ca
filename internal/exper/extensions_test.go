package exper

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestRunEpsilonSweepSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	res, err := cfg.RunEpsilonSweep(context.Background(), 4, 20, []float64{1.0, 0.5, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Failures != 0 {
			t.Fatalf("eps=%v: %d failures", p.Epsilon, p.Failures)
		}
		if p.MeanRatio < 1.0-1e-9 || p.MeanRatio > 1+p.Epsilon+1e-9 {
			t.Fatalf("eps=%v: mean ratio %v outside [1, 1+eps]", p.Epsilon, p.MeanRatio)
		}
		if p.WorstRatio < p.MeanRatio-1e-9 {
			t.Fatalf("eps=%v: worst %v below mean %v", p.Epsilon, p.WorstRatio, p.MeanRatio)
		}
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Epsilon sweep") {
		t.Fatalf("render output:\n%s", out.String())
	}
}

func TestRunEpsilonSweepDefaultGridParses(t *testing.T) {
	// Every grid point must map to a valid k; this guards the default grid
	// against values that KFor rejects.
	for _, eps := range DefaultEpsilonGrid {
		if eps <= 0 {
			t.Fatalf("bad grid point %v", eps)
		}
	}
}

func TestRunAblationsSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	res, err := cfg.RunAblations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	for _, row := range res.Rows {
		groups[row.Group]++
		if row.Seconds <= 0 {
			t.Fatalf("%s/%s: non-positive time", row.Group, row.Variant)
		}
	}
	for _, g := range []string{
		"DP fill (1 workers)", "DP fill (4 workers)", "short-job rule",
		"exact incumbent",
	} {
		if groups[g] < 2 {
			t.Fatalf("group %q has %d variants", g, groups[g])
		}
	}
	// Every PTAS variant on the same instances must report the same worst
	// makespan except the short-job rule (which legitimately differs).
	var ref *AblationRow
	for i := range res.Rows {
		row := &res.Rows[i]
		if row.Makespan == 0 || row.Group == "short-job rule" {
			continue
		}
		if ref == nil {
			ref = row
			continue
		}
		if row.Makespan != ref.Makespan {
			t.Fatalf("%s/%s makespan %d != %s/%s %d — variants must be behaviour-preserving",
				row.Group, row.Variant, row.Makespan, ref.Group, ref.Variant, ref.Makespan)
		}
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ablations") {
		t.Fatal("render missing title")
	}
}

func TestRunFigSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figS is not short")
	}
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.WallClock = false
	cfg.Cores = []int{1, 8}
	res, err := cfg.RunFigS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoIP {
		t.Fatal("figS must skip the IP baseline")
	}
	// The adversarial family at m=40 has the largest tables; its simulated
	// speedup at 8 cores must clearly exceed 1.
	adv := res.SimSpeedupPTAS[workload.Um_2m1]
	if adv[len(adv)-1] < 4 {
		t.Fatalf("scaled adversarial speedup %v too small for 8 cores", adv)
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "(b):") {
		t.Fatal("IP panel rendered for figS")
	}
}

func TestSkipIPMeasurement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reps = 1
	cfg.Cores = []int{1}
	cfg.WallClock = false
	cfg.SkipIP = true
	cfg.ExactTimeLimit = time.Second
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 4, N: 16, Seed: 2})
	meas, err := cfg.measure(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if meas.exactSeconds != 0 || meas.ipProven {
		t.Fatalf("IP ran despite SkipIP: %+v", meas)
	}
	if meas.lptMakespan == 0 || meas.lsMakespan == 0 {
		t.Fatal("baselines skipped")
	}
}

func TestRunHardSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	res, err := cfg.RunHard(context.Background(), []int{3, 4}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PTASRatio < 1 || row.PTASRatio > 1.3+1e-9 {
			t.Fatalf("m=%d: PTAS ratio %v outside guarantee", row.M, row.PTASRatio)
		}
		if row.BinCompletion <= 0 || row.AssignmentIP <= 0 || row.ParallelExact4 <= 0 {
			t.Fatalf("m=%d: non-positive timings %+v", row.M, row)
		}
	}
	if err := res.Render(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triplet") {
		t.Fatal("render missing title")
	}
}

func TestMeasurePaperFaithful(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reps = 1
	cfg.Cores = []int{1, 2}
	cfg.PaperFaithful = true
	cfg.ExactTimeLimit = 5 * time.Second
	cfg.ExactNodeLimit = 1_000_000
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 4, N: 16, Seed: 6})
	meas, err := cfg.measure(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// The faithful variants compute the same schedule, just slower.
	ref := cfg
	ref.PaperFaithful = false
	refMeas, err := ref.measure(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if meas.ptasMakespan != refMeas.ptasMakespan {
		t.Fatalf("faithful makespan %d != optimized %d", meas.ptasMakespan, refMeas.ptasMakespan)
	}
}
