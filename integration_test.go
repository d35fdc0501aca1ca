package repro

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/exper"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// TestEndToEndPipeline drives the whole system the way cmd/schedbench does:
// generate a paper-family instance, serialize it through the text format,
// solve it with every algorithm, and cross-check the ordering of results.
func TestEndToEndPipeline(t *testing.T) {
	for _, fam := range workload.Families {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			n := 40
			if fam == workload.Um_2m1 {
				n = 2*8 + 1
			}
			in := workload.MustGenerate(workload.Spec{Family: fam, M: 8, N: n, Seed: 99})

			// Round-trip the instance through the on-disk format.
			var buf bytes.Buffer
			if err := pcmax.WriteText(&buf, in); err != nil {
				t.Fatal(err)
			}
			loaded, err := pcmax.ReadText(&buf)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			exactSched, res, err := solver.Exact(ctx, loaded, solver.ExactOptions{})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal {
				t.Skipf("optimum not proved for %v within limits", fam)
			}
			opt := exactSched.Makespan(loaded)

			ptasSeq, _, err := solver.PTAS(context.Background(), loaded, solver.DefaultPTASOptions())
			if err != nil {
				t.Fatal(err)
			}
			parOpts := solver.DefaultPTASOptions()
			parOpts.Workers = 4
			ptasPar, _, err := solver.PTAS(context.Background(), loaded, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			lpt, err := solver.LPT(context.Background(), loaded)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := solver.LS(context.Background(), loaded)
			if err != nil {
				t.Fatal(err)
			}
			mf, err := solver.MultiFit(context.Background(), loaded)
			if err != nil {
				t.Fatal(err)
			}

			if ptasSeq.Makespan(loaded) != ptasPar.Makespan(loaded) {
				t.Fatalf("parallel PTAS %d != sequential %d", ptasPar.Makespan(loaded), ptasSeq.Makespan(loaded))
			}
			for name, s := range map[string]*pcmax.Schedule{
				"ptas": ptasSeq, "lpt": lpt, "ls": ls, "multifit": mf,
			} {
				if err := s.Validate(loaded); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if s.Makespan(loaded) < opt {
					t.Fatalf("%s beat the proved optimum: %d < %d", name, s.Makespan(loaded), opt)
				}
			}
			if r := ptasSeq.Ratio(loaded, opt); r > 1.3+1e-9 {
				t.Fatalf("PTAS ratio %.4f above 1.3", r)
			}
			if r := ls.Ratio(loaded, opt); r > 2.0+1e-9 {
				t.Fatalf("LS ratio %.4f above 2", r)
			}
			if r := lpt.Ratio(loaded, opt); r > 4.0/3.0+1e-9 {
				t.Fatalf("LPT ratio %.4f above 4/3", r)
			}
		})
	}
}

// TestHarnessSmoke runs a miniature version of every experiment the paper
// reports, rendering into a buffer, as an executable table of contents for
// the reproduction.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke is not short")
	}
	var out bytes.Buffer
	cfg := exper.DefaultConfig()
	cfg.Reps = 1
	cfg.Cores = []int{1, 4}
	cfg.WallClock = false
	cfg.ExactTimeLimit = 10 * time.Second
	cfg.ExactNodeLimit = 1_000_000
	cfg.Out = &out

	fig, err := cfg.RunSpeedupFigure(context.Background(), "mini2", 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Render(cfg); err != nil {
		t.Fatal(err)
	}
	ratios, err := cfg.RunRatioFigure(context.Background(), "mini5", []exper.RatioInstance{
		{ID: "M1", Fam: workload.Um_2m1, M: 4, N: 9},
		{ID: "M2", Fam: workload.U1_100, M: 4, N: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ratios.Render(cfg, "mini tables", "mini ratios"); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("harness produced no output")
	}
	// The adversarial mini-instance must show the PTAS beating LPT, the
	// paper's central ratio observation.
	if ratios.PTAS[0] >= ratios.LPT[0] {
		t.Fatalf("on the adversarial family the PTAS (%.3f) should beat LPT (%.3f)",
			ratios.PTAS[0], ratios.LPT[0])
	}
}
