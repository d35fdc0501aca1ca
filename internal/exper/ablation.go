package exper

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// AblationRow is one measured design variant.
type AblationRow struct {
	Group    string
	Variant  string
	Seconds  float64    // mean wall-clock over the reps
	Makespan pcmax.Time // worst makespan over the reps
}

// AblationResult is the output of RunAblations.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblations measures the design choices DESIGN.md calls out, each over
// cfg.Reps instances of the LPT-adversarial family at m=20 (whose DP tables
// are the largest among the paper's instance shapes):
//
//   - DP fill at 1 and at 4 workers: the production fill vs the paper's
//     algorithms (core.Options.PaperFaithful: Algorithm 2 at 1 worker, the
//     Parallel DP of Algorithm 3 at 4, both with per-entry configuration
//     enumeration)
//   - short-job rule: LPT (paper) vs LS (original Hochbaum–Shmoys)
//   - exact-solver incumbent: LPT+MultiFit vs LPT only
func (cfg Config) RunAblations(ctx context.Context) (*AblationResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &AblationResult{}

	instances := make([]*pcmax.Instance, cfg.Reps)
	for rep := range instances {
		in, err := workload.Generate(cfg.specFor(workload.Um_2m1, 20, 41, rep))
		if err != nil {
			return nil, err
		}
		instances[rep] = in
	}

	// The ablation variants toggle internal core knobs (the short-job rule,
	// ...) the public registry options deliberately don't expose, so this
	// driver calls core.Solve directly — still under the per-algorithm
	// timeout, with timed-out cells logged and skipped.
	solveVariant := func(group, variant string, opts core.Options) error {
		var total float64
		var worst pcmax.Time
		for _, in := range instances {
			actx, cancel := cfg.algoCtx(ctx, "ptas")
			t0 := time.Now()
			sched, _, err := core.Solve(actx, in, opts)
			cancel()
			if err != nil {
				if errors.Is(err, solver.ErrCanceled) {
					fmt.Fprintf(os.Stderr, "exper: ablation %s/%s timed out after %v; cell skipped\n",
						group, variant, cfg.AlgoTimeout)
					return nil
				}
				return fmt.Errorf("%s/%s: %w", group, variant, err)
			}
			total += time.Since(t0).Seconds()
			if ms := sched.Makespan(in); ms > worst {
				worst = ms
			}
		}
		res.Rows = append(res.Rows, AblationRow{
			Group: group, Variant: variant,
			Seconds: total / float64(len(instances)), Makespan: worst,
		})
		return nil
	}

	eps := cfg.Epsilon
	for _, workers := range []int{1, 4} {
		group := fmt.Sprintf("DP fill (%d workers)", workers)
		if err := solveVariant(group, "production",
			core.Options{Epsilon: eps, Workers: workers}); err != nil {
			return nil, err
		}
		if err := solveVariant(group, "paper",
			core.Options{Epsilon: eps, Workers: workers, PaperFaithful: true}); err != nil {
			return nil, err
		}
	}
	for rule, name := range map[core.ShortRule]string{core.ShortLPT: "LPT (paper)", core.ShortLS: "LS (Hochbaum–Shmoys)"} {
		if err := solveVariant("short-job rule", name,
			core.Options{Epsilon: eps, ShortRule: rule}); err != nil {
			return nil, err
		}
	}

	for _, disable := range []bool{false, true} {
		name := "LPT+MultiFit"
		if disable {
			name = "LPT only"
		}
		var total float64
		for _, in := range instances {
			actx, cancel := cfg.algoCtx(ctx, "exact")
			t0 := time.Now()
			// DisableMultiFitIncumbent is likewise internal-only; the exact
			// solver's MIP contract turns a timeout into a bounded run, so
			// the cell stays usable.
			_, _, err := exact.Solve(actx, in, exact.Options{
				NodeLimit:                cfg.ExactNodeLimit,
				DisableMultiFitIncumbent: disable,
			})
			cancel()
			if err != nil {
				return nil, err
			}
			total += time.Since(t0).Seconds()
		}
		res.Rows = append(res.Rows, AblationRow{
			Group: "exact incumbent", Variant: name,
			Seconds: total / float64(len(instances)),
		})
	}
	return res, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render(cfg Config) error {
	tbl := stats.NewTable(
		fmt.Sprintf("Ablations on U(m,2m-1) m=20 n=41 (eps=%.2f, %d instances per variant)", cfg.Epsilon, cfg.Reps),
		"group", "variant", "mean time (s)", "worst makespan")
	for _, row := range r.Rows {
		ms := ""
		if row.Makespan > 0 {
			ms = fmt.Sprintf("%d", row.Makespan)
		}
		tbl.AddRow(row.Group, row.Variant, fmt.Sprintf("%.6f", row.Seconds), ms)
	}
	if cfg.CSV {
		return tbl.RenderCSV(cfg.out())
	}
	return tbl.Render(cfg.out())
}
