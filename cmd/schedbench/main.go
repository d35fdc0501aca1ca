// Command schedbench regenerates the paper's evaluation: the speedup and
// running-time figures (fig2, fig3, fig4), the approximation-ratio tables
// and panels (ratios = Tables II/III + Figure 5), or everything (all).
//
// Usage:
//
//	schedbench [flags] {fig2|fig3|fig4|ratios|all}
//
// Speedups are printed from the paper's Section IV cost model, calibrated by
// measured sequential fills (see DESIGN.md), next to the measured wall-clock
// numbers for this host.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/exper"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	var (
		reps     = fs.Int("reps", 5, "random instances per type (paper: 20)")
		cores    = fs.String("cores", "1,2,4,8,16", "comma-separated worker counts")
		eps      = fs.Float64("eps", 0.3, "PTAS relative error (paper: 0.3)")
		seed     = fs.Uint64("seed", 2017, "base RNG seed")
		exactSec = fs.Duration("exact-timeout", 30*time.Second, "time limit per exact solve")
		algoSec  = fs.Duration("algo-timeout", 0, "deadline per algorithm invocation (0 = none); timed-out cells are logged and skipped")
		noWall   = fs.Bool("no-wallclock", false, "skip measured wall-clock parallel runs")
		faithful = fs.Bool("paper-faithful", false, "fill with the paper's DP algorithms (Algorithm 2 at 1 worker, Algorithm 3 otherwise) instead of the production fill")
		csv      = fs.Bool("csv", false, "render tables as CSV")
		jsonOut  = fs.Bool("json", false, "dp: also write results to the -out file")
		jsonPath = fs.String("out", benchJSONName, "dp: output path for -json")
		gateSpd  = fs.Float64("gate-speedup", 0, "dp: fail when any production cell's same-run speedup_vs_alg2 falls below this floor; delta: floor on speedup_vs_cold (0 = off)")
		windows  = fs.Int("windows", 5, "dp: measurement windows per cell (lower = faster, noisier)")
		steps    = fs.Int("steps", 12, "delta: 1-job mutations per stream")
		enum     = fs.String("enum", "both", "dp: configuration enumeration modes to bench {faithful|sparse|both}")
		deadline = fs.Duration("deadline", 0, "overall deadline for the whole run (0 = none)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: schedbench [flags] {fig2|fig3|fig4|figS|ratios|epsilon|hard|ablations|dp|delta|variants|all}")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The -out default names the dp artifact; the delta subcommand writes its
	// own artifact unless the caller set -out explicitly.
	outSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name, got %d args", fs.NArg())
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "schedbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "schedbench:", err)
			}
		}()
	}

	cfg := exper.DefaultConfig()
	cfg.Reps = *reps
	cfg.Epsilon = *eps
	cfg.Seed = *seed
	cfg.ExactTimeLimit = *exactSec
	cfg.AlgoTimeout = *algoSec
	cfg.WallClock = !*noWall
	cfg.PaperFaithful = *faithful
	cfg.CSV = *csv
	parsed, err := parseCores(*cores)
	if err != nil {
		return err
	}
	cfg.Cores = parsed

	// One root context bounds the whole run; every experiment entry point
	// threads it down to the innermost solver loops.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	runFig := func(f func(context.Context) (*exper.SpeedupResult, error)) error {
		res, err := f(ctx)
		if err != nil {
			return err
		}
		return res.Render(cfg)
	}
	runRatios := func() error {
		a, err := cfg.RunFig5a(ctx)
		if err != nil {
			return err
		}
		if err := a.Render(cfg, "Table II: best-case instances", "fig5(a): actual approximation ratios (best cases)"); err != nil {
			return err
		}
		b, err := cfg.RunFig5b(ctx)
		if err != nil {
			return err
		}
		return b.Render(cfg, "Table III: worst-case instances", "fig5(b): actual approximation ratios (worst cases)")
	}

	runAblations := func() error {
		res, err := cfg.RunAblations(ctx)
		if err != nil {
			return err
		}
		return res.Render(cfg)
	}

	switch fs.Arg(0) {
	case "fig2":
		return runFig(cfg.RunFig2)
	case "fig3":
		return runFig(cfg.RunFig3)
	case "fig4":
		return runFig(cfg.RunFig4)
	case "figS":
		return runFig(cfg.RunFigS)
	case "ratios":
		return runRatios()
	case "ablations":
		return runAblations()
	case "epsilon":
		res, err := cfg.RunEpsilonSweep(ctx, 20, 100, nil)
		if err != nil {
			return err
		}
		return res.Render(cfg)
	case "dp":
		switch *enum {
		case "faithful", "sparse", "both", "":
		default:
			return fmt.Errorf("bad -enum %q (want faithful, sparse or both)", *enum)
		}
		return runDPBench(ctx, cfg.Cores, cfg.Epsilon, cfg.Seed, dpBenchConfig{
			WriteJSON:  *jsonOut,
			Out:        *jsonPath,
			MinSpeedup: *gateSpd,
			Windows:    *windows,
			Enum:       *enum,
		})
	case "delta":
		out := *jsonPath
		if !outSet {
			out = deltaJSONName
		}
		return runDeltaBench(ctx, cfg.Epsilon, cfg.Seed, deltaBenchConfig{
			WriteJSON:  *jsonOut,
			Out:        out,
			MinSpeedup: *gateSpd,
			Steps:      *steps,
		})
	case "hard":
		res, err := cfg.RunHard(ctx, nil, 0)
		if err != nil {
			return err
		}
		return res.Render(cfg)
	case "variants":
		res, err := cfg.RunVariants(ctx, 3, 10)
		if err != nil {
			return err
		}
		return res.Render(cfg)
	case "all":
		for _, f := range []func(context.Context) (*exper.SpeedupResult, error){cfg.RunFig2, cfg.RunFig3, cfg.RunFig4, cfg.RunFigS} {
			if err := runFig(f); err != nil {
				return err
			}
		}
		if err := runRatios(); err != nil {
			return err
		}
		return runAblations()
	default:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", fs.Arg(0))
	}
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no core counts in %q", s)
	}
	return out, nil
}
