// Command psched schedules a P||Cmax instance read from a file (or stdin)
// with a chosen algorithm and prints the schedule, makespan and, optionally,
// the approximation ratio against the exact optimum.
//
// Usage:
//
//	psched -algo ptas -eps 0.3 instance.txt
//	psched -algo ptas -deadline 100ms instance.txt
//
// Algorithms are dispatched through the solver registry with variant
// capability checking, so -algo accepts every registered name (ls, lpt,
// multifit, ptas, ptas-sparse, exact, ip, sahni, ptas-tr, brute) plus "all"
// for a comparison table and "auto" to pick the default algorithm for the
// instance's variant (ptas on plain instances, ptas-tr on setup/window
// instances, lpt otherwise). Selecting an algorithm that does not support
// the instance's variant fails with a descriptive error. -deadline bounds
// the whole solve through context cancellation, and -exact-timeout each
// exact and ip solve; an interrupted solve prints the fallback schedule (the
// exact solvers' best incumbent) when the algorithm provides one.
//
// The instance format is the one written by cmd/instgen:
//
//	m 4
//	10 7 7 5 5 4 4 3
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/pcmax"
	"repro/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psched:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("psched", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "ptas", "algorithm name from the solver registry, all (comparison table), or auto (pick by instance variant)")
		eps      = fs.Float64("eps", 0.3, "PTAS relative error")
		ratio    = fs.Bool("ratio", false, "also solve exactly and print the actual approximation ratio")
		gantt    = fs.Bool("gantt", false, "print the per-machine job lists")
		asJSON   = fs.Bool("json", false, "emit the schedule as JSON instead of text")
		timeout  = fs.Duration("exact-timeout", time.Minute, "time limit for exact solves")
		deadline = fs.Duration("deadline", 0, "overall deadline for the solve (0 = none); interrupted solves print the fallback schedule when available")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: psched [flags] [instance-file]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	default:
		fs.Usage()
		return fmt.Errorf("at most one instance file, got %d args", fs.NArg())
	}
	in, err := pcmax.ReadText(r)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var opts solver.Options
	opts.PTAS = solver.DefaultPTASOptions()
	opts.PTAS.Epsilon = *eps
	opts.TR = solver.TROptions{Epsilon: *eps}

	if *algo == "all" {
		return compareAll(ctx, stdout, in, opts, *timeout)
	}
	name := *algo
	if name == "auto" {
		name = solver.DefaultAlgorithm(in.Variant())
		fmt.Fprintf(stdout, "auto: instance variant %s, selected %s\n", in.Variant(), name)
	}

	sched, rep, err := solve(ctx, name, in, opts, *timeout)
	if err != nil {
		if !errors.Is(err, solver.ErrCanceled) || sched == nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: interrupted (%v), showing fallback schedule\n", name, err)
	}
	if rep.PTAS != nil && !rep.Interrupted {
		st := rep.PTAS
		fmt.Fprintf(stdout, "ptas: k=%d iterations=%d finalT=%d table=%d entries, %d configs\n",
			st.K, st.Iterations, st.FinalT, st.TableEntries, st.Configs)
	}
	if rep.TR != nil && !rep.Interrupted {
		st := rep.TR
		mode := "grouped"
		if st.Exact {
			mode = "exact"
		}
		fmt.Fprintf(stdout, "ptas-tr: %s mode, iterations=%d finalT=%d classes=%d configs=%d states=%d\n",
			mode, st.Iterations, st.FinalT, st.SizeClasses, st.Configs, st.States)
	}
	if rep.Exact != nil && !rep.Exact.Optimal {
		fmt.Fprintf(stdout, "%s: limit reached, best incumbent shown (lower bound %d)\n", name, rep.Exact.LowerBound)
	}

	if *asJSON {
		out := struct {
			Algorithm string          `json:"algorithm"`
			Makespan  int64           `json:"makespan"`
			Seconds   float64         `json:"seconds"`
			Schedule  *pcmax.Schedule `json:"schedule"`
		}{name, int64(sched.Makespan(in)), rep.Elapsed.Seconds(), sched}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	if v := in.Variant(); v == pcmax.Plain {
		fmt.Fprintf(stdout, "instance: m=%d n=%d sum=%d max=%d (lower bound %d)\n",
			in.M, in.N(), in.TotalTime(), in.MaxTime(), in.LowerBound())
	} else {
		fmt.Fprintf(stdout, "instance: m=%d n=%d sum=%d max=%d variant=%s (lower bound %d)\n",
			in.M, in.N(), in.TotalTime(), in.MaxTime(), v, in.LowerBound())
	}
	fmt.Fprintf(stdout, "%s makespan: %d (%.3fms)\n", name, sched.Makespan(in), rep.Elapsed.Seconds()*1000)
	if *gantt {
		fmt.Fprint(stdout, sched.Gantt(in))
	}
	if *ratio {
		refName := referenceAlgorithm(in)
		_, exRep, err := solve(ctx, refName, in, opts, *timeout)
		if err != nil && !errors.Is(err, solver.ErrCanceled) {
			return err
		}
		qual := "optimal"
		if exRep.Exact == nil || !exRep.Exact.Optimal {
			qual = "best known (limit reached)"
		}
		fmt.Fprintf(stdout, "%s makespan: %d (%s), actual ratio %.4f\n",
			refName, exRep.Exact.Makespan, qual, sched.Ratio(in, exRep.Exact.Makespan))
	}
	return nil
}

// solve runs the named algorithm through the registry under ctx, narrowed
// for the exact and ip solvers by exactTimeout when it is positive. A solve
// that runs into that deadline returns its incumbent next to an error
// matching solver.ErrDeadline.
func solve(ctx context.Context, name string, in *pcmax.Instance, opts solver.Options, exactTimeout time.Duration) (*pcmax.Schedule, solver.Report, error) {
	if (name == "exact" || name == "ip") && exactTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, exactTimeout)
		defer cancel()
	}
	return solver.Solve(ctx, name, in, opts)
}

// referenceAlgorithm picks the certified-optimal reference for ratio
// reporting: the branch-and-bound on plain instances, the exhaustive variant
// solver otherwise (it is the only certified optimum for release/setup/window
// instances; it caps n, so ratio tables for large variant instances fail with
// its descriptive error).
func referenceAlgorithm(in *pcmax.Instance) string {
	if in.Variant() == pcmax.Plain {
		return "exact"
	}
	return "brute"
}

// compareAll runs every registered algorithm on the instance and prints one
// comparison row per algorithm, with ratios against the reference optimum
// (the branch-and-bound on plain instances, the exhaustive variant solver
// otherwise). Algorithms that fail (e.g. sahni beyond its machine budget),
// don't support the instance's variant, or run into the deadline are logged
// as such instead of aborting the table.
func compareAll(ctx context.Context, stdout io.Writer, in *pcmax.Instance, opts solver.Options, exactTimeout time.Duration) error {
	refName := referenceAlgorithm(in)
	refSched, res, err := solve(ctx, refName, in, opts, exactTimeout)
	if err != nil && !errors.Is(err, solver.ErrCanceled) {
		return err
	}
	if refSched == nil {
		return fmt.Errorf("%s reference unavailable: %w", refName, err)
	}
	opt := res.Exact.Makespan
	qual := "optimal"
	if !res.Exact.Optimal {
		qual = "best known (limit reached)"
	}
	if v := in.Variant(); v == pcmax.Plain {
		fmt.Fprintf(stdout, "instance: m=%d n=%d sum=%d lower-bound=%d\n", in.M, in.N(), in.TotalTime(), in.LowerBound())
	} else {
		fmt.Fprintf(stdout, "instance: m=%d n=%d sum=%d lower-bound=%d variant=%s\n",
			in.M, in.N(), in.TotalTime(), in.LowerBound(), v)
	}
	fmt.Fprintf(stdout, "reference: %s makespan %d (%s)\n\n", refName, opt, qual)
	fmt.Fprintf(stdout, "%-11s %-10s %-8s %-12s\n", "algorithm", "makespan", "ratio", "time")

	for _, name := range solver.Names() {
		var (
			sched *pcmax.Schedule
			rep   solver.Report
			err   error
		)
		if name == refName {
			sched, rep = refSched, res // don't pay the reference solve twice
		} else {
			sched, rep, err = solve(ctx, name, in, opts, exactTimeout)
		}
		switch {
		case errors.Is(err, solver.ErrUnsupportedVariant):
			fmt.Fprintf(stdout, "%-11s %-10s %-8s unsupported variant %s\n", name, "-", "-", in.Variant())
		case err != nil && errors.Is(err, solver.ErrCanceled) && sched != nil:
			fmt.Fprintf(stdout, "%-11s %-10d %-8.4f %-12s (interrupted, fallback)\n",
				name, sched.Makespan(in), sched.Ratio(in, opt), rep.Elapsed.Round(time.Microsecond))
		case err != nil:
			fmt.Fprintf(stdout, "%-11s %-10s %-8s %v\n", name, "-", "-", err)
		default:
			fmt.Fprintf(stdout, "%-11s %-10d %-8.4f %-12s\n",
				name, sched.Makespan(in), sched.Ratio(in, opt), rep.Elapsed.Round(time.Microsecond))
		}
	}
	return nil
}
