// Epsilon tradeoff: sweep the PTAS accuracy knob and watch the
// quality/effort exchange. Smaller epsilon means a finer rounding grid
// (k = ceil(1/eps) size classes grow quadratically), larger DP tables, more
// machine configurations — and a makespan closer to optimal.
//
// This is the experiment to run before picking epsilon for a production
// deployment of the scheme.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/workload"
	"repro/solver"
)

func main() {
	// A paper-style instance: 20 machines, 100 jobs, medium uniform range.
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 20, N: 100, Seed: 7})
	fmt.Println(in)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	_, res, err := solver.Exact(ctx, in, solver.ExactOptions{})
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal makespan: %d (proved: %v)\n\n", res.Makespan, res.Optimal)

	fmt.Printf("%-8s %-4s %-10s %-9s %-9s %-12s %-10s\n",
		"epsilon", "k", "makespan", "ratio", "iters", "table", "time")
	// The sweep stops at 0.2: the next step (k=7, so k^2=49 size classes)
	// already needs minutes on this instance — the PTAS's exponential
	// dependence on 1/eps is very real.
	for _, eps := range []float64{1.0, 0.5, 0.4, 0.3, 0.25, 0.2} {
		opts := solver.DefaultPTASOptions()
		opts.Epsilon = eps
		start := time.Now()
		sched, st, err := solver.PTAS(context.Background(), in, opts)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		ms := sched.Makespan(in)
		fmt.Printf("%-8.2f %-4d %-10d %-9.4f %-9d %-12d %-10s\n",
			eps, st.K, ms, sched.Ratio(in, res.Makespan), st.Iterations,
			st.TableEntries, elapsed.Round(10*time.Microsecond))
	}

	lpt, err := solver.LPT(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLPT baseline: makespan %d, ratio %.4f\n",
		lpt.Makespan(in), lpt.Ratio(in, res.Makespan))
	fmt.Println("\nNote: the guarantee is (1+eps) but the measured ratio is usually far")
	fmt.Println("better, exactly as the paper's Section V.B reports.")
}
