// Quickstart: build a P||Cmax instance, solve it with the parallel PTAS and
// the classical baselines, and print the schedules.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pcmax"
	"repro/solver"
)

func main() {
	// Eight jobs with known processing times on three identical machines.
	in, err := pcmax.NewInstance(3, []pcmax.Time{27, 19, 18, 12, 11, 9, 4, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(in)
	fmt.Printf("lower bound on the optimal makespan: %d\n\n", in.LowerBound())

	// The PTAS: (1+eps)-approximation.
	opts := solver.DefaultPTASOptions()
	opts.Epsilon = 0.2
	sched, st, err := solver.PTAS(context.Background(), in, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel PTAS (eps=%.1f, k=%d): makespan %d after %d bisection iterations (final T=%d)\n",
		opts.Epsilon, st.K, sched.Makespan(in), st.Iterations, st.FinalT)
	fmt.Print(sched.Gantt(in))

	// Classical baselines for comparison.
	lpt, err := solver.LPT(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	ls, err := solver.LS(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLPT makespan: %d\nLS  makespan: %d\n", lpt.Makespan(in), ls.Makespan(in))

	// And the certified optimum.
	_, res, err := solver.Exact(context.Background(), in, solver.ExactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal makespan: %d (proved: %v)\n", res.Makespan, res.Optimal)
	fmt.Printf("PTAS actual ratio: %.4f (guarantee: %.1f)\n",
		sched.Ratio(in, res.Makespan), 1+opts.Epsilon)
}
