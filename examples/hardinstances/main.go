// Hardinstances: when is a (1+eps) guarantee worth more than an exact
// answer? This example builds "triplet" instances — 3-partition-shaped
// workloads where a perfect schedule exists but exact solvers must
// essentially solve 3-PARTITION to find it — and watches the IP-style
// branch-and-bound blow up with m while the parallel PTAS stays flat and
// still lands within a few percent of the (known) optimum.
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
	const b = 400 // every machine's perfect load
	fmt.Println("triplet instances: n = 3m jobs, perfect makespan B =", b)
	fmt.Printf("\n%-4s %-6s %-14s %-14s %-16s %-10s\n",
		"m", "n", "IP-style B&B", "exact (bin)", "parallel PTAS", "PTAS ratio")

	for _, m := range []int{4, 6, 8, 10} {
		in, err := workload.Triplets(m, b, 7)
		if err != nil {
			log.Fatal(err)
		}

		// The IP-shaped solver (what a MIP does to this model): time-boxed,
		// may fail to prove optimality.
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, ipRes, err := solver.ExactIP(ctx, in, solver.ExactOptions{NodeLimit: 5_000_000})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		ipTime := time.Since(start)
		ipNote := ""
		if !ipRes.Optimal {
			ipNote = "*"
		}

		// The strong exact solver with parallel probes.
		start = time.Now()
		ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
		_, exRes, err := solver.Exact(ctx, in, solver.ExactOptions{Workers: 4})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		exTime := time.Since(start)

		// The parallel PTAS at the paper's eps. (Tightening eps is expensive
		// here: every triplet job is "long", so k^2 grows straight into the
		// DP's dimensionality.)
		opts := solver.DefaultPTASOptions()
		start = time.Now()
		sched, _, err := solver.PTAS(context.Background(), in, opts)
		if err != nil {
			log.Fatal(err)
		}
		ptasTime := time.Since(start)

		opt := exRes.Makespan
		if !exRes.Optimal {
			opt = b // the construction guarantees a perfect partition
		}
		fmt.Printf("%-4d %-6d %-14s %-14s %-16s %-10.4f\n",
			m, in.N(),
			ipTime.Round(time.Microsecond).String()+ipNote,
			exTime.Round(time.Microsecond).String(),
			ptasTime.Round(time.Microsecond).String(),
			sched.Ratio(in, opt))
	}
	fmt.Println("\n* = optimality not proved within the limits")

	fmt.Println("\nThe PTAS never branches: its cost depends on eps and the size mix,")
	fmt.Println("not on whether a perfect partition exists. That is the regime the")
	fmt.Println("paper's parallel algorithm is built for.")
}
