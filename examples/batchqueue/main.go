// Batchqueue: split a CI test suite into shards and assign the shards to a
// fixed pool of identical runners so the slowest runner — and therefore the
// whole pipeline — finishes as early as possible.
//
// Shard durations come from the previous run's timing report. Small queues
// are solved exactly; big queues fall back to the parallel PTAS, with the
// lower bound certifying how close the answer is.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/pcmax"
	"repro/solver"
)

// shard is one test shard with its measured duration from the last run.
type shard struct {
	name string
	secs pcmax.Time
}

func main() {
	shards := []shard{
		{"ui-e2e", 840}, {"api-integration", 612}, {"unit-core", 155},
		{"unit-storage", 132}, {"migrations", 420}, {"load-smoke", 380},
		{"lint+vet", 95}, {"unit-frontend", 260}, {"screenshot-diff", 540},
		{"api-fuzz", 710}, {"unit-auth", 88}, {"packaging", 175},
		{"docs-build", 64}, {"perf-micro", 330}, {"chaos-restart", 505},
		{"unit-billing", 148},
	}
	const runners = 4

	times := make([]pcmax.Time, len(shards))
	for i, s := range shards {
		times[i] = s.secs
	}
	in, err := pcmax.NewInstance(runners, times)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CI queue: %d shards, %d runners, %ds of sequential work, floor %ds\n\n",
		in.N(), in.M, in.TotalTime(), in.LowerBound())

	var sched *pcmax.Schedule
	if in.N() <= 40 {
		// Small queue: prove the optimum.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var res solver.ExactResult
		sched, res, err = solver.Exact(ctx, in, solver.ExactOptions{})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exact assignment (optimal: %v, %d search nodes)\n", res.Optimal, res.Nodes)
	} else {
		// Big queue: the PTAS with a 10%% guarantee.
		opts := solver.DefaultPTASOptions()
		opts.Epsilon = 0.1
		sched, _, err = solver.PTAS(context.Background(), in, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("parallel PTAS assignment (guarantee: within 10% of optimal)")
	}

	perRunner := sched.MachineJobs()
	loads := sched.Loads(in)
	for r := 0; r < runners; r++ {
		fmt.Printf("\nrunner %d (busy %ds):\n", r, loads[r])
		for _, j := range perRunner[r] {
			fmt.Printf("  %-16s %4ds\n", shards[j].name, shards[j].secs)
		}
	}
	fmt.Printf("\npipeline finishes after %ds (sequential would be %ds — %.1fx faster)\n",
		sched.Makespan(in), in.TotalTime(),
		float64(in.TotalTime())/float64(sched.Makespan(in)))
}
