// Renderfarm: schedule a night's batch of animation frames on a render
// farm. Frame render costs are heavy-tailed (a few hero shots dominate), the
// farm has a fixed number of identical nodes, and the question is whether
// the batch finishes before the morning review — the makespan question the
// paper's introduction motivates.
//
// The example compares LPT (the farm's default greedy dispatcher) with the
// parallel PTAS and shows the PTAS closing most of the gap to the optimum.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/rng"
	"repro/pcmax"
	"repro/solver"
)

const (
	nodes      = 12   // render nodes
	frames     = 160  // frames in tonight's batch
	deadline   = 4430 // seconds until the morning review
	heroFrames = 6    // frames with simulation-heavy effects
)

func main() {
	// Synthesize the batch: most frames take 100..400s; hero frames take
	// 1800..2600s (fluid sims). Seeded, so the example is reproducible.
	src := rng.New(99)
	times := make([]pcmax.Time, 0, frames)
	for f := 0; f < frames-heroFrames; f++ {
		times = append(times, pcmax.Time(src.MustUniform(100, 400)))
	}
	for f := 0; f < heroFrames; f++ {
		times = append(times, pcmax.Time(src.MustUniform(1800, 2600)))
	}
	in, err := pcmax.NewInstance(nodes, times)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("render batch: %d frames, %d nodes, %ds of total work\n", in.N(), in.M, in.TotalTime())
	fmt.Printf("theoretical floor (work/nodes vs longest frame): %ds\n\n", in.LowerBound())

	report := func(name string, sched *pcmax.Schedule) {
		ms := sched.Makespan(in)
		verdict := "MISSES the morning review"
		if ms <= deadline {
			verdict = "finishes before the morning review"
		}
		fmt.Printf("%-14s makespan %5ds — %s (deadline %ds)\n", name, ms, verdict, deadline)
	}

	lpt, err := solver.LPT(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	report("LPT dispatch", lpt)

	opts := solver.DefaultPTASOptions()
	opts.Epsilon = 0.1 // tight schedule: spend more planning time
	ptas, st, err := solver.PTAS(context.Background(), in, opts)
	if err != nil {
		log.Fatal(err)
	}
	report("parallel PTAS", ptas)
	fmt.Printf("\nPTAS planning detail: k=%d, %d bisection iterations, final target %ds, DP table %d entries\n",
		st.K, st.Iterations, st.FinalT, st.TableEntries)

	// How much slack does the best schedule leave per node?
	loads := ptas.Loads(in)
	ms := ptas.Makespan(in)
	var idle pcmax.Time
	for _, l := range loads {
		idle += ms - l
	}
	fmt.Printf("node idle time under the PTAS schedule: %ds total across %d nodes\n", idle, in.M)
}
