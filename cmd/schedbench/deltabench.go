// The delta subcommand benchmarks incremental solving: for each figure
// workload it opens a solver.Session, drives a deterministic stream of
// 1-job mutations (swap, add, remove in rotation) and times every warm
// SolveDelta against a cold solver.PTAS of the identical mutated instance.
// The speedup_vs_cold column is a same-run ratio — both sides run in this
// process seconds apart, so host speed cancels out — and -gate-speedup
// enforces a floor on it, exactly like the dp subcommand's gate. Each stream
// is replayed deltaReplays times and every step keeps its fastest warm and
// its fastest cold time. Every warm result of every replay is cross-checked
// against the cold solve's (1+eps) certificate in-line; a violation fails
// the run. Results print as a table and, with -json, land in
// BENCH_delta.json.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/pcmax"
	"repro/solver"
)

// deltaJSONName is the delta subcommand's artifact.
const deltaJSONName = "BENCH_delta.json"

// deltaRecord is one (workload, family) mutation stream, serialized into
// BENCH_delta.json.
type deltaRecord struct {
	Workload string  `json:"workload"`
	Family   string  `json:"family"`
	M        int     `json:"m"`
	N        int     `json:"n"`
	Eps      float64 `json:"eps"`
	Steps    int     `json:"steps"`
	// WarmNs and ColdNs are mean ns per re-solve across the stream, each
	// step at its fastest over the replays: warm is Session.SolveDelta, cold
	// is solver.PTAS on the same mutated instance.
	WarmNs int64 `json:"warm_ns_per_op"`
	ColdNs int64 `json:"cold_ns_per_op"`
	// SpeedupCold is ColdNs/WarmNs — same-run and host-invariant, the number
	// -gate-speedup checks.
	SpeedupCold float64 `json:"speedup_vs_cold"`
	// RepairSteps and WarmSteps split the stream by accepted fast path
	// (DeltaRepair vs DeltaWarm; SolveDelta never reports DeltaCold unless
	// a defensive restart fired, counted under WarmSteps here).
	RepairSteps int `json:"repair_steps"`
	WarmSteps   int `json:"warm_steps"`
	// CacheHitRate is the session cache's lifetime config-lookup hit rate at
	// the end of the stream (fast path 3 at work across the deltas).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// deltaBenchConfig carries the delta subcommand's flags.
type deltaBenchConfig struct {
	WriteJSON  bool
	Out        string  // output JSON path (default deltaJSONName)
	MinSpeedup float64 // floor on speedup_vs_cold (0 = off)
	Steps      int     // mutations per stream
}

// runDeltaBench drives one mutation stream per (figure shape, family) cell
// and renders the results. When ctx dies mid-sweep the cells measured so far
// are rendered and the cancellation error returned.
func runDeltaBench(ctx context.Context, eps float64, seed uint64, cfg deltaBenchConfig) error {
	if cfg.Steps < 1 {
		cfg.Steps = 12
	}
	var records []deltaRecord
	var benchErr error

sweep:
	for _, shape := range dpShapes {
		for _, fam := range workload.Families {
			rec, err := runDeltaStream(ctx, shape, fam, eps, seed, cfg.Steps)
			if err != nil {
				benchErr = err
				break sweep
			}
			records = append(records, *rec)
		}
	}

	renderDeltaRecords(records)
	if benchErr != nil {
		fmt.Printf("\nsweep interrupted after %d cells: %v\n", len(records), benchErr)
		return benchErr
	}
	if cfg.WriteJSON {
		out := cfg.Out
		if out == "" {
			out = deltaJSONName
		}
		blob, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d records)\n", out, len(records))
	}
	if cfg.MinSpeedup > 0 {
		return gateDeltaSpeedup(records, cfg.MinSpeedup)
	}
	return nil
}

// deltaReplays is how many times runDeltaStream replays each stream. The
// stream is deterministic (same seed, same mutations), so every replay
// measures identical work, and keeping each step's fastest time — the
// best-of rule the dp rows use — stops one step slowed by host load from
// sinking the stream's ratio.
const deltaReplays = 3

// runDeltaStream opens a session on one generated instance and walks Steps
// 1-job mutations, deltaReplays times, timing warm vs cold and
// cross-checking the certificate after every step of every replay.
func runDeltaStream(ctx context.Context, shape dpShape, fam workload.Family, eps float64, seed uint64, steps int) (*deltaRecord, error) {
	in, err := workload.Generate(workload.Spec{Family: fam, M: shape.M, N: shape.N, Seed: seed})
	if err != nil {
		return nil, err
	}
	lo, hi, err := fam.Bounds(shape.M, shape.N)
	if err != nil {
		return nil, err
	}
	sopts := solver.DefaultSessionOptions()
	sopts.PTAS.Epsilon = eps
	popts := solver.DefaultPTASOptions()
	popts.Epsilon = eps

	rec := &deltaRecord{
		Workload: shape.Name, Family: fam.String(), M: shape.M, N: shape.N,
		Eps: eps, Steps: steps,
	}
	warm := make([]int64, steps) // fastest warm ns per step
	cold := make([]int64, steps) // fastest cold ns per step
	for replay := 0; replay < deltaReplays; replay++ {
		src := rng.New(seed ^ 0x5eed_de17a)
		sess, err := solver.NewSession(sopts)
		if err != nil {
			return nil, err
		}
		if _, _, err := sess.Solve(ctx, in); err != nil {
			return nil, err
		}
		rec.RepairSteps, rec.WarmSteps = 0, 0
		for step := 0; step < steps; step++ {
			// 1-job mutations in rotation: swap, add, remove. The swap keeps
			// n stable; add/remove cancel out over the stream.
			var add []pcmax.Time
			var remove []int
			n := sess.Instance().N()
			switch step % 3 {
			case 0:
				add = []pcmax.Time{pcmax.Time(src.MustUniform(lo, hi))}
				remove = []int{src.Intn(n)}
			case 1:
				add = []pcmax.Time{pcmax.Time(src.MustUniform(lo, hi))}
			default:
				remove = []int{src.Intn(n)}
			}

			t0 := time.Now()
			_, st, err := sess.SolveDelta(ctx, add, remove)
			warmNs := time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s/%s step %d: %w", shape.Name, fam, step, err)
			}
			if st.Path == solver.DeltaRepair {
				rec.RepairSteps++
			} else {
				rec.WarmSteps++
			}

			// Cold reference on the identical mutated instance, plus the
			// differential certificate: the warm makespan must stay within
			// (1+eps) of the cold solve (coldMS >= OPT, warmMS <= (1+eps)OPT).
			cur := sess.Instance()
			t0 = time.Now()
			coldSched, _, err := solver.PTAS(ctx, cur, popts)
			coldNs := time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s/%s step %d cold: %w", shape.Name, fam, step, err)
			}
			coldMS := coldSched.Makespan(cur)
			if float64(st.Makespan) > (1+eps)*float64(coldMS)+1e-9 {
				return nil, fmt.Errorf("%s/%s step %d: warm makespan %d exceeds (1+eps) of cold %d (path %v)",
					shape.Name, fam, step, st.Makespan, coldMS, st.Path)
			}
			if replay == 0 || warmNs < warm[step] {
				warm[step] = warmNs
			}
			if replay == 0 || coldNs < cold[step] {
				cold[step] = coldNs
			}
		}
		cs := sess.CacheStats()
		if lookups := cs.ConfigHits + cs.ConfigMisses; lookups > 0 {
			rec.CacheHitRate = float64(cs.ConfigHits) / float64(lookups)
		}
	}
	var warmTotal, coldTotal int64
	for step := range warm {
		warmTotal += warm[step]
		coldTotal += cold[step]
	}
	rec.WarmNs = warmTotal / int64(steps)
	rec.ColdNs = coldTotal / int64(steps)
	if rec.WarmNs > 0 {
		rec.SpeedupCold = float64(rec.ColdNs) / float64(rec.WarmNs)
	}
	return rec, nil
}

// gateDeltaSpeedup enforces the warm-path regression gate: every stream's
// speedup_vs_cold must reach the floor. Both sides of the ratio come from
// this run, so the gate is host-invariant — a failure means the incremental
// paths themselves regressed (e.g. repairs no longer accepted, or the warm
// bracket no longer cutting probes).
func gateDeltaSpeedup(records []deltaRecord, min float64) error {
	var failures []string
	for _, r := range records {
		if r.SpeedupCold < min {
			failures = append(failures,
				fmt.Sprintf("  %s/%s: %.2fx vs same-run cold (floor %.2fx)",
					r.Workload, r.Family, r.SpeedupCold, min))
		}
	}
	fmt.Printf("\ndelta speedup gate: %d streams checked against %.2fx floor, %d below\n",
		len(records), min, len(failures))
	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Println(f)
		}
		return fmt.Errorf("%d mutation streams below the %.2fx warm-vs-cold speedup floor", len(failures), min)
	}
	return nil
}

func renderDeltaRecords(records []deltaRecord) {
	fmt.Printf("%-6s %-11s %3s %4s %4s %6s %6s %12s %12s %9s %8s\n",
		"fig", "family", "m", "n", "eps", "repair", "warm", "warm-ns/op", "cold-ns/op", "vs-cold", "cache")
	for _, r := range records {
		fmt.Printf("%-6s %-11s %3d %4d %4g %6d %6d %12d %12d %8.2fx %7.0f%%\n",
			r.Workload, r.Family, r.M, r.N, r.Eps, r.RepairSteps, r.WarmSteps,
			r.WarmNs, r.ColdNs, r.SpeedupCold, r.CacheHitRate*100)
	}
}
