// The dp subcommand micro-benchmarks the DP fill path in isolation: for each
// figure workload it freezes the rounded instance at the PTAS's converged
// target makespan and times the table fill — the production kernel
// (FillAutoCtx) at every worker count, and the paper's fills with its
// per-entry enumeration: Algorithm 2 (FillRecursiveCtx) at one worker and
// Algorithm 3 (FillParallelCtx) at every worker count above one, on the pool
// the production row of that count uses.
// Results print as a table and, with -json, land in BENCH_dp.json;
// -gate-speedup fails the run when a production cell's same-run speedup
// over Algorithm 2 falls below a floor.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/par"
	"repro/internal/workload"
	"repro/pcmax"
)

// dpShape names a figure workload: the (m, n) pair of one of the paper's
// speedup experiments.
type dpShape struct {
	Name string
	M, N int
}

// dpShapes mirrors the instance sizes of Figures 2-4.
var dpShapes = []dpShape{
	{"fig2", 20, 100},
	{"fig3", 10, 50},
	{"fig4", 10, 30},
}

// dpRecord is one measured configuration, serialized into BENCH_dp.json.
type dpRecord struct {
	Workload string  `json:"workload"`
	Family   string  `json:"family"`
	M        int     `json:"m"`
	N        int     `json:"n"`
	Eps      float64 `json:"eps"`
	Enum     string  `json:"enum"` // "faithful" or "sparse" enumeration
	Workers  int     `json:"workers"`
	Path     string  `json:"path"` // "production", "alg2" or "alg3"
	NsPerOp  int64   `json:"ns_per_op"`
	Entries  int64   `json:"table_entries"`
	Configs  int     `json:"configs"`
	// ConfigsSparse and ConfigReduction are set on sparse rows only: the
	// configuration count the sparse pipeline's table retained, and the
	// shrink factor versus the faithful enumeration over the ungrouped
	// classes at the same target (Configs on those rows; 0 when the faithful
	// count overflows the enumeration cap — cells only the sparse
	// enumeration can reach).
	ConfigsSparse   int     `json:"configs_sparse,omitempty"`
	ConfigReduction float64 `json:"config_reduction,omitempty"`
	// SpeedupAlg2, on faithful production and alg3 rows, is ns/op of the
	// same table's alg2 row divided by this record's ns/op: on production
	// rows the ratio -gate-speedup floors, on alg3 rows the paper's speedup
	// axis with its Algorithm 2 as the T(1) reference.
	SpeedupAlg2 float64 `json:"speedup_vs_alg2,omitempty"`
	// SpeedupFaithful, on sparse production rows, is the one-worker faithful
	// production row's ns/op at the same (workload, family, eps) divided by
	// this record's: the per-fill sparsification win, both sides windowed
	// best-of fills of the table at their own pipeline's converged target.
	// The faithful fill rows run on the primary eps only, so the extra
	// eps arm's sparse rows carry none.
	SpeedupFaithful float64 `json:"speedup_vs_faithful,omitempty"`
}

// benchJSONName is the artifact the acceptance criteria track.
const benchJSONName = "BENCH_dp.json"

// dpBenchConfig carries the dp subcommand's flags.
type dpBenchConfig struct {
	WriteJSON bool   // write the records to Out
	Out       string // output JSON path (default benchJSONName)
	// MinSpeedup, when > 0, fails the run if any faithful production cell's
	// speedup_vs_alg2 — measured against the same run's Algorithm 2 fill of
	// the same table, so host speed cancels out — falls below it.
	MinSpeedup float64
	Windows    int // measurement windows per cell (more = less noise)
	// Enum selects the enumeration modes measured: "faithful", "sparse" or
	// "both" ("" = both). Sparse cells bench the ptas-sparse pipeline — the
	// production fill of the grouped, pruned table at the sparse solve's
	// converged target — next to the faithful cells.
	Enum string
}

// sparseArmEps is the extra epsilon arm the sparse sweep always measures:
// the regime where configuration sparsification pays (k = 10 makes faithful
// configuration sets large), per the acceptance criteria tracked in
// BENCH_dp.json. The primary -eps arm is measured too.
const sparseArmEps = 0.1

// sparseArmMaxEntries caps DP tables on the extra sparseArmEps arm. At
// eps=0.1 some faithful fig2/fig3 cells exceed any practical budget; the cap
// turns them into graceful skips (recorded as missing cells) instead of
// multi-minute fills, and it documents exactly which cells only the sparse
// enumeration can reach.
const sparseArmMaxEntries = 8 << 20

// faithfulConfigCount counts the faithful enumeration's configurations over
// the ungrouped rounded classes at target T — the reference the sparse
// pipeline's config_reduction column divides by. Returns 0 when the count
// exceeds the default enumeration cap (cells only the sparse enumeration
// can reach).
func faithfulConfigCount(in *pcmax.Instance, k int, T pcmax.Time) (int, error) {
	sizes, counts, err := core.RoundedClasses(in, k, T)
	if err != nil || len(sizes) == 0 {
		return 0, err
	}
	cfgs, err := conf.Enumerate(sizes, counts, T, make([]int64, len(sizes)), 0)
	if errors.Is(err, conf.ErrTooMany) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return len(cfgs), nil
}

// measureFill times fill() after one warm-up call. It takes the best of
// several short measurement windows — the minimum is the standard defense
// against GC pauses and frequency wobble contaminating a single window. A
// fill error (context cancellation) aborts the measurement immediately.
func measureFill(fill func() error, windows int) (int64, error) {
	if err := fill(); err != nil {
		return 0, err
	}
	if windows < 1 {
		windows = 1
	}
	const minWindow = 10 * time.Millisecond
	best := int64(0)
	for w := 0; w < windows; w++ {
		reps := 0
		start := time.Now()
		for {
			if err := fill(); err != nil {
				return 0, err
			}
			reps++
			if d := time.Since(start); d >= minWindow && reps >= 3 {
				if ns := d.Nanoseconds() / int64(reps); best == 0 || ns < best {
					best = ns
				}
				break
			}
		}
	}
	return best, nil
}

// runDPBench measures every (shape, family, workers, path) cell and renders
// the result. Table entries are identical between the paths (the
// differential tests enforce it), so ns/op is the only varying quantity.
// Each cell's table is frozen at a solve's converged target; the solves
// themselves are single cold samples and emit no row. The sparse
// enumeration (unless -enum faithful) adds sparse production-fill cells on
// the primary eps and on an extra eps=0.1 arm, where sparsification pays;
// cells whose table exceeds the budget are skipped and reported, not fatal.
// When ctx dies mid-sweep, the cells measured so far are still rendered and
// the cancellation error is returned.
func runDPBench(ctx context.Context, cores []int, eps float64, seed uint64, cfg dpBenchConfig) error {
	cache := dp.NewCache()
	var records []dpRecord
	var benchErr error

	doFaithful := cfg.Enum != "sparse"
	doSparse := cfg.Enum != "faithful"
	epsArms := []float64{eps}
	if doSparse && eps != sparseArmEps {
		epsArms = append(epsArms, sparseArmEps)
	}

	// skipTooLarge reports (and swallows) budget-exceeded cells: at eps=0.1
	// several faithful tables cannot fit any practical budget — that a sparse
	// cell exists where its faithful twin is skipped is itself a result.
	skipTooLarge := func(shape dpShape, fam workload.Family, armEps float64, enum string, err error) bool {
		if errors.Is(err, dp.ErrTableTooLarge) {
			fmt.Printf("skip %s/%s eps=%g %s: %v\n", shape.Name, fam, armEps, enum, err)
			return true
		}
		return false
	}

sweep:
	for _, shape := range dpShapes {
		for _, fam := range workload.SpeedupFamilies {
			in, err := workload.Generate(workload.Spec{Family: fam, M: shape.M, N: shape.N, Seed: seed})
			if err != nil {
				return err
			}
			for _, armEps := range epsArms {
				primary := armEps == eps
				var budget int64
				if !primary {
					budget = sparseArmMaxEntries
				}
				base := dpRecord{
					Workload: shape.Name, Family: fam.String(), M: shape.M, N: shape.N,
					Eps: armEps, Workers: 1,
				}

				// The faithful fill rows run on the primary eps only; the
				// extra arm exists for the sparse rows.
				var faithfulSt *core.Stats
				if doFaithful && primary {
					opts := core.DefaultOptions()
					opts.Epsilon = armEps
					_, st, err := core.Solve(ctx, in, opts)
					switch {
					case err == nil:
						faithfulSt = st
					case skipTooLarge(shape, fam, armEps, "faithful", err):
					default:
						benchErr = err
						break sweep
					}
				}

				if faithfulSt != nil {
					st := faithfulSt
					sizes, counts, err := core.RoundedClasses(in, st.K, st.FinalT)
					if err != nil {
						return err
					}
					if len(sizes) == 0 {
						continue // no long jobs at this T; nothing to fill
					}
					tbl, err := dp.NewCached(sizes, counts, st.FinalT, 0, 0, cache)
					if err != nil {
						return err
					}

					// measure times fill on tbl and appends the row.
					measure := func(workers int, path string, fill func() error) bool {
						ns, err := measureFill(fill, cfg.Windows)
						if err != nil {
							benchErr = err
							return false
						}
						r := base
						r.Enum, r.Workers, r.Path = "faithful", workers, path
						r.NsPerOp, r.Entries, r.Configs = ns, tbl.Sigma, len(tbl.Configs)
						records = append(records, r)
						return true
					}

					// The production fill, the default through the solver
					// facade, then Algorithm 2 right after it: the gated
					// speedup_vs_alg2 divides the two, so keeping them
					// adjacent in time stops host-load drift from
					// contaminating the ratio.
					if !measure(1, "production", func() error { return tbl.FillAutoCtx(ctx, nil) }) ||
						!measure(1, "alg2", func() error { return tbl.FillRecursiveCtx(ctx) }) {
						break sweep
					}
					// Above one worker, the production fill and Algorithm 3
					// share one pool. A table without a slab-phase plan
					// (dp.FillAutoCtx) fills on the caller at any count.
					for _, workers := range cores {
						if workers <= 1 {
							continue
						}
						pool := par.NewPool(workers)
						ok := measure(workers, "production", func() error { return tbl.FillAutoCtx(ctx, pool) }) &&
							measure(workers, "alg3", func() error { return tbl.FillParallelCtx(ctx, pool) })
						pool.Close()
						if !ok {
							break sweep
						}
					}
				}

				if doSparse {
					opts := core.DefaultOptions()
					opts.Epsilon = armEps
					opts.Sparsify = true
					opts.MaxTableEntries = budget
					_, st, err := core.Solve(ctx, in, opts)
					switch {
					case err == nil:
						if st.SparseFallback {
							fmt.Printf("note %s/%s eps=%g sparse: fell back to the faithful pipeline\n", shape.Name, fam, armEps)
							continue
						}

						// Production fill of the sparse table at the sparse
						// solve's converged target — the per-probe cost the
						// sparsification shrinks.
						gs, gc, err := core.SparseRoundedClasses(in, st.K, st.FinalT, armEps)
						if err != nil {
							return err
						}
						if len(gs) == 0 {
							continue
						}
						tbl, err := dp.NewSparse(gs, gc, st.FinalT, budget, 0, cache, conf.DefaultSparseOptions(st.K))
						if err != nil {
							if skipTooLarge(shape, fam, armEps, "sparse", err) {
								continue
							}
							return err
						}
						fc, err := faithfulConfigCount(in, st.K, st.FinalT)
						if err != nil {
							return err
						}
						ns, err := measureFill(func() error { return tbl.FillAutoCtx(ctx, nil) }, cfg.Windows)
						if err != nil {
							benchErr = err
							break sweep
						}
						r := base
						r.Enum, r.Path = "sparse", "production"
						r.NsPerOp, r.Entries = ns, tbl.Sigma
						r.Configs = fc
						r.ConfigsSparse = len(tbl.Configs)
						if fc > 0 && len(tbl.Configs) > 0 {
							r.ConfigReduction = float64(fc) / float64(len(tbl.Configs))
						}
						records = append(records, r)
					case skipTooLarge(shape, fam, armEps, "sparse", err):
					default:
						benchErr = err
						break sweep
					}
				}
			}
		}
	}

	attachSpeedups(records)
	renderDPRecords(records)
	fmt.Printf("\nDP cache across workloads: %+v\n", cache.Stats())
	if benchErr != nil {
		fmt.Printf("\nsweep interrupted after %d cells: %v\n", len(records), benchErr)
		return benchErr
	}
	if cfg.WriteJSON {
		out := cfg.Out
		if out == "" {
			out = benchJSONName
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
		return gateSpeedup(records, cfg.MinSpeedup)
	}
	return nil
}

// gateSpeedup enforces the host-invariant regression gate: every faithful
// production cell must fill its table at least min times as fast as this
// same run's Algorithm 2 (the paper's recursion with per-entry enumeration)
// on the same table. Both sides of the ratio come from the same process on
// the same host, measured back to back, so runner speed and load cancel out:
// a failure here means the production kernel itself regressed toward the
// cost of the paper's recursion. A run with no production cell to check fails too: a gate that
// checks nothing cannot catch a regression.
func gateSpeedup(records []dpRecord, min float64) error {
	var failures []string
	checked := 0
	for _, r := range records {
		if r.Path != "production" || r.SpeedupAlg2 <= 0 {
			continue
		}
		checked++
		if r.SpeedupAlg2 < min {
			failures = append(failures,
				fmt.Sprintf("  %s/%s: %.2fx vs same-run alg2 (floor %.2fx)",
					r.Workload, r.Family, r.SpeedupAlg2, min))
		}
	}
	fmt.Printf("\nspeedup gate: %d production cells checked against %.2fx floor on speedup_vs_alg2, %d below\n",
		checked, min, len(failures))
	if checked == 0 {
		return errors.New("speedup gate: no faithful production cell to check")
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Println(f)
		}
		return fmt.Errorf("%d production cells below the %.2fx same-run speedup floor", len(failures), min)
	}
	return nil
}

// attachSpeedups fills SpeedupAlg2 on every faithful production and alg3
// record from the alg2 record of the same table, and SpeedupFaithful on
// every sparse production record from the one-worker faithful production
// record of the same (workload, family, eps).
func attachSpeedups(records []dpRecord) {
	type cellKey struct {
		w, f, path string
		eps        float64
	}
	alg2 := make(map[cellKey]int64)
	faithful := make(map[cellKey]int64)
	for _, r := range records {
		if r.Enum == "sparse" {
			continue
		}
		switch r.Path {
		case "alg2":
			alg2[cellKey{r.Workload, r.Family, "", r.Eps}] = r.NsPerOp
		case "production":
			// Sparse rows run at one worker; so does their reference.
			if r.Workers == 1 {
				faithful[cellKey{r.Workload, r.Family, r.Path, r.Eps}] = r.NsPerOp
			}
		}
	}
	for i := range records {
		r := &records[i]
		if r.NsPerOp <= 0 {
			continue
		}
		if r.Enum == "sparse" {
			if base, ok := faithful[cellKey{r.Workload, r.Family, r.Path, r.Eps}]; ok {
				r.SpeedupFaithful = float64(base) / float64(r.NsPerOp)
			}
			continue
		}
		if r.Path == "production" || r.Path == "alg3" {
			if base, ok := alg2[cellKey{r.Workload, r.Family, "", r.Eps}]; ok {
				r.SpeedupAlg2 = float64(base) / float64(r.NsPerOp)
			}
		}
	}
}

func renderDPRecords(records []dpRecord) {
	fmt.Printf("%-6s %-11s %4s %-8s %3s %8s %-8s %-7s %-5s %-10s %12s %8s %8s\n",
		"fig", "family", "eps", "enum", "wrk", "entries", "configs", "cfg-sp", "red", "path", "ns/op", "vs-alg2", "vs-fthl")
	for _, r := range records {
		valg2, vf, csp, red := "", "", "", ""
		if r.SpeedupAlg2 > 0 {
			valg2 = fmt.Sprintf("%.2fx", r.SpeedupAlg2)
		}
		if r.SpeedupFaithful > 0 {
			vf = fmt.Sprintf("%.2fx", r.SpeedupFaithful)
		}
		if r.Enum == "sparse" {
			csp = fmt.Sprintf("%d", r.ConfigsSparse)
			red = fmt.Sprintf("%.1fx", r.ConfigReduction)
		}
		fmt.Printf("%-6s %-11s %4g %-8s %3d %8d %-8d %-7s %-5s %-10s %12d %8s %8s\n",
			r.Workload, r.Family, r.Eps, r.Enum, r.Workers, r.Entries, r.Configs,
			csp, red, r.Path, r.NsPerOp, valg2, vf)
	}
}
