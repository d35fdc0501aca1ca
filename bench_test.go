// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure, plus ablations of the design choices listed in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Wall-clock parallel speedup requires parallel hardware; on single-core
// hosts use cmd/schedbench, which additionally reports the simulated-
// multicore speedups (see EXPERIMENTS.md).
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/exper"
	"repro/internal/listsched"
	"repro/internal/multifit"
	"repro/internal/par"
	"repro/internal/sahni"
	"repro/internal/workload"
	"repro/pcmax"
)

// benchCores are the worker counts exercised by the per-figure benchmarks
// (the paper sweeps 2..16).
var benchCores = []int{1, 2, 4, 8, 16}

// benchExactNodeLimit bounds each exact solve inside benchmarks so that a
// CPLEX-style blow-up (the paper saw >100s solves) does not stall the whole
// bench run; schedbench runs the unbounded version.
const benchExactNodeLimit = 2_000_000

func speedupInstance(b *testing.B, fam workload.Family, m, n int) *pcmax.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Spec{Family: fam, M: m, N: n, Seed: 2017})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchFigure runs the paper's speedup-figure workload (fig 2, 3 or 4):
// the paper's parallel PTAS per family per core count, the sequential PTAS
// (the production fill), and the IP baseline.
func benchFigure(b *testing.B, m, n int) {
	for _, fam := range workload.SpeedupFamilies {
		in := speedupInstance(b, fam, m, n)
		b.Run(fmt.Sprintf("seqPTAS/%v", fam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(context.Background(), in, core.Options{Epsilon: 0.3, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, c := range benchCores[1:] {
			b.Run(fmt.Sprintf("parPTAS/%v/workers=%d", fam, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.Solve(context.Background(), in, core.Options{Epsilon: 0.3, Workers: c, PaperFaithful: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("IP/%v", fam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exact.SolveAssignment(context.Background(), in, exact.Options{NodeLimit: benchExactNodeLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2 reproduces Figure 2's workload: m=20, n=100.
func BenchmarkFig2(b *testing.B) { benchFigure(b, 20, 100) }

// BenchmarkFig3 reproduces Figure 3's workload: m=10, n=50.
func BenchmarkFig3(b *testing.B) { benchFigure(b, 10, 50) }

// BenchmarkFig4 reproduces Figure 4's workload: m=10, n=30.
func BenchmarkFig4(b *testing.B) { benchFigure(b, 10, 30) }

// BenchmarkFig5Ratios reproduces Figure 5's workload (Tables II and III):
// the three approximation algorithms on the best/worst-case instance sets,
// with the certified-optimal baseline.
func BenchmarkFig5Ratios(b *testing.B) {
	for _, ri := range append(exper.TableII(), exper.TableIII()...) {
		in, err := workload.Generate(workload.Spec{Family: ri.Fam, M: ri.M, N: ri.N, Seed: 2017})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ri.ID+"/parPTAS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(context.Background(), in, core.Options{Epsilon: 0.3, Workers: 2, PaperFaithful: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ri.ID+"/LPT", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				listsched.LPT(in)
			}
		})
		b.Run(ri.ID+"/LS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				listsched.LS(in)
			}
		})
		b.Run(ri.ID+"/exact", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exact.Solve(context.Background(), in, exact.Options{NodeLimit: benchExactNodeLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ablationInstance is a mid-sized adversarial-family instance whose DP table
// (tens of thousands of entries) makes fill-strategy differences visible.
func ablationInstance(b *testing.B) *pcmax.Instance {
	return speedupInstance(b, workload.Um_2m1, 20, 41)
}

// ablationTable returns an empty DP table over the ablation instance's
// rounded long jobs at the target its bisection converges on. The fill
// ablations time it through dp directly: core.Solve picks its fills with
// the one Options.PaperFaithful switch.
func ablationTable(b *testing.B) *dp.Table {
	b.Helper()
	in := ablationInstance(b)
	_, st, err := core.Solve(context.Background(), in, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sizes, counts, err := core.RoundedClasses(in, st.K, st.FinalT)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := dp.New(sizes, counts, st.FinalT, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// benchFill runs fill b.N times.
func benchFill(b *testing.B, fill func(context.Context) error) {
	for i := 0; i < b.N; i++ {
		if err := fill(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationShortRule compares the paper's LPT short-job placement
// against the original Hochbaum–Shmoys LS rule.
func BenchmarkAblationShortRule(b *testing.B) {
	in := speedupInstance(b, workload.U1_100, 20, 100)
	for rule, name := range map[core.ShortRule]string{core.ShortLPT: "LPT", core.ShortLS: "LS"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(context.Background(), in, core.Options{Epsilon: 0.3, ShortRule: rule}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSeqFill compares the bottom-up sweep with the
// paper-faithful memoized recursion (Algorithm 2).
func BenchmarkAblationSeqFill(b *testing.B) {
	tbl := ablationTable(b)
	b.Run("bottom-up", func(b *testing.B) { benchFill(b, tbl.FillSequentialCtx) })
	b.Run("recursive", func(b *testing.B) { benchFill(b, tbl.FillRecursiveCtx) })
}

// BenchmarkAblationIncumbent measures the exact solver with and without the
// MultiFit incumbent.
func BenchmarkAblationIncumbent(b *testing.B) {
	in := speedupInstance(b, workload.U1_100, 10, 50)
	for _, disable := range []bool{false, true} {
		name := "lpt+multifit"
		if disable {
			name = "lpt-only"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exact.Solve(context.Background(), in, exact.Options{
					NodeLimit: benchExactNodeLimit, DisableMultiFitIncumbent: disable,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPFillScaling isolates the DP fill on progressively larger tables
// to expose the parallel fill's scaling independent of the bisection.
func BenchmarkDPFillScaling(b *testing.B) {
	shapes := []struct {
		name   string
		sizes  []pcmax.Time
		counts []int
		T      pcmax.Time
	}{
		{"paper-example", []pcmax.Time{6, 11}, []int{2, 3}, 30},
		{"small", []pcmax.Time{5, 7, 9}, []int{8, 8, 8}, 40},
		{"medium", []pcmax.Time{11, 13, 17, 19}, []int{10, 10, 10, 10}, 90},
		{"large", []pcmax.Time{11, 13, 17, 19, 23}, []int{12, 12, 12, 12, 12}, 110},
	}
	for _, shape := range shapes {
		for _, workers := range benchCores {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				pool := par.NewPool(workers)
				defer pool.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl, err := dp.New(shape.sizes, shape.counts, shape.T, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					if workers == 1 {
						err = tbl.FillSequentialCtx(context.Background())
					} else {
						err = tbl.FillParallelCtx(context.Background(), pool)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBaselines measures the classical algorithms at the paper's
// largest scale.
func BenchmarkBaselines(b *testing.B) {
	in := speedupInstance(b, workload.U1_100, 20, 100)
	b.Run("LS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			listsched.LS(in)
		}
	})
	b.Run("LPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			listsched.LPT(in)
		}
	})
	b.Run("MultiFit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multifit.Solve(context.Background(), in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionSahni compares Sahni's fixed-m DP (exact) with the
// general branch-and-bound and the PTAS on a small-m instance.
func BenchmarkExtensionSahni(b *testing.B) {
	in := speedupInstance(b, workload.U1_10, 3, 30)
	b.Run("sahni-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sahni.Solve(context.Background(), in, sahni.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sahni-fptas-0.2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sahni.Solve(context.Background(), in, sahni.Options{Epsilon: 0.2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-bb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := exact.Solve(context.Background(), in, exact.Options{NodeLimit: benchExactNodeLimit}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ptas-0.2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Solve(context.Background(), in, core.Options{Epsilon: 0.2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactTriplets stresses the exact solvers on the 3-partition-like
// triplet family, the known hard case for branch-and-bound.
func BenchmarkExactTriplets(b *testing.B) {
	for _, m := range []int{4, 6, 8} {
		in, err := workload.Triplets(m, 400, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bin-completion/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exact.Solve(context.Background(), in, exact.Options{NodeLimit: benchExactNodeLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("assignment-IP/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exact.SolveAssignment(context.Background(), in, exact.Options{NodeLimit: benchExactNodeLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
