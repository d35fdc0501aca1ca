package main

// The benchmark's specification: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root mirrors these tables (the
// smoke test in perf_test.go asserts that the two agree name for name), and
// -compare takes its bounds from here.

// workloadSpec describes one workload.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// Recipe describes how the instances are derived from -seed.
	Recipe string
	// TailPct is the percentile latency_tail_ms reports: the highest one with
	// at least ten operations beyond it at the workload's op count.
	TailPct float64
}

// metricSpec describes one metric.
type metricSpec struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Layer is the module a per-layer metric measures.
	Layer string
	// Moves names the end-to-end metric and workload a change to the layer
	// should move.
	Moves string
	// Only lists the workloads a per-layer metric applies to; nil means all.
	// BENCHMARK.json carries exactly the per-layer metrics that apply to
	// every workload: each run must report each of them, and a time that is
	// structurally zero on some workload (no DP table on large-n, no repair
	// on a cold solve) would read the same on every run.
	Only []string
}

const (
	wPaperCold     = "paper-cold"
	wFillPar       = "fill-par"
	wSparseFine    = "sparse-fine"
	wLargeN        = "large-n"
	wSessionStream = "session-stream"
)

var workloadSpecs = []workloadSpec{
	{
		Name:    wPaperCold,
		Why:     "The paper's own traffic: tables of 0-5e3 entries, so bounds, split, table build, allocation and the dp.Cache dominate and a fill-only change barely moves it.",
		Recipe:  "cold solver.PTAS, default options, eps 0.3, Workers 1; (m,n) in {(20,100),(10,50),(10,30)} x six families x 400 seeds",
		TailPct: 99,
	},
	{
		Name:    wFillPar,
		Why:     "The paper's contribution at the host's core count: the fill is over 95% of the solve and the BarrierPool is engaged, so fill and pool changes show here.",
		Recipe:  "cold solver.PTAS, faithful, eps 0.2, Workers 2, each op paired with a Workers 1 solve in alternating order; fig3 U(1,100) x32, fig3 U(1,10n) x32, fig2 U(1,100) x192, fig2 U(1,10n) x8 admitted by table work",
		TailPct: 90,
	},
	{
		Name:    wSparseFine,
		Why:     "The only regime where sparse enumeration, geometric grouping and the T-1 certification probe carry the time.",
		Recipe:  "cold sparse solver.PTAS (Sparsify), eps 0.1, Workers 1; fig4 U(m,2m-1) x32, fig4 U(1,100) x128, fig2 U(1,2m-1) x32, fig3 U(1,100) x8 admitted by table work and a table budget",
		TailPct: 90,
	},
	{
		Name:    wLargeN,
		Why:     "No job is long after rounding, so the DP is bypassed: O(n log n) bounds, O(n) split per probe and the short-job pack are the whole cost; a fill change must not move it.",
		Recipe:  "cold solver.PTAS, eps 0.3, Workers 1; (m,n) in {(1000,1e5),(1e4,2e5)} x {U(1,100),U(1,10n),U(1,2m-1),U(95,105)} x 2 seeds",
		TailPct: 90,
	},
	{
		Name:    wSessionStream,
		Why:     "The write path: repair, lb.FromPrevious, the warm bracket and cross-solve cache hits use listsched, core and dp differently from a cold solve.",
		Recipe:  "Session.SolveDelta, eps 0.3; 18 fig-shape sessions (six families) plus (m=100,n=1e4) U(1,100) and U(1,10n); per 8 steps 7 one-job swap/add/remove and one 30% replacement",
		TailPct: 99,
	},
}

// e2eSpecs are the end-to-end metrics every workload reports untraced. The
// time bounds are the widest allowed because the host's own speed drifts:
// on the 2-core machine the benchmark was calibrated on, ten runs of one
// workload with ten seeds spread by 4-21% on a time metric in most sets and
// by up to 30% in a busy stretch (README.md), while allocation counts repeat
// exactly for a seed and vary only with the instance mix.
var e2eSpecs = []metricSpec{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "solves_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "makespan_over_lb", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layerSpecs are the per-layer metrics of the traced run.
var layerSpecs = []metricSpec{
	{Name: "lb.bounds_ms", Unit: "ms", Better: "lower", Layer: "lb+listsched", Moves: "latency_p50_ms on large-n; nothing on fill-par"},
	{Name: "pcmax.validate_ms", Unit: "ms", Better: "lower", Layer: "pcmax", Moves: "latency_p50_ms on large-n"},
	{Name: "core.probes_per_solve", Unit: "count", Better: "lower", Layer: "core", Moves: "latency_p50_ms on paper-cold and fill-par; latency_tail_ms on session-stream"},
	{Name: "core.split_ms_per_probe", Unit: "ms", Better: "lower", Layer: "core", Moves: "latency_p50_ms and allocs_per_op on large-n and paper-cold"},
	{Name: "core.sparse_verify_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "latency_p50_ms on sparse-fine", Only: []string{wSparseFine}},
	{Name: "conf.enumerate_ms", Unit: "ms", Better: "lower", Layer: "conf", Moves: "latency_p50_ms on paper-cold and sparse-fine", Only: []string{wPaperCold, wFillPar, wSparseFine, wSessionStream}},
	{Name: "conf.configs_per_table", Unit: "count", Better: "lower", Layer: "conf", Moves: "explains dp.fill_ms"},
	{Name: "conf.sparse_retained_frac", Unit: "ratio", Better: "lower", Layer: "conf", Moves: "latency_tail_ms on sparse-fine"},
	{Name: "dp.build_ms_per_probe", Unit: "ms", Better: "lower", Layer: "dp", Moves: "allocs_per_op and alloc_bytes_per_op on paper-cold", Only: []string{wPaperCold, wFillPar, wSparseFine, wSessionStream}},
	{Name: "dp.fill_ms", Unit: "ms", Better: "lower", Layer: "dp", Moves: "latency_p50_ms on fill-par and sparse-fine", Only: []string{wPaperCold, wFillPar, wSparseFine, wSessionStream}},
	{Name: "dp.fill_ns_per_entry", Unit: "ns", Better: "lower", Layer: "dp", Moves: "latency_p50_ms on fill-par and sparse-fine", Only: []string{wPaperCold, wFillPar, wSparseFine, wSessionStream}},
	{Name: "dp.entries_per_solve", Unit: "count", Better: "lower", Layer: "dp", Moves: "latency_tail_ms on sparse-fine"},
	{Name: "dp.fill_share", Unit: "ratio", Better: "lower", Layer: "dp", Moves: "which workloads a fill change can move"},
	{Name: "dp.reconstruct_ms", Unit: "ms", Better: "lower", Layer: "dp", Moves: "latency_p50_ms on paper-cold", Only: []string{wPaperCold, wFillPar, wSparseFine, wSessionStream}},
	{Name: "dp.cache_hit_rate", Unit: "ratio", Better: "higher", Layer: "dp", Moves: "latency_p50_ms on paper-cold; latency_tail_ms on session-stream"},
	{Name: "listsched.pack_ms", Unit: "ms", Better: "lower", Layer: "listsched", Moves: "latency_p50_ms on large-n"},
	{Name: "listsched.repair_ms", Unit: "ms", Better: "lower", Layer: "listsched", Moves: "latency_p50_ms on session-stream", Only: []string{wSessionStream}},
	{Name: "par.pool_setup_ms", Unit: "ms", Better: "lower", Layer: "par", Moves: "latency_p50_ms on fill-par", Only: []string{wFillPar}},
	{Name: "par.fill_speedup_2w", Unit: "x", Better: "higher", Layer: "par", Moves: "speedup_vs_1w on fill-par"},
	{Name: "par.levels_parallel_frac", Unit: "ratio", Better: "higher", Layer: "par", Moves: "speedup_vs_1w on fill-par"},
	{Name: "solver.repair_accept_frac", Unit: "ratio", Better: "higher", Layer: "solver", Moves: "latency_p50_ms and latency_tail_ms on session-stream"},
	{Name: "solver.warm_start_frac", Unit: "ratio", Better: "higher", Layer: "solver", Moves: "latency_tail_ms on session-stream"},
	{Name: "solver.lpt_fallback_frac", Unit: "ratio", Better: "lower", Layer: "solver", Moves: "guards makespan_over_lb"},
	{Name: "solver.sparse_certified_frac", Unit: "ratio", Better: "higher", Layer: "solver", Moves: "guards makespan_over_lb on sparse-fine"},
	{Name: "trace.replay_over_e2e", Unit: "ratio", Better: "lower", Layer: "harness", Moves: "validity of the split: replay median over untraced median"},
}

// appliesTo reports whether a per-layer metric is measured on workload w.
func (m metricSpec) appliesTo(w string) bool {
	if m.Only == nil {
		return true
	}
	for _, o := range m.Only {
		if o == w {
			return true
		}
	}
	return false
}

// findWorkload returns the spec of the named workload.
func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
