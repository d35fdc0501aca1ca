package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/solver"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root,
// rejecting any key the schema does not have.
func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func specMetrics(specs []metricSpec, withBound bool) []fileMetric {
	var out []fileMetric
	for _, m := range specs {
		if m.Only != nil {
			continue
		}
		fm := fileMetric{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if withBound {
			b := m.Bound
			fm.Bound = &b
		}
		out = append(out, fm)
	}
	return out
}

func TestBenchmarkFileMatchesSpec(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if want := []string{"bash", "cmd/schedperf/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command %v, want %v", bf.Command, want)
	}
	if want := []string{"cmd/schedperf"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}

	var wantWorkloads []fileWorkload
	for _, w := range workloadSpecs {
		wantWorkloads = append(wantWorkloads, fileWorkload{w.Name, w.Why})
	}
	if !reflect.DeepEqual(bf.Workloads, wantWorkloads) {
		t.Errorf("workloads differ from the spec:\n got %+v\nwant %+v", bf.Workloads, wantWorkloads)
	}
	if !reflect.DeepEqual(bf.EndToEnd, specMetrics(e2eSpecs, true)) {
		t.Errorf("end_to_end differs from the spec")
	}
	if !reflect.DeepEqual(bf.PerLayer, specMetrics(layerSpecs, false)) {
		t.Errorf("per_layer differs from the spec (it must list exactly the per-layer metrics with no Only)")
	}

	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("name %q does not match %s", name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	maxBound, setupBound := 0.0, -1.0
	for _, group := range [][]fileMetric{bf.EndToEnd, bf.PerLayer} {
		for _, m := range group {
			checkName(m.Name)
			if !unitPattern.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitPattern)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
			setupBound = *m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest bound %g", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range layerSpecs {
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("per-layer metric %s must name its layer and what it should move", m.Name)
		}
	}
	for _, w := range workloadSpecs {
		if w.Recipe == "" || (w.TailPct != 90 && w.TailPct != 99) {
			t.Errorf("workload %s needs a recipe and a p90 or p99 tail", w.Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced on the reduced instance
// sets, one pass each, and checks the emitted names, units and checks.
func TestSmoke(t *testing.T) {
	start := time.Now()
	ctx := context.Background()
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			res, _, err := runWorkload(ctx, w.Name, config{seed: 7, trace: trace, small: true})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			var want []string
			specs := e2eSpecs
			if trace {
				specs = layerSpecs
			}
			for _, m := range specMetrics(specs, false) {
				want = append(want, m.Name)
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): metrics %v, want %v", w.Name, trace, got, want)
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok && m.Only != nil && m.appliesTo(w.Name) {
					v, ok = res.Extra[m.Name]
					if !ok {
						t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
					}
				}
				if !ok {
					continue
				}
				if v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %v %q", w.Name, m.Name, v.Value, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
			if res.Failed != 0 || res.Extra["failed_frac"].Value != 0 {
				t.Errorf("%s (trace %v): %d failed: %v", w.Name, trace, res.Failed, res.Failures)
			}
			if trace && res.Extra["trace.replay_mismatches"].Value != 0 {
				t.Errorf("%s: replay mismatches: %v", w.Name, res.Failures)
			}

			var buf bytes.Buffer
			if err := printSummaryLine(&buf, res); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: summary line %s", w.Name, buf.String())
			}
			if res.Attempted < 1 {
				t.Errorf("%s: attempted %d", w.Name, res.Attempted)
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// TestCheckMovedJobFails moves one job onto the busiest machine: the
// makespan no longer matches the instance's reference, so the op fails.
func TestCheckMovedJobFails(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 10, N: 50, Seed: 1})
	inst := newColdInstance("moved", in)
	sched, _, err := solver.PTAS(context.Background(), in, solver.DefaultPTASOptions())
	chk := &checker{}
	ref := chk.checkCold("clean", in, sched, err, 0, inst.lptMS)
	if chk.failed != 0 {
		t.Fatalf("clean solve failed: %v", chk.msgs)
	}
	loads := sched.Loads(in)
	busiest := 0
	for i, l := range loads {
		if l > loads[busiest] {
			busiest = i
		}
	}
	bad := sched.Clone()
	for j, mi := range bad.Assignment {
		if mi != busiest {
			bad.Assignment[j] = busiest
			break
		}
	}
	chk.checkCold("moved", in, bad, nil, ref, inst.lptMS)
	if chk.failed != 1 {
		t.Fatalf("moved job: %d failures, want 1 (%v)", chk.failed, chk.msgs)
	}
}

// TestReplayWrongKMismatches replays an eps 0.3 solve (k = 4) with eps 0.2
// (k = 5). eps 0.25 would not do: it also gives k = 4, and the faithful
// pipeline depends on eps only through k.
func TestReplayWrongKMismatches(t *testing.T) {
	ctx := context.Background()
	in := workload.MustGenerate(workload.Spec{Family: workload.U1_10n, M: 10, N: 50, Seed: 1})
	sched, st, err := solver.PTAS(ctx, in, solver.DefaultPTASOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eps  float64
		want int
	}{{0.3, 0}, {0.2, 1}} {
		r := newReplayer(ctx, 0)
		r.tr.begin(spOp)
		res, err := r.solve(in, solveOpts{eps: tc.eps, workers: 1})
		r.tr.end()
		r.close()
		if err != nil {
			t.Fatal(err)
		}
		r.checkReplay("replay", res, st, res.sched.Makespan(in), sched.Makespan(in))
		if r.mismatches != tc.want {
			t.Errorf("replay at eps %g: %d mismatches, want %d (%v)", tc.eps, r.mismatches, tc.want, r.mismatchNotes)
		}
	}
}

// TestCheckSessionAboveColdFails fails a warm result above (1+eps) times
// the cold solve and accepts one exactly at the limit.
func TestCheckSessionAboveColdFails(t *testing.T) {
	chk := &checker{}
	chk.checkSessionStep("at limit", 130, 100, 0.3)
	if chk.failed != 0 {
		t.Fatalf("warm 130 vs cold 100 at eps 0.3 failed: %v", chk.msgs)
	}
	chk.checkSessionStep("above", 131, 100, 0.3)
	if chk.failed != 1 {
		t.Fatalf("warm 131 vs cold 100 at eps 0.3: %d failures, want 1", chk.failed)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		rf := resultFile{Workloads: []*workloadResult{{
			Workload: wPaperCold,
			Metrics:  map[string]metricValue{"latency_p50_ms": {Value: p50, Unit: "ms"}},
		}}}
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1.0)
	for _, tc := range []struct {
		name string
		p50  float64
		want int
	}{
		{"same.json", 1.0, 0},
		{"better.json", 0.5, 0},
		{"within.json", 1.1, 0},
		{"worse.json", 1.3, 1},
	} {
		var out bytes.Buffer
		if got := runCompare(base, write(tc.name, tc.p50), &out, &out); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
	var out bytes.Buffer
	if got := runCompare(base, filepath.Join(dir, "missing-*.json"), &out, &out); got == 0 {
		t.Errorf("missing result set accepted")
	}
}
