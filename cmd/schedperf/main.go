// Command schedperf is the repository's end-to-end and per-layer benchmark.
//
// With no -workload it runs the five workloads (paper-cold, fill-par,
// sparse-fine, large-n, session-stream) one after another, each in its own
// child process, prints every metric by name with its unit and sample
// count, and optionally writes them to -out:
//
//	go run . -seed 2017 -out perf.json          (from cmd/schedperf)
//	bash cmd/schedperf/run.sh -seed 2017        (from the repository root)
//
// -workload <name> runs one workload in this process; -trace 1 runs the
// traced replay instead and reports the per-layer metrics; -compare a b
// compares two sets of result files metric by metric against the bounds.
// Every workload is a closed loop: one caller issues the next operation
// only after the previous one returned. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultPrefix marks the line carrying a workload's full result on a
// child's standard output.
const resultPrefix = "schedperf-result "

// maxSpans bounds the spans a traced run keeps for -trace-out.
const maxSpans = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	seed     uint64
	duration time.Duration // 0 measures one batch, or one pass when traced
	trace    bool
	spans    bool // keep the traced run's spans for -trace-out
	small    bool // the smoke test's reduced instance sets
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 2017, "seed every instance and mutation stream derives from")
	seconds := fs.Int("seconds", 0, "measurement time per workload; 0 selects 10 (4 with -trace 1)")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's spans as JSON to this file")
	out := fs.String("out", "", "write the results as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json (each may be a glob or a comma-separated list)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "schedperf: -compare needs two result sets")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	if *seconds == 0 {
		*seconds = 10
		if *trace == 1 {
			*seconds = 4
		}
	}
	cfg := config{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, spans: *traceOut != ""}
	if *name == "" {
		return runAll(cfg, *seconds, *traceOut, *out, stdout, stderr)
	}

	res, spans, err := runWorkload(context.Background(), *name, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "schedperf: %s: %v\n", *name, err)
		return 2
	}
	res.Seconds = *seconds
	printResult(stdout, res)
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			fmt.Fprintf(stderr, "schedperf: %v\n", err)
			return 2
		}
	}
	if *out != "" {
		if err := writeJSON(*out, newResultFile(cfg, *seconds, []*workloadResult{res})); err != nil {
			fmt.Fprintf(stderr, "schedperf: %v\n", err)
			return 2
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "schedperf: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s%s\n", resultPrefix, blob)
	if err := printSummaryLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "schedperf: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one workload.
type bench interface {
	setup(seed uint64) error
	warmup(ctx context.Context, chk *checker, dg *digest) (ratioSum float64, ratioN int)
	timed(ctx context.Context, deadline time.Time, m *meter, chk *checker) map[string]metricValue
	traced(ctx context.Context, deadline time.Time, r *replayer, chk *checker) (untraced, replayed []float64, agg *statAgg)
}

// newBench returns the named workload; name is one of workloadSpecs.
func newBench(name string, small bool) bench {
	switch name {
	case wPaperCold:
		return paperCold(small)
	case wFillPar:
		return fillPar(small)
	case wSparseFine:
		return sparseFine(small)
	case wLargeN:
		return largeN(small)
	case wSessionStream:
		return newSessionBench(small)
	}
	panic("schedperf: workload without an implementation: " + name)
}

// runWorkload sets the workload up (see timeSetup), runs the untimed warm-up
// pass, then measures until cfg.duration has elapsed: untraced for the
// end-to-end metrics, or through the replay for the per-layer ones. Set-up
// errors are returned; failed checks are counted in the result.
func runWorkload(ctx context.Context, name string, cfg config) (*workloadResult, []span, error) {
	spec, ok := findWorkload(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	b := newBench(name, cfg.small)
	setups, err := timeSetup(func() error { return b.setup(cfg.seed) })
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	chk := &checker{}
	dg := newDigest()
	t0 := time.Now()
	ratioSum, ratioN := b.warmup(ctx, chk, dg)
	warmup := time.Since(t0).Seconds()
	if ratioN == 0 {
		return nil, nil, errors.New("warm-up produced no schedule")
	}
	live := liveHeapMiB()

	res := &workloadResult{
		Workload: name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		TailPct:  spec.TailPct,
		Metrics:  map[string]metricValue{},
		Extra:    map[string]metricValue{"warmup_s": {Value: warmup, Unit: "s", Samples: 1}},
		Digest:   dg.String(),
	}
	deadline := time.Now().Add(cfg.duration)
	var spans []span
	mismatches := 0
	if !cfg.trace {
		m := &meter{}
		for k, v := range b.timed(ctx, deadline, m, chk) {
			res.Extra[k] = v
		}
		res.Metrics = e2eMetrics(m, spec.TailPct, ratioSum, ratioN, setups, live)
		res.Attempted = len(m.lat)
	} else {
		keep := 0
		if cfg.spans {
			keep = maxSpans
		}
		r := newReplayer(ctx, keep)
		untraced, replayed, agg := b.traced(ctx, deadline, r, chk)
		r.close()
		for k, v := range layerMetrics(r, agg, untraced, replayed) {
			ms := findLayer(k)
			mv := metricValue{Value: v, Unit: ms.Unit, Samples: len(replayed)}
			switch {
			case ms.Only == nil:
				res.Metrics[k] = mv
			case ms.appliesTo(name):
				res.Extra[k] = mv
			}
		}
		mismatches = r.mismatches
		res.Extra["trace.replay_mismatches"] = metricValue{Value: float64(r.mismatches), Unit: "count", Samples: len(replayed)}
		res.Failures = append(res.Failures, r.mismatchNotes...)
		res.Attempted = len(replayed)
		spans = r.tr.spans
	}
	res.Extra["max_rss_mb"] = metricValue{Value: maxRSSMiB(), Unit: "MiB", Samples: 1}
	res.Failed = chk.failed + mismatches
	res.Failures = append(res.Failures, chk.msgs...)
	res.Correct = res.Failed == 0
	res.Extra["failed_frac"] = metricValue{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted}
	return res, spans, nil
}

func findLayer(name string) metricSpec {
	for _, m := range layerSpecs {
		if m.Name == name {
			return m
		}
	}
	panic("schedperf: unspecified layer metric " + name)
}

// printResult prints every metric of one workload, one per line.
func printResult(w io.Writer, res *workloadResult) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, tail p%g, digest %s)\n", res.Workload, mode, res.Seed, res.TailPct, res.Digest)
	if spec, ok := findWorkload(res.Workload); ok {
		fmt.Fprintf(w, "   %s\n", spec.Recipe)
	}
	for _, group := range []map[string]metricValue{res.Metrics, res.Extra} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := group[k]
			fmt.Fprintf(w, "%-16s %-30s %14.6g %-6s", res.Workload, k, v.Value, v.Unit)
			if v.Samples > 0 {
				fmt.Fprintf(w, " n=%d", v.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", res.Workload, f)
	}
}

// printSummaryLine prints the one-line summary every run ends with.
func printSummaryLine(w io.Writer, res *workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for k, v := range res.Metrics {
		line.Metrics[k] = value{v.Value, v.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// resultFile is the -out document.
type resultFile struct {
	Host      hostStamp         `json:"host"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads []*workloadResult `json:"workloads"`
}

func newResultFile(cfg config, seconds int, results []*workloadResult) resultFile {
	return resultFile{Host: readHostStamp(cfg.seed), Seconds: seconds, Trace: cfg.trace, Workloads: results}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// runAll runs every workload in its own child process (this binary
// re-executed with -workload), so each reports its own peak RSS and no
// workload inherits another's heap.
func runAll(cfg config, seconds int, traceOut, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "schedperf: %v\n", err)
		return 2
	}
	code := 0
	var results []*workloadResult
	for _, w := range workloadSpecs {
		args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(seconds)}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ".json")+"."+w.Name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res := relayChild(&buf, stdout)
		switch {
		case res == nil:
			fmt.Fprintf(stderr, "schedperf: %s: no result (%v)\n", w.Name, runErr)
			code = 1
			continue
		case runErr != nil || !res.Correct:
			code = 1
		}
		results = append(results, res)
	}
	if out != "" {
		if err := writeJSON(out, newResultFile(cfg, seconds, results)); err != nil {
			fmt.Fprintf(stderr, "schedperf: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", out)
	}
	return code
}

// relayChild copies a child's human-readable lines to w and returns its
// parsed result, or nil when it printed none.
func relayChild(r io.Reader, w io.Writer) *workloadResult {
	var res *workloadResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if blob, ok := strings.CutPrefix(line, resultPrefix); ok {
			var parsed workloadResult
			if json.Unmarshal([]byte(blob), &parsed) == nil {
				res = &parsed
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			continue // the one-line summary; the full result replaces it
		}
		fmt.Fprintln(w, line)
	}
	return res
}
