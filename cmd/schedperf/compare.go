package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// runCompare prints, for every (workload, end-to-end metric) pair, the
// median of each side's result files, the relative change from a to b and
// the metric's bound. It fails when b is worse than a by more than the
// bound, or when a pair is measured on one side only. Running it both ways
// round checks that two sets of runs of the same code agree.
func runCompare(a, b string, stdout, stderr io.Writer) int {
	left, err := loadResults(a)
	if err != nil {
		fmt.Fprintf(stderr, "schedperf: %v\n", err)
		return 2
	}
	right, err := loadResults(b)
	if err != nil {
		fmt.Fprintf(stderr, "schedperf: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	code := 0
	for _, w := range workloadSpecs {
		for _, m := range e2eSpecs {
			av, an := medianMetric(left, w.Name, m.Name)
			bv, bn := medianMetric(right, w.Name, m.Name)
			if an == 0 && bn == 0 {
				continue
			}
			if an == 0 || bn == 0 {
				fmt.Fprintf(stdout, "%-16s %-20s measured on one side only\n", w.Name, m.Name)
				code = 1
				continue
			}
			delta := (bv - av) / av
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "WORSE"
				code = 1
			case -worse > m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (%d vs %d runs)\n",
				w.Name, m.Name, av, bv, 100*delta, 100*m.Bound, verdict, an, bn)
		}
	}
	return code
}

// loadResults reads every result file a comma-separated list of paths or
// glob patterns names.
func loadResults(list string) ([]resultFile, error) {
	var out []resultFile
	for _, pat := range strings.Split(list, ",") {
		paths, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no result file matches %q", pat)
		}
		for _, p := range paths {
			blob, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var rf resultFile
			if err := json.Unmarshal(blob, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, rf)
		}
	}
	return out, nil
}

// medianMetric returns the median of an untraced metric over the result
// files that measured it, and how many did.
func medianMetric(files []resultFile, workload, metric string) (float64, int) {
	var vals []float64
	for _, f := range files {
		for _, w := range f.Workloads {
			if w.Workload != workload || w.Trace {
				continue
			}
			if v, ok := w.Metrics[metric]; ok && !math.IsNaN(v.Value) {
				vals = append(vals, v.Value)
			}
		}
	}
	return median(vals), len(vals)
}
