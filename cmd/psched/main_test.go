package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/pcmax"
)

func writeInstance(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEveryAlgorithm(t *testing.T) {
	path := writeInstance(t, "m 3\n9 8 7 6 5 4 3 2 1\n")
	for _, algo := range []string{"ls", "lpt", "multifit", "ptas", "exact"} {
		var out strings.Builder
		err := run([]string{"-algo", algo, path}, nil, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), algo+" makespan:") {
			t.Fatalf("%s output missing makespan line:\n%s", algo, out.String())
		}
	}
}

func TestRunReadsStdin(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-algo", "lpt"}, strings.NewReader("m 2\n4 3 3\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "lpt makespan: 6") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunRatioFlag(t *testing.T) {
	path := writeInstance(t, "m 2\n5 4 3 2\n")
	var out strings.Builder
	if err := run([]string{"-algo", "ptas", "-ratio", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact makespan: 7") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "actual ratio") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunGanttFlag(t *testing.T) {
	path := writeInstance(t, "m 2\n5 4\n")
	var out strings.Builder
	if err := run([]string{"-algo", "lpt", "-gantt", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "machine 0") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	path := writeInstance(t, "m 2\n5 4\n")
	if err := run([]string{"-algo", "nope", path}, nil, &strings.Builder{}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"/nonexistent/instance.txt"}, nil, &strings.Builder{}); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestRunTooManyArgs(t *testing.T) {
	if err := run([]string{"a", "b"}, nil, &strings.Builder{}); err == nil {
		t.Fatal("want error for extra args")
	}
}

func TestRunBadInstance(t *testing.T) {
	path := writeInstance(t, "not an instance\n")
	if err := run([]string{path}, nil, &strings.Builder{}); err == nil {
		t.Fatal("want parse error")
	}
}

func TestRunCompareAll(t *testing.T) {
	path := writeInstance(t, "m 3\n9 8 7 6 5 4 3 2 1\n")
	var out strings.Builder
	if err := run([]string{"-algo", "all", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"algorithm", "ls", "lpt", "multifit", "ptas", "exact", "ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("compare output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeInstance(t, "m 2\n5 4 3\n")
	var out strings.Builder
	if err := run([]string{"-algo", "lpt", "-json", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Algorithm string `json:"algorithm"`
		Makespan  int64  `json:"makespan"`
		Schedule  struct {
			M          int   `json:"m"`
			Assignment []int `json:"assignment"`
		} `json:"schedule"`
	}
	if err := json.Unmarshal([]byte(out.String()), &decoded); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if decoded.Algorithm != "lpt" || decoded.Makespan != 7 || len(decoded.Schedule.Assignment) != 3 {
		t.Fatalf("decoded %+v", decoded)
	}
}

// TestRunExactTimeoutShowsIncumbent runs the exact and ip solvers into
// -exact-timeout on an instance neither finishes before its first context
// poll: psched reports the interruption, shows the incumbent and exits
// cleanly.
func TestRunExactTimeoutShowsIncumbent(t *testing.T) {
	var inst strings.Builder
	in := workload.MustGenerate(workload.Spec{Family: workload.U95_105, M: 10, N: 37, Seed: 1})
	if err := pcmax.WriteText(&inst, in); err != nil {
		t.Fatal(err)
	}
	path := writeInstance(t, inst.String())
	for _, algo := range []string{"exact", "ip"} {
		var out strings.Builder
		if err := run([]string{"-algo", algo, "-exact-timeout", "1ns", path}, nil, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for _, want := range []string{algo + ": interrupted", "best incumbent shown", algo + " makespan:"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s output missing %q:\n%s", algo, want, out.String())
			}
		}
	}
}
