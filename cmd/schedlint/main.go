// Command schedlint runs the repository's static-analysis suite: five
// syntactic analyzers (see internal/lint and ALGORITHM.md §9) that
// machine-check the determinism and API invariants the scheduler depends
// on — deterministic RNG only through internal/rng, context threaded
// through every blocking solver entry point, no go statement outside
// internal/par, no map iteration order leaking into results, and no
// undocumented library panics. Lock copies are go vet's copylocks check and
// data races the race detector's (scripts/check.sh); goroutine release,
// lock order and cancellation poll strides are pinned by tests in par, dp
// and exact, and the hot kernels' allocations and Validate's overflow caps
// by tests too (ALGORITHM.md §11 and §14), not by schedlint.
//
// Usage:
//
//	schedlint [-json] [-out file] [-v] [packages]
//
// schedlint always analyzes the whole module containing the working
// directory; package arguments (./...) are accepted for command-line
// familiarity but do not narrow the run — the invariants are module-wide.
// Findings print grouped by check, each group in position order, as
// file:line:col: check: message (or a JSON array with -json), and any
// finding makes the exit status 1. Suppress an individual finding with a
// trailing or preceding comment:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory. Malformed directives, directives naming an
// unknown check and stale directives (suppressing nothing) are themselves
// findings of the lintdirective check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one schedlint invocation's parsed flags.
type config struct {
	jsonOut bool
	outFile string
	verbose bool
}

// run is the testable entry point: parses flags, runs the suite, writes the
// report, and returns the process exit code (0 clean, 1 findings, 2 errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit findings as a JSON array")
	fs.StringVar(&cfg.outFile, "out", "", "also write the report to this file (implies the same format as stdout)")
	fs.BoolVar(&cfg.verbose, "v", false, "print load and per-analyzer wall time to stderr")
	listChecks := fs.Bool("checks", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: schedlint [-json] [-out file] [-v] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *listChecks {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "schedlint: %v\n", err)
		return 2
	}
	loadStart := time.Now()
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "schedlint: %v\n", err)
		return 2
	}
	loadTime := time.Since(loadStart)
	diags, timings := lint.RunOnModule(mod, analyzers)
	if cfg.verbose {
		fmt.Fprintf(stderr, "schedlint: load %8.1fms  (%d packages)\n", millis(loadTime), len(mod.Packages))
		for _, t := range timings {
			fmt.Fprintf(stderr, "schedlint: %-12s %8.1fms\n", t.Name, millis(t.Elapsed))
		}
	}
	if err := writeReport(stdout, cfg.jsonOut, diags); err != nil {
		fmt.Fprintf(stderr, "schedlint: %v\n", err)
		return 2
	}
	if cfg.outFile != "" {
		f, err := os.Create(cfg.outFile)
		if err == nil {
			err = writeReport(f, cfg.jsonOut, diags)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "schedlint: %v\n", err)
			return 2
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeReport renders the findings: one line per finding, or an indented
// JSON array (never null — an empty run is []) when jsonOut is set.
func writeReport(w io.Writer, jsonOut bool, diags []lint.Diagnostic) error {
	if !jsonOut {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		_, err := io.WriteString(w, b.String())
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	return enc.Encode(diags)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
