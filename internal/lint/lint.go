package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding. Positions are relative to the module root so
// output is stable regardless of where schedlint runs.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: check: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named invariant check, run over one package at a time.
type Analyzer struct {
	// Name is the check identifier used in output and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// IncludeTests makes Files() also yield the package's _test.go files.
	// Those are parsed but not type-checked, so only purely syntactic
	// analyzers may set this.
	IncludeTests bool
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package
	diags    *[]Diagnostic
}

// Files yields the files the analyzer should inspect: the type-checked
// non-test files, plus the parsed test files when IncludeTests is set.
func (p *Pass) Files() []*ast.File {
	if !p.Analyzer.IncludeTests {
		return p.Pkg.Files
	}
	out := make([]*ast.File, 0, len(p.Pkg.Files)+len(p.Pkg.TestFiles))
	out = append(out, p.Pkg.Files...)
	out = append(out, p.Pkg.TestFiles...)
	return out
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.Mod.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one well-formed //lint:ignore comment.
type ignoreDirective struct {
	file  string // module-relative path
	line  int
	col   int
	check string
}

// DirectiveCheck is the pseudo-check name under which malformed, unknown
// and stale //lint:ignore directives are reported; it cannot itself be
// suppressed.
const DirectiveCheck = "lintdirective"

const ignorePrefix = "//lint:ignore"

// collectDirectives scans every comment of every parsed file (tests
// included: syntactic checks fire there too) for //lint:ignore directives.
// A well-formed directive is "//lint:ignore <check> <reason>" where <check>
// names a known analyzer and <reason> is non-empty; anything else is itself
// a diagnostic, so silent no-op suppressions cannot rot in the tree.
func collectDirectives(mod *Module, known map[string]bool, diags *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, pkg := range mod.Packages {
		files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.TestFiles))
		files = append(files, pkg.Files...)
		files = append(files, pkg.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					file := pos.Filename
					if rel, err := filepath.Rel(mod.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
						file = filepath.ToSlash(rel)
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // some other //lint:ignoreXxx token, not ours
					}
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						*diags = append(*diags, Diagnostic{
							File: file, Line: pos.Line, Col: pos.Column, Check: DirectiveCheck,
							Message: "malformed directive: want //lint:ignore <check> <reason>",
						})
					case len(fields) == 1:
						*diags = append(*diags, Diagnostic{
							File: file, Line: pos.Line, Col: pos.Column, Check: DirectiveCheck,
							Message: fmt.Sprintf("directive for %q is missing a reason: every suppression must say why", fields[0]),
						})
					case !known[fields[0]]:
						*diags = append(*diags, Diagnostic{
							File: file, Line: pos.Line, Col: pos.Column, Check: DirectiveCheck,
							Message: fmt.Sprintf("directive names unknown check %q", fields[0]),
						})
					default:
						out = append(out, ignoreDirective{file: file, line: pos.Line, col: pos.Column, check: fields[0]})
					}
				}
			}
		}
	}
	return out
}

// suppress filters diagnostics covered by a directive on the same line or
// the line directly above (the "trailing comment" and "comment above"
// placements). The lintdirective pseudo-check is never suppressible. A
// directive that suppressed nothing is stale — the finding it once excused
// is gone, and keeping the comment would teach readers to ignore
// directives — and becomes a lintdirective finding itself.
func suppress(diags []Diagnostic, directives []ignoreDirective) []Diagnostic {
	type key struct {
		file  string
		line  int
		check string
	}
	idx := make(map[key][]int, 2*len(directives))
	for i, d := range directives {
		idx[key{d.file, d.line, d.check}] = append(idx[key{d.file, d.line, d.check}], i)
		idx[key{d.file, d.line + 1, d.check}] = append(idx[key{d.file, d.line + 1, d.check}], i)
	}
	used := make([]bool, len(directives))
	out := diags[:0]
	for _, d := range diags {
		if hits := idx[key{d.File, d.Line, d.Check}]; d.Check != DirectiveCheck && len(hits) > 0 {
			for _, i := range hits {
				used[i] = true
			}
			continue
		}
		out = append(out, d)
	}
	for i, d := range directives {
		if !used[i] {
			out = append(out, Diagnostic{
				File: d.file, Line: d.line, Col: d.col, Check: DirectiveCheck,
				Message: fmt.Sprintf("stale directive: no %s finding on this or the next line to suppress; delete it", d.check),
			})
		}
	}
	return out
}

// RunAnalyzers loads the module at root and runs the given analyzers over
// it on the calling goroutine.
func RunAnalyzers(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	diags, _ := RunOnModule(mod, analyzers)
	return diags, nil
}

// AnalyzerTiming is the wall time one analyzer spent over every package, as
// reported by schedlint -v.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunOnModule runs the analyzers over an already-loaded module on the
// calling goroutine, one analyzer at a time over every package. It returns
// the surviving (non-suppressed) diagnostics, stale and malformed
// //lint:ignore directives included, sorted by check and then by position
// so a report lists each check's findings together, and each analyzer's
// timing in analyzer order.
func RunOnModule(mod *Module, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	var diags []Diagnostic
	timings := make([]AnalyzerTiming, len(analyzers))
	for ai, a := range analyzers {
		start := time.Now()
		for _, pkg := range mod.Packages {
			if pkg.Types == nil {
				continue // empty directory package
			}
			a.Run(&Pass{Analyzer: a, Mod: mod, Pkg: pkg, diags: &diags})
		}
		timings[ai] = AnalyzerTiming{Name: a.Name, Elapsed: time.Since(start)}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives := collectDirectives(mod, known, &diags)
	diags = suppress(diags, directives)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return diags, timings
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoRandGlobal,
		CtxFirst,
		GoHygiene,
		MapOrder,
		NakedPanic,
	}
}
