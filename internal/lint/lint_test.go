package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expected diagnostic, parsed from a `// want "regex"` comment.
type want struct {
	file    string // module-relative
	line    int
	pattern *regexp.Regexp
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// runCase loads one testdata module, runs the named analyzers, and checks
// the diagnostics against the module's want annotations: every want must be
// matched by at least one diagnostic on its line, and every diagnostic must
// be covered by a want.
func runCase(t *testing.T, dir string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	diags, _ := RunOnModule(mod, analyzers)

	var wants []want
	for _, pkg := range mod.Packages {
		files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.TestFiles))
		files = append(files, pkg.Files...)
		files = append(files, pkg.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regex %q: %v", m[1], err)
					}
					pos := mod.Fset.Position(c.Pos())
					rel, _ := filepath.Rel(mod.Root, pos.Filename)
					wants = append(wants, want{file: filepath.ToSlash(rel), line: pos.Line, pattern: re})
				}
			}
		}
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		covered := false
		for i, w := range wants {
			if w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
				matched[i] = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.pattern)
		}
	}
	return diags
}

// fixture is one analyzer's row in the fixture table: the testdata module
// it must fail on, and how many findings that module yields.
type fixture struct {
	dir   string
	count int
}

// fixtures is the analyzers' one fixture table. TestFixtures demands a row
// for every analyzer in All() and at least one finding per row: a check that
// cannot fail on its own fixture proves nothing.
var fixtures = map[*Analyzer]fixture{
	// The library import and the test-file import; the internal/rng and
	// clean packages stay quiet.
	NoRandGlobal: {"norand", 2},
	// Misordered, RunAll, Mint, plus the PR 5 regressions: variadic ctx and
	// the blocking method value handed to a helper.
	CtxFirst: {"ctxfirst", 5},
	// Every go statement outside internal/par: leaky's unjoined one and
	// joined's two, whose barriers do not exempt them. The test file's go
	// statement and internal/par's stay quiet.
	GoHygiene: {"gohygiene", 3},
	// The append without a later sort and the output inside the range.
	MapOrder: {"maporder", 2},
	// Halve's undocumented panic.
	NakedPanic: {"nakedpanic", 1},
}

// runFixture runs a alone over its fixture module and checks the findings
// against the module's want comments and the row's count.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	f, ok := fixtures[a]
	if !ok {
		t.Fatalf("%s has no row in the fixture table", a.Name)
	}
	if f.count == 0 {
		t.Fatalf("%s's row expects no finding: its fixture must make it fail", a.Name)
	}
	if diags := runCase(t, f.dir, a); len(diags) != f.count {
		t.Errorf("%s: want %d diagnostics, got %d: %v", a.Name, f.count, len(diags), diags)
	}
}

// TestFixtures is the table-driven gate over All(): every analyzer has a
// row, and its fixture makes it fail exactly as the row says.
func TestFixtures(t *testing.T) {
	all := All()
	for _, a := range all {
		t.Run(a.Name, func(t *testing.T) { runFixture(t, a) })
	}
	if len(fixtures) != len(all) {
		t.Errorf("fixture table has %d rows for %d analyzers: drop the rows of deleted analyzers", len(fixtures), len(all))
	}
}

// One entry point per analyzer, for running a single fixture by name.
func TestNoRandGlobal(t *testing.T) { runFixture(t, NoRandGlobal) }
func TestCtxFirst(t *testing.T)     { runFixture(t, CtxFirst) }
func TestGoHygiene(t *testing.T)    { runFixture(t, GoHygiene) }
func TestMapOrder(t *testing.T)     { runFixture(t, MapOrder) }
func TestNakedPanic(t *testing.T)   { runFixture(t, NakedPanic) }

// TestSuppressionScope pins down directive scoping across analyzers: a line
// whose go statement trips gohygiene and whose context.Background() trips
// ctxfirst, under a directive naming only gohygiene, must still produce the
// ctxfirst finding.
func TestSuppressionScope(t *testing.T) {
	root := filepath.Join("testdata", "src", "scopeignore")
	diags, err := RunAnalyzers(root, All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the surviving ctxfirst finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Check != CtxFirst.Name {
		t.Errorf("surviving finding is %s, want %s: %s", diags[0].Check, CtxFirst.Name, diags[0])
	}
}

// TestSuppression proves the directive contract: a well-formed
// //lint:ignore silences exactly its check on the same or next line; a
// directive without a reason, naming an unknown check, or suppressing
// nothing is itself reported, and the first two silence nothing.
func TestSuppression(t *testing.T) {
	root := filepath.Join("testdata", "src", "suppress")
	diags, err := RunAnalyzers(root, All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	var gohygiene, directive []Diagnostic
	for _, d := range diags {
		switch d.Check {
		case GoHygiene.Name:
			gohygiene = append(gohygiene, d)
		case DirectiveCheck:
			directive = append(directive, d)
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	// Detach and DetachTrailing are suppressed; NoReason and WrongCheck
	// carry invalid directives, so their findings survive.
	if len(gohygiene) != 2 {
		t.Errorf("want 2 surviving gohygiene diagnostics, got %d: %v", len(gohygiene), gohygiene)
	}
	if len(directive) != 3 {
		t.Fatalf("want 3 directive diagnostics, got %d: %v", len(directive), directive)
	}
	for i, want := range []string{"missing a reason", `unknown check "nosuchcheck"`, "stale directive"} {
		if !strings.Contains(directive[i].Message, want) {
			t.Errorf("directive diagnostic %d should say %q, got %q", i, want, directive[i].Message)
		}
	}
}

// TestStaleSuppressions proves the stale-directive audit: a well-formed
// directive whose finding is gone (Stale) is a lintdirective finding at the
// directive, and the directives that suppressed a finding (Detach,
// DetachTrailing) are not.
func TestStaleSuppressions(t *testing.T) {
	diags, err := RunAnalyzers(filepath.Join("testdata", "src", "suppress"), All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	var stale []Diagnostic
	for _, d := range diags {
		if d.Check == DirectiveCheck && strings.Contains(d.Message, "stale") {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("want 1 stale directive finding, got %d: %v", len(stale), stale)
	}
	if d := stale[0]; d.File != "lib/lib.go" || d.Line != 35 || !strings.Contains(d.Message, "no gohygiene finding") {
		t.Errorf("stale finding should name gohygiene at Stale's directive (lib/lib.go:35): %s", d)
	}
}

// TestRepoIsClean is the merged-tree acceptance gate in test form: the
// repository itself must produce zero findings, so scripts/check.sh's
// schedlint step exits 0.
func TestRepoIsClean(t *testing.T) {
	diags, err := RunAnalyzers(filepath.Join("..", ".."), All())
	if err != nil {
		t.Fatalf("RunAnalyzers(repo): %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo tree finding: %s", d)
	}
}

// TestLoader sanity-checks the module loader on the repository itself:
// module path, package discovery, type information and test-file parsing.
func TestLoader(t *testing.T) {
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if mod.Path != "repro" {
		t.Errorf("module path = %q, want repro", mod.Path)
	}
	byRel := map[string]*Package{}
	for _, p := range mod.Packages {
		if byRel[p.RelPath] != nil {
			t.Errorf("package %q loaded twice: the root directory's files come before and after its subdirectories in a walk", p.RelPath)
		}
		byRel[p.RelPath] = p
	}
	for _, rel := range []string{"solver", "internal/dp", "internal/par", "internal/lint", "cmd/schedlint"} {
		p, ok := byRel[rel]
		if !ok {
			t.Fatalf("package %s not loaded", rel)
		}
		if p.Types == nil || len(p.Files) == 0 {
			t.Errorf("package %s has no type info or files", rel)
		}
	}
	if p := byRel["internal/dp"]; len(p.TestFiles) == 0 {
		t.Errorf("internal/dp test files not parsed")
	}
	if !byRel["cmd/schedlint"].IsMain() {
		t.Errorf("cmd/schedlint should be package main")
	}
	if byRel["solver"].IsMain() {
		t.Errorf("solver should not be package main")
	}
}
