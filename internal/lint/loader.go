// Package lint is the repository's static-analysis framework: a module
// loader and a set of syntactic analyzers that machine-check the
// determinism and API invariants the scheduler's correctness depends on
// (see ALGORITHM.md §9 and cmd/schedlint).
//
// The framework is built on the standard library only — go/ast, go/build,
// go/parser and go/types — honoring the repository's no-external-deps rule.
// Stdlib imports are type-checked from GOROOT source and cached process-wide,
// so repeated runs (and the testdata-driven tests) pay the cost once. The
// loader and the runner work on the calling goroutine.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the full import path ("repro/internal/dp").
	Path string
	// RelPath is the path relative to the module root ("internal/dp";
	// "" for the module's root package).
	RelPath string
	// Dir is the absolute directory.
	Dir string
	// Files are the non-test files, parsed with comments and type-checked.
	Files []*ast.File
	// TestFiles are the package's _test.go files (in-package and external),
	// parsed with comments but not type-checked. Only analyzers that are
	// purely syntactic (IncludeTests) see them.
	TestFiles []*ast.File
	// Types and Info hold the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// IsMain reports whether the package is a command (package main).
func (p *Package) IsMain() bool { return p.Types != nil && p.Types.Name() == "main" }

// Module is a loaded, fully type-checked module.
type Module struct {
	// Root is the absolute module root directory (where go.mod lives).
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset maps positions for every parsed file.
	Fset *token.FileSet
	// Packages lists the module's packages sorted by RelPath.
	Packages []*Package

	// funcs is the lazy function-declaration index behind FuncDecl.
	funcs map[*types.Func]funcSite
}

// sharedFset is the process-wide file set: module files and stdlib sources
// live in one set so types.Object positions stay meaningful regardless of
// which load produced them.
var sharedFset = token.NewFileSet()

// stdlib package cache, shared across LoadModule calls (the testdata tests
// load many small modules that all import sync/context/fmt).
var (
	stdMu   sync.Mutex
	stdPkgs = map[string]*types.Package{}
)

// LoadModule loads, parses and type-checks every package under root
// (skipping testdata, vendor, hidden and underscore directories). The
// module path is read from root's go.mod. Type errors are hard errors: the
// analyzers assume a compiling tree.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	raws := make([]rawPkg, len(dirs))
	for i, dir := range dirs {
		if raws[i], err = scanAndParse(&ctxt, root, modPath, dir); err != nil {
			return nil, fmt.Errorf("%s: %w", raws[i].path, err)
		}
	}

	// Type-check in topological order of the module-local import graph
	// (Kahn's algorithm), so every import a checker resolves is complete.
	byPath := make(map[string]int, len(raws))
	for i := range raws {
		byPath[raws[i].path] = i
	}
	indeg := make([]int, len(raws))
	dependents := make([][]int, len(raws))
	for i := range raws {
		for _, imp := range raws[i].imports {
			if j, ok := byPath[imp]; ok {
				indeg[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}
	var ready []int
	for i := range raws {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	imp := &moduleImporter{modPath: modPath, pkgs: make(map[string]*Package, len(raws))}
	sizes := checkerSizes()
	mod := &Module{Root: root, Path: modPath, Fset: sharedFset}
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		p, err := typeCheck(&raws[i], imp, sizes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", raws[i].path, err)
		}
		imp.pkgs[raws[i].path] = p
		mod.Packages = append(mod.Packages, p)
		for _, dep := range dependents[i] {
			if indeg[dep]--; indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(mod.Packages) != len(raws) {
		return nil, fmt.Errorf("import cycle among the module's packages")
	}
	sort.Slice(mod.Packages, func(i, j int) bool { return mod.Packages[i].RelPath < mod.Packages[j].RelPath })
	return mod, nil
}

// rawPkg is one package directory after the scan/parse phase, before
// type-checking.
type rawPkg struct {
	path, rel, dir string
	files          []*ast.File
	testFiles      []*ast.File
	imports        []string // module-local import paths of the non-test files
	empty          bool     // directory with only ignored files
}

// scanAndParse resolves one package directory and parses its files (tests
// included, with comments). Build-constraint-empty directories come back
// with empty set; all other failures are errors.
func scanAndParse(ctxt *build.Context, root, modPath, dir string) (rawPkg, error) {
	rel, _ := filepath.Rel(root, dir)
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	path := modPath
	if rel != "" {
		path = modPath + "/" + rel
	}
	r := rawPkg{path: path, rel: rel, dir: dir}
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			r.empty = true
			return r, nil
		}
		return r, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return r, err
		}
		r.files = append(r.files, f)
	}
	for _, name := range append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...) {
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return r, err
		}
		r.testFiles = append(r.testFiles, f)
	}
	for _, dep := range bp.Imports {
		if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
			r.imports = append(r.imports, dep)
		}
	}
	return r, nil
}

// typeCheck checks one parsed package against the already checked packages
// it imports.
func typeCheck(r *rawPkg, imp *moduleImporter, sizes types.Sizes) (*Package, error) {
	p := &Package{Path: r.path, RelPath: r.rel, Dir: r.dir, Files: r.files, TestFiles: r.testFiles}
	if r.empty {
		return p, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp, Sizes: sizes, FakeImportC: true}
	tpkg, err := conf.Check(r.path, sharedFset, r.files, info)
	if err != nil {
		return nil, err
	}
	p.Types = tpkg
	p.Info = info
	return p, nil
}

// checkerSizes returns the type sizes for the build platform.
func checkerSizes() types.Sizes {
	sizes := types.SizesFor(build.Default.Compiler, build.Default.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	return sizes
}

// moduleImporter implements types.Importer for the module's packages:
// module-local paths resolve against the packages already checked,
// everything else is a standard-library package from GOROOT source.
type moduleImporter struct {
	modPath string
	pkgs    map[string]*Package
}

func (w *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == w.modPath || strings.HasPrefix(path, w.modPath+"/") {
		p := w.pkgs[path]
		if p == nil || p.Types == nil {
			return nil, fmt.Errorf("module package %q not available (missing directory or import cycle)", path)
		}
		return p.Types, nil
	}
	return stdImport(path)
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// packageDirs returns every directory under root that contains .go files,
// skipping testdata, vendor, hidden and underscore-prefixed directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The walk returns to a directory after each of its subdirectories, so
	// a directory can be listed more than once.
	sort.Strings(dirs)
	return slices.Compact(dirs), nil
}

// stdImporter adapts stdImport to types.Importer for checking stdlib
// packages (which only ever import other stdlib packages).
type stdImporter struct{}

func (stdImporter) Import(path string) (*types.Package, error) { return stdImport(path) }

// stdImport type-checks a standard-library package from GOROOT source,
// with a process-wide cache. Comments are not kept and no Info is built:
// only the type objects are needed for cross-package resolution.
func stdImport(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImportLocked(path, map[string]bool{})
}

func stdImportLocked(path string, loading map[string]bool) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := stdPkgs[path]; ok {
		return p, nil
	}
	if loading[path] {
		return nil, fmt.Errorf("std import cycle through %s", path)
	}
	loading[path] = true
	defer delete(loading, path)

	goroot := build.Default.GOROOT
	dir := filepath.Join(goroot, "src", filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		vdir := filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path))
		if _, verr := os.Stat(vdir); verr != nil {
			return nil, fmt.Errorf("cannot find stdlib package %q", path)
		}
		dir = vdir
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:    importerFunc(func(p string) (*types.Package, error) { return stdImportLocked(p, loading) }),
		Sizes:       checkerSizes(),
		FakeImportC: true,
	}
	tpkg, err := conf.Check(path, sharedFset, files, nil)
	if err != nil {
		return nil, err
	}
	stdPkgs[path] = tpkg
	return tpkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
