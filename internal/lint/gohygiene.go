package lint

import (
	"go/ast"
	"strings"
)

// GoHygiene keeps goroutine lifecycles in one place: outside internal/par,
// whose Pool starts, joins and stops every worker the module runs, no
// non-test file may contain a go statement. Code that needs parallelism
// runs its work as a round on a par.Pool, whose dispatch returns only after
// every body finished and whose Close waits for its workers to exit.
var GoHygiene = &Analyzer{
	Name: "gohygiene",
	Doc:  "no go statement outside internal/par: goroutines come from par.Pool",
	Run:  runGoHygiene,
}

func runGoHygiene(p *Pass) {
	if p.Pkg.RelPath == "internal/par" || strings.HasSuffix(p.Pkg.Path, "/internal/par") {
		return
	}
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement outside internal/par; run the work as a round on a par.Pool")
			}
			return true
		})
	}
}
