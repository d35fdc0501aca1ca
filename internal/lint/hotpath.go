package lint

// Shared helpers for the hot-path analyzers: directive collection for
// //lint:hotpath and //lint:parseroot, and the cold-branch classification
// that scopes allocation checks to the code that actually runs on the hot
// path.

import (
	"go/ast"
	"go/types"
	"strings"
)

const (
	hotpathPrefix   = "//lint:hotpath"
	parserootPrefix = "//lint:parseroot"
)

func isHotpathDirective(text string) bool   { return isDirective(text, hotpathPrefix) }
func isParserootDirective(text string) bool { return isDirective(text, parserootPrefix) }

// isDirective matches a comment that is the directive prefix, alone or
// followed by a space or tab and a reason.
func isDirective(text, prefix string) bool {
	rest, ok := strings.CutPrefix(text, prefix)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// directiveFuncs returns the file's function declarations whose doc comment
// carries a directive matched by match, plus the set of comments that were
// attached to a declaration (for stray-directive checks).
func directiveFuncs(f *ast.File, match func(string) bool) ([]*ast.FuncDecl, map[*ast.Comment]bool) {
	var fns []*ast.FuncDecl
	attached := map[*ast.Comment]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		marked := false
		for _, c := range fd.Doc.List {
			if match(c.Text) {
				attached[c] = true
				marked = true
			}
		}
		if marked {
			fns = append(fns, fd)
		}
	}
	return fns, attached
}

// reportStray flags directive comments that are not part of any function
// declaration's doc comment.
func reportStray(pass *Pass, f *ast.File, match func(string) bool, attached map[*ast.Comment]bool, what string) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if match(c.Text) && !attached[c] {
				pass.Reportf(c.Pos(), "stray %s: the directive must be part of a function declaration's doc comment", what)
			}
		}
	}
}

// coldBlocks classifies the blocks of a hot function that only execute on
// error bail-outs: a block is cold when no "good" block is reachable from
// it. Good blocks keep the function on its productive path — a normal
// (non-error) return, falling off the end, or taking a loop back edge.
// Allocation checks skip cold blocks: a composite literal on the
// `return fmt.Errorf(...)` path costs nothing per hot iteration.
func coldBlocks(info *types.Info, fd *ast.FuncDecl, cfg *CFG, dom *DomInfo) map[*Block]bool {
	good := map[*Block]bool{}
	for _, b := range dom.rpo {
		if b == cfg.Exit {
			continue
		}
		for _, s := range b.Succs {
			if s == cfg.Exit {
				if exitIsGood(info, fd, b) {
					good[b] = true
				}
				continue
			}
			// A back edge: the successor dominates the block, so the block
			// is part of a loop body — hot by definition.
			if dom.Dominates(s, b) {
				good[b] = true
			}
		}
	}
	// Backward reachability: every block that can reach a good block is
	// warm; the rest (reachable but err-return-only) is cold.
	warm := map[*Block]bool{}
	var queue []*Block
	for _, b := range dom.rpo {
		if good[b] {
			warm[b] = true
			queue = append(queue, b)
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, p := range dom.preds[b] {
			if !warm[p] {
				warm[p] = true
				queue = append(queue, p)
			}
		}
	}
	cold := map[*Block]bool{}
	for _, b := range dom.rpo {
		if b != cfg.Exit && !warm[b] {
			cold[b] = true
		}
	}
	return cold
}

// exitIsGood classifies how a block reaches the exit: a panic call or a
// return whose trailing error result is non-nil marks an error bail-out;
// anything else (normal return, fall-off) is the productive path.
func exitIsGood(info *types.Info, fd *ast.FuncDecl, b *Block) bool {
	if len(b.Nodes) == 0 {
		return true // empty fall-off block
	}
	switch last := b.Nodes[len(b.Nodes)-1].(type) {
	case *ast.ReturnStmt:
		return returnIsNormal(info, fd, last)
	case *ast.ExprStmt:
		if isPanicCall(last.X) {
			return false
		}
	}
	return true
}

// returnIsNormal reports whether the return is a success-path return: the
// function has no trailing error result, or the trailing result expression
// is a nil literal. Naked returns count as normal (the conservative choice:
// fewer blocks classified cold means more allocation findings, never
// fewer).
func returnIsNormal(info *types.Info, fd *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	results := fd.Type.Results
	if results == nil || results.NumFields() == 0 {
		return true
	}
	var lastType ast.Expr
	for _, f := range results.List {
		lastType = f.Type
	}
	id, ok := lastType.(*ast.Ident)
	if !ok || id.Name != "error" {
		return true
	}
	if len(ret.Results) == 0 {
		return true // naked return: assume success path
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	if lit, ok := last.(*ast.Ident); ok && lit.Name == "nil" {
		return true
	}
	if tv, ok := info.Types[last]; ok && tv.IsNil() {
		return true
	}
	return false
}
