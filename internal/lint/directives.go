package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suite's directives are line comments of the form
//
//	//hmn:wallclock                 this line legitimately reads the wall clock
//	//hmn:orderinvariant            this map iteration's effect is order-free
//	//hmn:guardedby <mutex>         struct field guarded by the named mutex
//	//hmn:locked <mutex>            function requires the caller to hold <mutex>
//	//hmn:lockorder <first> <second> declared acquisition order: first before second
//
// A directive written on its own line annotates the line below it; a
// trailing directive annotates its own line. <mutex> is either a sibling
// field name (sync.Mutex/RWMutex) or an external capability token such
// as "session" for state guarded by a lock the struct does not own.
const (
	dirWallclock      = "wallclock"
	dirOrderInvariant = "orderinvariant"
	dirGuardedBy      = "guardedby"
	dirLocked         = "locked"
	dirLockOrder      = "lockorder"
)

// knownDirectives is every name above: a //hmn: comment with any other
// name is a typo or a leftover of a deleted analyzer, and would
// otherwise annotate nothing without anyone noticing.
var knownDirectives = map[string]bool{
	dirWallclock: true, dirOrderInvariant: true, dirGuardedBy: true,
	dirLocked: true, dirLockOrder: true,
}

// directive is one parsed //hmn: comment.
type directive struct {
	name string // "wallclock", "guardedby", ...
	arg  string // "" or the mutex name
	pos  token.Pos
}

// directiveIndex maps a source line to the directives annotating it:
// those written on the line itself plus those on the line above.
type directiveIndex map[int][]directive

// parseDirective extracts the //hmn: payload from one comment, if any.
func parseDirective(c *ast.Comment) (directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//hmn:")
	if !ok {
		return directive{}, false
	}
	name, arg, _ := strings.Cut(strings.TrimSpace(text), " ")
	return directive{name: name, arg: strings.TrimSpace(arg), pos: c.Pos()}, true
}

// reportUnknownDirectives reports every //hmn: comment in files whose
// name is not in knownDirectives.
func reportUnknownDirectives(files []*ast.File, report func(Diagnostic)) {
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && !knownDirectives[d.name] {
					report(Diagnostic{Pos: d.pos, Message: "unknown directive //hmn:" + d.name})
				}
			}
		}
	}
}

// directivesFor builds (and caches) the directive index of file. Files
// must have been parsed with parser.ParseComments. A directive trailing
// code annotates only its own line; one on a line of its own annotates
// the line below as well — never both, or a trailing directive would
// silently leak onto the next declaration.
func (p *Pass) directivesFor(file *ast.File) directiveIndex {
	if idx, ok := p.directives[file]; ok {
		return idx
	}
	codeStart := lineCodeStarts(p.Fset, file)
	idx := make(directiveIndex)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			idx[line] = append(idx[line], d)
			if pos, trailing := codeStart[line]; !trailing || pos >= c.Pos() {
				idx[line+1] = append(idx[line+1], d)
			}
		}
	}
	if p.directives == nil {
		p.directives = make(map[*ast.File]directiveIndex)
	}
	p.directives[file] = idx
	return idx
}

// lineCodeStarts maps each source line to the position of the first
// non-comment syntax on it, so directivesFor can tell a trailing
// directive from one on a line of its own.
func lineCodeStarts(fset *token.FileSet, file *ast.File) map[int]token.Pos {
	starts := make(map[int]token.Pos)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if pos := n.Pos(); pos.IsValid() {
			line := fset.Position(pos).Line
			if cur, ok := starts[line]; !ok || pos < cur {
				starts[line] = pos
			}
		}
		return true
	})
	return starts
}

// annotated reports whether the line holding pos carries the named
// directive (written on the line or immediately above it), returning
// its argument.
func (p *Pass) annotated(file *ast.File, pos token.Pos, name string) (string, bool) {
	idx := p.directivesFor(file)
	for _, d := range idx[p.Fset.Position(pos).Line] {
		if d.name == name {
			return d.arg, true
		}
	}
	return "", false
}

// funcAnnotated reports whether fd carries the named directive — on the
// declaration line, the line above it, or anywhere in its doc comment
// block (the usual home of function-level directives) — and returns the
// directive's argument.
func funcAnnotated(pass *Pass, file *ast.File, fd *ast.FuncDecl, name string) (string, bool) {
	if arg, ok := pass.annotated(file, fd.Pos(), name); ok {
		return arg, true
	}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if d, ok := parseDirective(c); ok && d.name == name {
				return d.arg, true
			}
		}
	}
	return "", false
}

// packageDirectives collects every //hmn:<name> directive in the
// package, wherever it is written — for package-scoped declarations such
// as //hmn:lockorder.
func (p *Pass) packageDirectives(name string) []directive {
	var out []directive
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && d.name == name {
					out = append(out, d)
				}
			}
		}
	}
	return out
}
