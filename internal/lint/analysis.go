// Package lint is hmnlint: a static-analysis suite that enforces the
// repo's determinism, lock-discipline and lock-order invariants at
// compile time (DESIGN.md §11).
//
// The suite is modelled on golang.org/x/tools/go/analysis — each check
// is an *Analyzer with a Run(*Pass) function and the drivers feed it
// parsed, type-checked packages — but is implemented entirely on the
// standard library so the module stays dependency-free: this package
// defines the Analyzer/Pass/Diagnostic surface, load.go is the
// go/packages-shaped loader (go list -export + the gc importer), and
// unitchecker.go speaks cmd/go's vet.cfg protocol so the same binary
// runs under `go vet -vettool=`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis pass: a named invariant and the
// function that checks a single package for violations of it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description printed by `hmnlint help`.
	Doc string
	// Run inspects a package and reports diagnostics via pass.Report.
	// The result value is unused by hmnlint's analyzers and exists only
	// to keep the signature compatible with go/analysis.
	Run func(pass *Pass) (interface{}, error)
}

// Pass holds one type-checked package being analyzed plus the Report
// sink. It mirrors the subset of go/analysis.Pass the suite needs.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The drivers install it.
	Report func(Diagnostic)

	// directives caches the parsed //hmn: directives per file.
	directives map[*ast.File]directiveIndex
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers is the hmnlint suite in the order the drivers run it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LockDisciplineAnalyzer,
		LockOrderAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer selection ("" means all).
func ByName(sel string) ([]*Analyzer, error) {
	all := Analyzers()
	if sel == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(sel, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames(as []*Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// runAnalyzers applies as to one loaded package and returns the
// findings sorted by position. Diagnostics inside _test.go files are
// dropped: the invariants the suite guards (seeded replay, lock
// discipline, lock order) bind production code; tests are free to read
// the wall clock. Whatever the analyzer selection, a //hmn: directive no
// analyzer knows is reported once per package.
func runAnalyzers(pkg *Package, as []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	reportAs := func(name string) func(Diagnostic) {
		return func(d Diagnostic) {
			file := pkg.Fset.Position(d.Pos).Filename
			if strings.HasSuffix(file, "_test.go") {
				return
			}
			d.Message = fmt.Sprintf("%s [%s]", d.Message, name)
			diags = append(diags, d)
		}
	}
	reportUnknownDirectives(pkg.Files, reportAs("directives"))
	for _, a := range as {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    reportAs(a.Name),
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort keeps this dependency-free and the slices are tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0; j-- {
			pi, pj := fset.Position(diags[j].Pos), fset.Position(diags[j-1].Pos)
			if pj.Filename < pi.Filename || (pj.Filename == pi.Filename && pj.Offset <= pi.Offset) {
				break
			}
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

// typeOf returns the type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeFunc resolves the called function/method object, or nil when
// the call is through a function value, a conversion or a builtin.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
