// Package lint is the repo's static-analysis suite: three analyzers
// that enforce its determinism, lock-discipline and lock-order
// invariants (DESIGN.md §11). TestRepoClean is their one runner: it
// applies them to every package of the module under `go test`, and
// `make lint` runs just that test.
//
// The suite is modelled on golang.org/x/tools/go/analysis — each check
// is an *Analyzer with a Run(*Pass) function and the loader feeds it
// parsed, type-checked packages — but is implemented entirely on the
// standard library so the module stays dependency-free: this package
// defines the Analyzer/Pass/Diagnostic surface, and load.go is the
// go/packages-shaped loader (go list -export + the gc importer).
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
	// Name identifies the analyzer in diagnostics. It must be a valid
	// Go identifier.
	Name string
	// Run inspects a package and reports diagnostics via pass.Report.
	// The result value is unused by the suite's analyzers and exists only
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

	// Report delivers one diagnostic. runAnalyzers installs it.
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

// Analyzers is the suite in the order runAnalyzers applies it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LockDisciplineAnalyzer,
		LockOrderAnalyzer,
	}
}

// runAnalyzers applies as to one loaded package and returns the
// findings sorted by position. Diagnostics inside _test.go files are
// dropped: the invariants the suite guards (seeded replay, lock
// discipline, lock order) bind production code; tests are free to read
// the wall clock. Whatever analyzers run, a //hmn: directive no
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
