package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SentinelHTTPAnalyzer keeps the error→HTTP-status mapping of PR 2 from
// drifting. In the HTTP-serving packages (internal/server) it enforces:
//
//  1. exactly one function is annotated //hmn:sentineltable — the
//     single place sentinel errors become statuses;
//  2. every exported Err* sentinel of the imported core, cluster and
//     shard packages is referenced inside that table, so a new
//     sentinel cannot ship without an explicit status decision;
//  3. no other function in the package references those sentinels —
//     handlers route errors through the table instead of inline
//     errors.Is comparisons that silently disagree with it.
var SentinelHTTPAnalyzer = &Analyzer{
	Name: "sentinelhttp",
	Doc:  "require every core/cluster/shard error sentinel to map to an HTTP status in the package's one //hmn:sentineltable",
	Run:  runSentinelHTTP,
}

// sentinelHTTPPkgs are the packages that translate sentinels to HTTP
// statuses and therefore must carry a sentinel table.
var sentinelHTTPPkgs = map[string]bool{
	"repro/internal/server": true,
}

// sentinelSourcePkg reports whether imported package path defines the
// sentinels this analyzer tracks. Fixture packages ending in
// "/sentinels" stand in for them under testdata.
func sentinelSourcePkg(path string) bool {
	switch path {
	case "repro/internal/core", "repro/internal/cluster", "repro/internal/shard":
		return true
	}
	return strings.HasPrefix(path, fixturePrefix) && strings.HasSuffix(path, "/sentinels")
}

func runSentinelHTTP(pass *Pass) (interface{}, error) {
	if !analyzerInScope(pass.Pkg.Path(), "sentinelhttp", func(p string) bool { return sentinelHTTPPkgs[p] }) {
		return nil, nil
	}

	// The sentinels in scope: exported error variables named Err* from
	// the imported sentinel-source packages.
	sentinels := make(map[*types.Var]bool)
	for _, imp := range pass.Pkg.Imports() {
		if !sentinelSourcePkg(imp.Path()) {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if !strings.HasPrefix(name, "Err") {
				continue
			}
			if v, ok := scope.Lookup(name).(*types.Var); ok && isErrorType(v.Type()) {
				sentinels[v] = true
			}
		}
	}
	if len(sentinels) == 0 {
		return nil, nil
	}

	// Locate the annotated table(s).
	var tables []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if sentinelTableAnnotated(pass, file, fd) {
				tables = append(tables, fd)
			}
		}
	}
	switch {
	case len(tables) == 0:
		pass.Reportf(pass.Files[0].Name.Pos(),
			"package maps core/cluster sentinels to HTTP statuses but has no //hmn:sentineltable function")
		return nil, nil
	case len(tables) > 1:
		for _, fd := range tables[1:] {
			pass.Reportf(fd.Pos(),
				"duplicate //hmn:sentineltable: the sentinel→status mapping must live in exactly one table (first is %s)",
				tables[0].Name.Name)
		}
	}
	table := tables[0]

	// Pass over every sentinel use: inside the table it satisfies the
	// coverage requirement, outside it is an inline comparison.
	covered := make(map[*types.Var]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || !sentinels[v] {
				return true
			}
			if table.Pos() <= id.Pos() && id.Pos() <= table.End() {
				covered[v] = true
				return true
			}
			pass.Reportf(id.Pos(),
				"sentinel %s compared outside the //hmn:sentineltable function %s; route the error through the table",
				v.Name(), table.Name.Name)
			return true
		})
	}

	var missing []string
	for v := range sentinels {
		if !covered[v] {
			missing = append(missing, v.Pkg().Name()+"."+v.Name())
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		pass.Reportf(table.Pos(),
			"sentinel %s has no HTTP status in table %s; add an explicit case",
			name, table.Name.Name)
	}
	return nil, nil
}

func sentinelTableAnnotated(pass *Pass, file *ast.File, fd *ast.FuncDecl) bool {
	if _, ok := pass.annotated(file, fd.Pos(), dirSentinelTable); ok {
		return true
	}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if d, ok := parseDirective(c); ok && d.name == dirSentinelTable {
				return true
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
