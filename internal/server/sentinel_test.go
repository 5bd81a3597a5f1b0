package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shard"
)

// sentinelStatuses is the status every exported core, cluster and shard
// sentinel answers with, keyed by its package-qualified name.
var sentinelStatuses = map[string]struct {
	err  error
	code int
}{
	"cluster.ErrOverheadExceedsCapacity": {cluster.ErrOverheadExceedsCapacity, http.StatusBadRequest},
	"core.ErrAlreadyFailed":              {core.ErrAlreadyFailed, http.StatusConflict},
	"core.ErrMigrateConflict":            {core.ErrMigrateConflict, http.StatusConflict},
	"core.ErrNoHostFits":                 {core.ErrNoHostFits, http.StatusConflict},
	"core.ErrNoPath":                     {core.ErrNoPath, http.StatusConflict},
	"core.ErrNoPathBandwidth":            {core.ErrNoPathBandwidth, http.StatusConflict},
	"core.ErrNoPathLatency":              {core.ErrNoPathLatency, http.StatusConflict},
	"core.ErrNotActive":                  {core.ErrNotActive, http.StatusNotFound},
	"core.ErrNotFailed":                  {core.ErrNotFailed, http.StatusConflict},
	"core.ErrReplayDiverged":             {core.ErrReplayDiverged, http.StatusInternalServerError},
	"core.ErrSessionClosed":              {core.ErrSessionClosed, http.StatusNotFound},
	"core.ErrUnknownTarget":              {core.ErrUnknownTarget, http.StatusNotFound},
	"shard.ErrBadShard":                  {shard.ErrBadShard, http.StatusNotFound},
	"shard.ErrClosed":                    {shard.ErrClosed, http.StatusServiceUnavailable},
	"shard.ErrGatewayExhausted":          {shard.ErrGatewayExhausted, http.StatusConflict},
	"shard.ErrNoShardFits":               {shard.ErrNoShardFits, http.StatusConflict},
	"shard.ErrUnknownEnv":                {shard.ErrUnknownEnv, http.StatusNotFound},
	"shard.ErrUnknownTenant":             {shard.ErrUnknownTenant, http.StatusNotFound},
}

// sentinelPkgs are the packages whose sentinels reach the handlers, by
// import path.
var sentinelPkgs = map[string]string{
	"repro/internal/cluster": "../cluster",
	"repro/internal/core":    "../core",
	"repro/internal/shard":   "../shard",
}

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// exportedSentinels lists the exported package-level Err* variables of
// the sentinel packages, as "pkg.ErrX".
func exportedSentinels(t *testing.T) []string {
	var out []string
	fset := token.NewFileSet()
	for path, dir := range sentinelPkgs {
		for _, f := range parseDir(t, fset, dir) {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(id.Name, "Err") && id.IsExported() {
							out = append(out, filepath.Base(path)+"."+id.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestSentinelStatusTable holds failureStatus to being the one place a
// sentinel becomes a status: every exported sentinel has a row above,
// failureStatus answers each row's status through a wrapped error, and
// no other function of the package names a sentinel.
func TestSentinelStatusTable(t *testing.T) {
	declared := exportedSentinels(t)
	var tabled []string
	for name := range sentinelStatuses {
		tabled = append(tabled, name)
	}
	sort.Strings(tabled)
	if strings.Join(declared, " ") != strings.Join(tabled, " ") {
		t.Fatalf("exported sentinels\n  %v\nbut the status table has\n  %v\ndecide the new sentinel's status in failureStatus and add its row", declared, tabled)
	}
	for _, name := range tabled {
		row := sentinelStatuses[name]
		if code, _, ok := failureStatus(fmt.Errorf("x: %w", row.err)); ok || code != row.code {
			t.Errorf("failureStatus(%s) = %d, want %d", name, code, row.code)
		}
	}

	fset := token.NewFileSet()
	for _, f := range parseDir(t, fset, ".") {
		local := make(map[string]string) // import name -> "cluster", "core" or "shard"
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if _, ok := sentinelPkgs[path]; !ok {
				continue
			}
			name := filepath.Base(path)
			if imp.Name != nil {
				local[imp.Name.Name] = name
			} else {
				local[name] = name
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "failureStatus" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					if name := local[x.Name] + "." + sel.Sel.Name; sentinelStatuses[name].err != nil {
						t.Errorf("%s: %s named outside failureStatus; route the error through it", fset.Position(sel.Pos()), name)
					}
				}
				return true
			})
		}
	}
}
