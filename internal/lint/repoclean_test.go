package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRepoClean runs every analyzer over the whole module and requires
// that it report nothing. It is the analyzers' only runner: `go test
// ./...` runs it, and `make lint` runs it alone. A new wall-clock read,
// global rand call, unguarded access, out-of-order lock acquisition or
// directive that waives nothing fails it, one file:line:col: message
// [analyzer] line per finding.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, fset, err := lint.RunDir(wd, lint.Analyzers(), "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s", fset.Position(d.Pos), d.Message)
	}
}

// TestNoGoStatementOutsideExp keeps what the daemon's layers promise:
// an operation runs on its caller, and nothing ticks in the background.
// No non-test file under internal/ starts a goroutine, except
// internal/exp, whose offline experiments fan out over a worker pool.
// The binaries under cmd/ own their listeners and signal handling.
func TestNoGoStatementOutsideExp(t *testing.T) {
	root := filepath.Join("..", "..", "internal")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || path == filepath.Join(root, "exp")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: a go statement outside internal/exp", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
