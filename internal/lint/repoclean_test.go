package lint_test

import (
	"os"
	"testing"

	"repro/internal/lint"
)

// TestRepoClean runs every analyzer over the whole module and requires
// that it report nothing. A new wall-clock read, global rand call,
// unguarded access or out-of-order lock acquisition fails this test
// before it ever reaches CI's vettool step.
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
