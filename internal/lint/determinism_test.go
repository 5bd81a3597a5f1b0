package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, lint.DeterminismAnalyzer, "./testdata/src/determinism")
}

// TestDeterminismOutOfScope: outside the deterministic packages the
// analyzer checks nothing and reports every //hmn:wallclock and
// //hmn:orderinvariant, which would waive nothing there.
func TestDeterminismOutOfScope(t *testing.T) {
	analysistest.Run(t, lint.DeterminismAnalyzer, "./testdata/src/unenrolled")
}
