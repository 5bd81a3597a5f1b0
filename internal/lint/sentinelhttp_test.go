package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestSentinelHTTP(t *testing.T) {
	analysistest.Run(t, lint.SentinelHTTPAnalyzer,
		"./testdata/src/sentinelhttp/sentinels",
		"./testdata/src/sentinelhttp/flagged",
		"./testdata/src/sentinelhttp/clean",
		"./testdata/src/sentinelhttp/notable",
		"./testdata/src/sentinelhttp/fed/sentinels",
		"./testdata/src/sentinelhttp/twosources",
	)
}
