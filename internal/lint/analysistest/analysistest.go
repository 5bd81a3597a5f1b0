// Package analysistest runs the repo's analyzers against fixture packages
// under internal/lint/testdata/src and checks their diagnostics against
// // want expectations written in the fixture sources — the stdlib-only
// counterpart of golang.org/x/tools/go/analysis/analysistest.
//
// An expectation trails the line it concerns:
//
//	x := rand.Intn(3) // want `rand\.Intn draws from the global source`
//
// Each payload is a regular expression, written as a backquoted or
// double-quoted Go string; several may follow one want. The harness
// fails the test when a diagnostic matches no expectation on its line,
// and when an expectation matches no diagnostic.
package analysistest

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run loads the packages matching patterns (relative to the test's
// working directory), applies the analyzer, and compares diagnostics
// with the fixtures' // want expectations.
func Run(t *testing.T, a *lint.Analyzer, patterns ...string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadPackages(wd, patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v", patterns)
	}
	diags, err := lint.RunPackages(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Expectations, keyed file:line, in source order.
	wants := make(map[string][]*expectation)
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			fileWants, err := parseWants(name)
			if err != nil {
				t.Fatal(err)
			}
			for line, ws := range fileWants {
				wants[fmt.Sprintf("%s:%d", name, line)] = ws
			}
		}
	}

	fset := pkgs[0].Fset // shared by every loaded package
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if pos.Filename == "" {
			continue
		}
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.hits++
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w.hits == 0 {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

type expectation struct {
	re   *regexp.Regexp
	hits int
}

// parseWants scans one fixture file for // want comments.
func parseWants(filename string) (map[int][]*expectation, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	wants := make(map[int][]*expectation)
	for i, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		patterns, err := parsePayload(rest)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad // want: %v", filename, i+1, err)
		}
		for _, p := range patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad // want regexp %q: %v", filename, i+1, p, err)
			}
			wants[i+1] = append(wants[i+1], &expectation{re: re})
		}
	}
	return wants, nil
}

// parsePayload splits `"a" `+"`b`"+` ...` into its string payloads.
func parsePayload(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted pattern")
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			// Find the closing quote of the Go string literal.
			end := -1
			for j := 1; j < len(s); j++ {
				if s[j] == '\\' {
					j++
					continue
				}
				if s[j] == '"' {
					end = j
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted pattern")
			}
			dec, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, dec)
			s = s[end+1:]
		default:
			return nil, fmt.Errorf("pattern must be quoted or backquoted, at %q", s)
		}
	}
}
