// Command hmnlint is the repo's static-analysis gate: three analyzers
// that enforce determinism (seeded randomness, no wall-clock reads,
// no map-order dependent output), lock discipline on //hmn:guardedby
// state and lock-acquisition ordering (//hmn:lockorder); a //hmn:
// directive none of them knows is reported too. See DESIGN.md §11 for
// the invariant table and the annotation escape hatches.
//
// Two ways to run it:
//
//	hmnlint ./...                                     standalone, like staticcheck
//	go vet -vettool=$(go env GOPATH)/bin/hmnlint ./...  as a vet tool (what CI does)
//
// Standalone mode accepts -checks to run a subset:
//
//	hmnlint -checks determinism,lockdiscipline ./internal/core
//
// Exit status: 0 clean, 2 findings, 1 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	// Vet-tool protocol first: cmd/go invokes `hmnlint -V=full` (version
	// fingerprint), `hmnlint -flags` (supported analyzer flags, as JSON)
	// and `hmnlint <unit>.cfg`, and none must hit the flag package.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full":
			lint.PrintVersion(os.Stdout)
			return 0
		case os.Args[1] == "-flags":
			// No per-analyzer flags: every analyzer always runs.
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(os.Args[1], ".cfg"):
			code, err := lint.RunUnit(os.Args[1], lint.Analyzers())
			if err != nil {
				fmt.Fprintln(os.Stderr, "hmnlint:", err)
			}
			return code
		}
	}

	fs := flag.NewFlagSet("hmnlint", flag.ExitOnError)
	checks := fs.String("checks", "", "comma-separated analyzers to run (default all)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hmnlint [-checks a,b] package...\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	_ = fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 1
	}
	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmnlint:", err)
		return 1
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmnlint:", err)
		return 1
	}
	diags, fset, err := lint.RunDir(wd, analyzers, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmnlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
