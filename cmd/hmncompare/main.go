// Command hmncompare diffs a fresh hmnbench JSON document against a
// committed baseline (a BENCH_*.json file or the paper-tables golden)
// with one rule read from each field's gate tag: counts and digests
// must be equal, moments must agree within the threshold, and advisory
// fields — wall-clock times — never gate: one line per block says how
// many rows moved and names the largest move. Drifts print last, and
// any drift exits non-zero.
//
// Usage:
//
//	hmncompare [-threshold 0.5] baseline.json current.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	threshold := flag.Float64("threshold", 0.5, "maximum relative drift of moments, in percent")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hmncompare [-threshold PCT] baseline.json current.json")
		os.Exit(2)
	}
	base, err := readDoc(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmncompare: %v\n", err)
		os.Exit(2)
	}
	cur, err := readDoc(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmncompare: %v\n", err)
		os.Exit(2)
	}
	rep := exp.CompareDocs(base, cur, *threshold)
	fmt.Print(rep)
	if !rep.OK() {
		os.Exit(1)
	}
}

func readDoc(path string) (exp.JSONDocument, error) {
	f, err := os.Open(path)
	if err != nil {
		return exp.JSONDocument{}, err
	}
	defer f.Close()
	doc, err := exp.ReadJSONDocument(f)
	if err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
