package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// This file diffs two JSON documents (a committed baseline against a
// fresh run) for `make bench-compare`, the CI bench-smoke job and the
// paper-tables golden. It knows no block by name: one walk reads every
// field's gate tag (json.go lists the four rules) and compares the two
// documents block by block and row by row.

// ReadJSONDocument decodes one document, as written by
// JSONDocument.Write.
func ReadJSONDocument(r io.Reader) (JSONDocument, error) {
	var doc JSONDocument
	err := json.NewDecoder(r).Decode(&doc)
	return doc, err
}

// CompareReport is the outcome of comparing a fresh run against a
// committed baseline.
type CompareReport struct {
	// Problems are the gating drifts: a different experiment, a missing
	// block or row, a count or digest that moved, or a moment that moved
	// by more than the threshold. Empty means the comparison passed.
	Problems []string
	// Advisory summarizes the advisory fields, one line per block that
	// has any: how many of its rows moved and the largest relative move
	// with its row.
	Advisory []string
}

// OK reports whether the comparison found no gating drift.
func (r CompareReport) OK() bool { return len(r.Problems) == 0 }

// String renders the report for humans: advisory lines first (always),
// then either the problem list or a pass line.
func (r CompareReport) String() string {
	var b strings.Builder
	for _, l := range r.Advisory {
		fmt.Fprintln(&b, l)
	}
	if r.OK() {
		fmt.Fprintln(&b, "bench-compare: deterministic metrics match the baseline")
	} else {
		for _, p := range r.Problems {
			fmt.Fprintf(&b, "DRIFT: %s\n", p)
		}
	}
	return b.String()
}

// relDeltaPct is the relative drift of cur against base in percent, with
// an exact-zero baseline treated as drift only when cur differs.
func relDeltaPct(base, cur float64) float64 {
	if base == cur {
		return 0
	}
	if base == 0 {
		return math.Inf(1)
	}
	return math.Abs(cur-base) / math.Abs(base) * 100
}

// CompareDocs diffs cur against base. If the documents' keys (hosts,
// reps, seed, retry budget, topologies, heuristics) differ they are
// different experiments and nothing else is compared. Otherwise every
// block the baseline carries must be in cur, every row of it must pair
// with a row of cur by its keys (and cur may add none), counts and
// digests must be equal, and moments must agree within thresholdPct
// percent. Advisory fields are summed up per block and never gate.
func CompareDocs(base, cur JSONDocument, thresholdPct float64) CompareReport {
	c := comparer{threshold: thresholdPct}
	c.row("", reflect.ValueOf(base), reflect.ValueOf(cur))
	for _, a := range c.advisory {
		line := fmt.Sprintf("advisory: %s: %d of %d rows moved", a.block, a.moved, a.rows)
		if a.moved > 0 {
			line += ", most " + a.most
		}
		c.rep.Advisory = append(c.rep.Advisory, line)
	}
	return c.rep
}

type comparer struct {
	threshold float64
	rep       CompareReport
	advisory  []*advisory // one per block, in walk order
}

// advisory sums up one block's advisory fields: the rows carrying one,
// the rows where one moved, and the largest relative move.
type advisory struct {
	block       string
	rows, moved int
	most        string
	pct         float64
}

// advisoryFor is the summary of the block that the row at hangs from.
func (c *comparer) advisoryFor(at string) *advisory {
	block, _, _ := strings.Cut(strings.Split(at, "[")[0], ".")
	if i := slices.IndexFunc(c.advisory, func(a *advisory) bool { return a.block == block }); i >= 0 {
		return c.advisory[i]
	}
	c.advisory = append(c.advisory, &advisory{block: block})
	return c.advisory[len(c.advisory)-1]
}

func (c *comparer) problem(format string, args ...interface{}) {
	c.rep.Problems = append(c.rep.Problems, fmt.Sprintf(format, args...))
}

// fieldName is a field's JSON name.
func fieldName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// rowKey joins the values of v's key fields, and their names.
func rowKey(v reflect.Value) (key, names string) {
	var ks, ns []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Tag.Get("gate") == "key" {
			ks = append(ks, fmt.Sprint(v.Field(i).Interface()))
			ns = append(ns, fieldName(f))
		}
	}
	return strings.Join(ks, " / "), strings.Join(ns, " / ")
}

// row compares two structs of the same type, at is where they sit.
func (c *comparer) row(at string, base, cur reflect.Value) {
	if bk, names := rowKey(base); names != "" {
		if ck, _ := rowKey(cur); bk != ck {
			c.problem("document: %s %s -> %s: different experiments, nothing else compared", names, bk, ck)
			return
		}
	}
	var adv *advisory
	moved := false
	for i := 0; i < base.NumField(); i++ {
		f := base.Type().Field(i)
		name, b, v := fieldName(f), base.Field(i), cur.Field(i)
		switch f.Tag.Get("gate") {
		case "key":
		case "count", "digest":
			if !reflect.DeepEqual(b.Interface(), v.Interface()) {
				c.problem("%s%s %v -> %v (counts and digests must not move)", at, name, b.Interface(), v.Interface())
			}
		case "moment":
			if d := relDeltaPct(b.Float(), v.Float()); d > c.threshold {
				c.problem("%s%s %.6g -> %.6g (%.3f%% > %.3f%%)", at, name, b.Float(), v.Float(), d, c.threshold)
			}
		case "advisory":
			if b.Float() == 0 && v.Float() == 0 {
				continue
			}
			if adv == nil {
				adv = c.advisoryFor(at)
				adv.rows++
			}
			if d := relDeltaPct(b.Float(), v.Float()); d > 0 {
				moved = true
				if d > adv.pct {
					adv.pct = d
					adv.most = fmt.Sprintf("%s %.4g -> %.4g (%+.1f%%) at %s", name, b.Float(), v.Float(),
						math.Copysign(d, v.Float()-b.Float()), strings.TrimSuffix(at, "."))
				}
			}
		default:
			c.block(at+name, b, v)
		}
	}
	if moved {
		adv.moved++
	}
}

// block compares a struct, a pointer to one or a slice of rows. A block
// the baseline does not carry (a nil pointer, an empty slice) gates
// nothing.
func (c *comparer) block(at string, base, cur reflect.Value) {
	switch base.Kind() {
	case reflect.Pointer:
		switch {
		case base.IsNil():
		case cur.IsNil():
			c.problem("%s: present in the baseline but missing from the current run", at)
		default:
			c.row(at+".", base.Elem(), cur.Elem())
		}
	case reflect.Struct:
		c.row(at+".", base, cur)
	case reflect.Slice:
		if base.Len() == 0 {
			return
		}
		curBy := make(map[string]reflect.Value, cur.Len())
		for i := 0; i < cur.Len(); i++ {
			k, _ := rowKey(cur.Index(i))
			curBy[k] = cur.Index(i)
		}
		for i := 0; i < base.Len(); i++ {
			k, _ := rowKey(base.Index(i))
			label := fmt.Sprintf("%s[%s]", at, k)
			v, ok := curBy[k]
			if !ok {
				c.problem("%s: present in the baseline but missing from the current run", label)
				continue
			}
			delete(curBy, k)
			c.row(label+".", base.Index(i), v)
		}
		extra := make([]string, 0, len(curBy))
		for k := range curBy {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		for _, k := range extra {
			c.problem("%s[%s]: present in the current run but missing from the baseline", at, k)
		}
	default:
		panic(fmt.Sprintf("exp: %s has no gate tag", at))
	}
}
