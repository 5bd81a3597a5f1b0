package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repo's seeded-replay guarantee
// (PAPER.md §V: identical seeds must reproduce identical mapping runs)
// inside the deterministic packages. It flags three bug classes:
//
//  1. calls to math/rand's package-level functions, which draw from the
//     shared global source — randomness must flow from an injected,
//     seeded *rand.Rand;
//  2. wall-clock reads (time.Now, time.Since) — only timing metrics may
//     read the clock, and such lines must carry //hmn:wallclock;
//  3. range over a map whose body does something order-sensitive
//     (appends to an outer slice, sends on a channel, or writes output):
//     Go randomizes map iteration, so the result differs run to run.
//     Sorting the collected keys first — and ranging over the sorted
//     slice — avoids the report; a loop whose effect is genuinely
//     order-free carries //hmn:orderinvariant.
//
// Outside those packages it reports the two directives themselves:
// there they waive nothing.
//
// In the mapping hot path (internal/core) it additionally flags
// stats.PopStdDev calls inside loops or closures: the ledger maintains
// the Eq. (10) objective incrementally (Ledger.ObjectiveStdDev,
// Ledger.DeltaStdDev, both O(1)), so an O(hosts) recompute per
// migration candidate is a quadratic regression
// waiting to happen. There is no escape: the one deliberate exact
// recompute left is the test-side reference of the migration tests,
// which computes it in a function of its own.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// deterministicPkgs are the packages whose output must be a pure
// function of their inputs and seeds (ISSUE 4; the mapping pipeline and
// everything the chaos harness replays byte-for-byte).
var deterministicPkgs = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/graph":    true,
	"repro/internal/workload": true,
	"repro/internal/topology": true,
	"repro/internal/baseline": true,
	"repro/internal/ga":       true,
	"repro/internal/exp":      true,
	"repro/internal/sim":      true,
	"repro/internal/shard":    true,
}

// fixturePrefix marks this suite's own analysistest packages: each
// analyzer treats testdata packages named after it as in scope, so the
// fixtures exercise the checks without enrolling real packages.
const fixturePrefix = "repro/internal/lint/testdata/src/"

func analyzerInScope(pkgPath, analyzerName string, enrolled func(string) bool) bool {
	if strings.HasPrefix(pkgPath, fixturePrefix+analyzerName) {
		return true
	}
	if strings.HasPrefix(pkgPath, fixturePrefix) {
		return false
	}
	return enrolled(pkgPath)
}

// globalRandFuncs are math/rand's package-level functions backed by the
// process-global source. Constructors (New, NewSource, NewZipf) are
// exempt: they are exactly how seeded generators are built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// exactObjectivePkgs are the packages with access to the ledger's O(1)
// incremental objective, where a repeated exact recompute is a perf bug
// rather than a choice.
var exactObjectivePkgs = map[string]bool{
	"repro/internal/core": true,
}

func runDeterminism(pass *Pass) (interface{}, error) {
	if !analyzerInScope(pass.Pkg.Path(), "determinism", func(p string) bool { return deterministicPkgs[p] }) {
		reportOutOfScope(pass)
		return nil, nil
	}
	hotPath := analyzerInScope(pass.Pkg.Path(), "determinism", func(p string) bool { return exactObjectivePkgs[p] })
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, file, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
		if hotPath {
			checkExactRecompute(pass, file)
		}
	}
	return nil, nil
}

// reportOutOfScope reports every //hmn:wallclock and //hmn:orderinvariant
// in a package outside deterministicPkgs. Nothing is checked there, so
// such a directive waives nothing, yet `grep -rn hmn:` would list it as
// an exception.
func reportOutOfScope(pass *Pass) {
	for _, name := range []string{dirWallclock, dirOrderInvariant} {
		for _, d := range pass.packageDirectives(name) {
			pass.Reportf(d.pos,
				"//hmn:%s waives nothing: %s is not a deterministic package; delete the directive",
				name, pass.Pkg.Path())
		}
	}
}

// checkExactRecompute flags stats.PopStdDev calls that sit inside a
// loop or a closure (migration evaluates candidates through closures
// called per attempt): each such call recomputes the
// Eq. (10) objective in O(hosts) where Ledger.ObjectiveStdDev and
// Ledger.DeltaStdDev are O(1). No directive admits one.
func checkExactRecompute(pass *Pass, file *ast.File) {
	var spans [][2]token.Pos
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			spans = append(spans, [2]token.Pos{n.Pos(), n.End()})
		}
		return true
	})
	inSpan := func(pos token.Pos) bool {
		for _, s := range spans {
			if s[0] <= pos && pos <= s[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/stats" || fn.Name() != "PopStdDev" {
			return true
		}
		if !inSpan(call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(),
			"stats.PopStdDev recomputes the Eq. (10) objective in O(hosts) inside a loop or closure; "+
				"use Ledger.ObjectiveStdDev/DeltaStdDev")
		return true
	})
}

func checkDeterministicCall(pass *Pass, file *ast.File, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods (rng.Intn, rng.Shuffle) are fine: the receiver carries the
	// seed. Only package-level functions reach the global source.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the global source; inject a seeded *rand.Rand instead",
				fn.Name())
		}
	case "time":
		if fn.Name() != "Now" && fn.Name() != "Since" {
			return
		}
		if _, ok := pass.annotated(file, call.Pos(), dirWallclock); ok {
			return
		}
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock in a deterministic package; "+
				"inject the timestamp, or annotate a timing metric with //hmn:wallclock",
			fn.Name())
	}
}

// checkMapRange flags order-sensitive map iteration. The canonical
// clean shape — collect the keys, sort, range over the sorted slice —
// is recognized: an append whose slice later flows into a sorting call
// is not order-sensitive.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := typeOf(pass.TypesInfo, rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if _, ok := pass.annotated(file, rng.Pos(), dirOrderInvariant); ok {
		return
	}
	if what := orderSensitiveEffect(pass, file, rng); what != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized but the body %s; "+
				"sort the keys and range over the slice, or annotate //hmn:orderinvariant",
			what)
	}
}

// orderSensitiveEffect scans the range body for effects whose outcome
// depends on iteration order, returning a description or "".
func orderSensitiveEffect(pass *Pass, file *ast.File, rng *ast.RangeStmt) string {
	var what string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			what = "sends on a channel"
			return false
		case *ast.CallExpr:
			if w := orderSensitiveCall(pass, file, rng, n); w != "" {
				what = w
				return false
			}
		}
		return true
	})
	return what
}

func orderSensitiveCall(pass *Pass, file *ast.File, rng *ast.RangeStmt, call *ast.CallExpr) string {
	const appendMsg = "appends to a slice declared outside the loop (unsorted)"
	// append(outer, ...) accumulates in iteration order — unless the
	// slice is handed to a sort afterwards.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				obj := pass.TypesInfo.Uses[base]
				if obj != nil && declaredOutside(obj, rng) && !sortedAfter(pass, file, obj, rng.End()) {
					return appendMsg
				}
			} else {
				// append to a field or indexed element: conservatively
				// outer state with no sort tracking.
				return appendMsg
			}
		}
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.Contains(fn.Name(), "rint") {
		// Print, Printf, Println, Fprint* — but not Sprint*, whose
		// result may feed an order-free consumer; Errorf is fine.
		if !strings.HasPrefix(fn.Name(), "S") {
			return "writes output with fmt." + fn.Name()
		}
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "writes output with " + fn.Name()
		}
	}
	return ""
}

// declaredOutside reports whether obj's declaration lies outside rng.
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedAfter reports whether obj is passed to a sorting call after
// pos: a function from package sort or slices, or any function whose
// name mentions sort (the sortByAdmission-style helper convention).
func sortedAfter(pass *Pass, file *ast.File, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		if !sortingCallee(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func sortingCallee(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil {
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			return true
		}
	}
	return strings.Contains(strings.ToLower(fn.Name()), "sort")
}
