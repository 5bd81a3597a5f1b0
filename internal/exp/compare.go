package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file diffs two sweep JSON documents (a committed BENCH_*.json
// baseline against a fresh run) for `make bench-compare` and the CI
// bench-smoke job. Deterministic outputs — run/valid counts and the
// objective statistics, which depend only on the seed — must agree
// within a tight threshold; wall-clock mapping times are reported but
// never gate, because they measure the machine as much as the code.

// ReadJSONDocument decodes one sweep document, as written by
// Results.WriteJSON.
func ReadJSONDocument(r io.Reader) (JSONDocument, error) {
	var doc JSONDocument
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return doc, err
	}
	return doc, nil
}

// CompareReport is the outcome of comparing a fresh sweep against a
// committed baseline.
type CompareReport struct {
	// Problems are the gating drifts: configuration mismatches, missing
	// or extra series, and deterministic metrics that moved by more than
	// the threshold. Empty means the comparison passed.
	Problems []string
	// Timing lines one advisory mapping-time delta per series.
	Timing []string
}

// OK reports whether the comparison found no gating drift.
func (r CompareReport) OK() bool { return len(r.Problems) == 0 }

// String renders the report for humans: timing deltas first (always),
// then either the problem list or a pass line.
func (r CompareReport) String() string {
	var b strings.Builder
	for _, l := range r.Timing {
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

// CompareDocs diffs cur against base. Run/valid counts must be equal and
// the objective mean/stddev of every series must agree within
// thresholdPct percent; the sweep configuration (hosts, reps, seed, max
// tries, topology and heuristic sets) must match exactly, because two
// different sweeps are not comparable at all.
func CompareDocs(base, cur JSONDocument, thresholdPct float64) CompareReport {
	var rep CompareReport
	problem := func(format string, args ...interface{}) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	if base.Hosts != cur.Hosts || base.Reps != cur.Reps || base.Seed != cur.Seed || base.MaxTries != cur.MaxTries {
		problem("sweep configuration differs: baseline hosts=%d reps=%d seed=%d maxtries=%d, current hosts=%d reps=%d seed=%d maxtries=%d",
			base.Hosts, base.Reps, base.Seed, base.MaxTries, cur.Hosts, cur.Reps, cur.Seed, cur.MaxTries)
		return rep
	}
	if strings.Join(base.Topologies, ",") != strings.Join(cur.Topologies, ",") ||
		strings.Join(base.Heuristics, ",") != strings.Join(cur.Heuristics, ",") {
		problem("sweep matrix differs: baseline %v/%v, current %v/%v",
			base.Topologies, base.Heuristics, cur.Topologies, cur.Heuristics)
		return rep
	}

	key := func(s JSONSeries) string {
		if s.Scenario == "" {
			return s.Topology + " / " + s.Heuristic
		}
		return s.Scenario + " / " + s.Topology + " / " + s.Heuristic
	}
	curBy := make(map[string]JSONSeries, len(cur.Series))
	for _, s := range cur.Series {
		curBy[key(s)] = s
	}
	seen := make(map[string]bool, len(base.Series))
	for _, bs := range base.Series {
		k := key(bs)
		seen[k] = true
		cs, ok := curBy[k]
		if !ok {
			problem("series %s present in the baseline but missing from the current run", k)
			continue
		}
		if bs.Runs != cs.Runs || bs.Valid != cs.Valid {
			problem("series %s: runs/valid %d/%d -> %d/%d (deterministic counts must not move)",
				k, bs.Runs, bs.Valid, cs.Runs, cs.Valid)
		}
		if d := relDeltaPct(bs.ObjectiveMean, cs.ObjectiveMean); d > thresholdPct {
			problem("series %s: objective mean %.6g -> %.6g (%.3f%% > %.3f%%)",
				k, bs.ObjectiveMean, cs.ObjectiveMean, d, thresholdPct)
		}
		if d := relDeltaPct(bs.ObjectiveStd, cs.ObjectiveStd); d > thresholdPct {
			problem("series %s: objective stddev %.6g -> %.6g (%.3f%% > %.3f%%)",
				k, bs.ObjectiveStd, cs.ObjectiveStd, d, thresholdPct)
		}
		if bs.MapSecondsMean > 0 {
			rep.Timing = append(rep.Timing, fmt.Sprintf(
				"timing (advisory): %s map_seconds mean %.4fs -> %.4fs (%+.1f%%), p99 %.4fs -> %.4fs",
				k, bs.MapSecondsMean, cs.MapSecondsMean,
				(cs.MapSecondsMean-bs.MapSecondsMean)/bs.MapSecondsMean*100,
				bs.MapSecondsP99, cs.MapSecondsP99))
		}
		if bs.NetworkingSecondsMean > 0 {
			rep.Timing = append(rep.Timing, fmt.Sprintf(
				"timing (advisory): %s stage seconds mean hosting %.4fs -> %.4fs, migration %.4fs -> %.4fs, networking %.4fs -> %.4fs, networking share %.3f -> %.3f",
				k, bs.HostingSecondsMean, cs.HostingSecondsMean, bs.MigrationSecondsMean, cs.MigrationSecondsMean,
				bs.NetworkingSecondsMean, cs.NetworkingSecondsMean, bs.NetworkingShare, cs.NetworkingShare))
		}
	}
	var extra []string
	for k := range curBy {
		if !seen[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		problem("series %s present in the current run but missing from the baseline", k)
	}
	compareFederation(base.Federation, cur.Federation, &rep)
	compareChurn(base.Churn, cur.Churn, thresholdPct, &rep)
	compareGap(base.Gap, cur.Gap, thresholdPct, &rep)
	return rep
}

// compareGap gates the gap block: the instance and optimum counts must
// not move and every ratio must agree within thresholdPct. A baseline
// without the block gates nothing.
func compareGap(base, cur *GapJSON, thresholdPct float64, rep *CompareReport) {
	if base == nil {
		return
	}
	problem := func(format string, args ...interface{}) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	if cur == nil {
		problem("gap block present in the baseline but missing from the current run")
		return
	}
	if base.Instances != cur.Instances {
		problem("gap: %d solved instances -> %d (deterministic counts must not move)", base.Instances, cur.Instances)
	}
	for _, h := range []struct {
		name      string
		base, cur GapRatios
	}{{"HMN", base.HMN, cur.HMN}, {"HMN+", base.HMNPlus, cur.HMNPlus}, {"GA", base.GA, cur.GA}} {
		if h.base.Optimal != h.cur.Optimal {
			problem("gap: %s optimal on %d -> %d (deterministic counts must not move)", h.name, h.base.Optimal, h.cur.Optimal)
		}
		for _, f := range []struct {
			name      string
			base, cur float64
		}{
			{"ratio mean", h.base.RatioMean, h.cur.RatioMean},
			{"ratio median", h.base.RatioMedian, h.cur.RatioMedian},
			{"ratio max", h.base.RatioMax, h.cur.RatioMax},
		} {
			if d := relDeltaPct(f.base, f.cur); d > thresholdPct {
				problem("gap: %s %s %.6g -> %.6g (%.3f%% > %.3f%%)", h.name, f.name, f.base, f.cur, d, thresholdPct)
			}
		}
	}
}

// compareChurn gates the churn block: the counts must not move and the
// objective statistics must agree within thresholdPct — the rounds run
// between the operations, so all of them are pure functions of the seed
// — while the operation latencies are advisory timing. A baseline
// without the block gates nothing.
func compareChurn(base, cur *ChurnResult, thresholdPct float64, rep *CompareReport) {
	if base == nil {
		return
	}
	problem := func(format string, args ...interface{}) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	if cur == nil {
		problem("churn block present in the baseline but missing from the current run")
		return
	}
	if base.Ops != cur.Ops || base.Failed != cur.Failed || base.Moves != cur.Moves ||
		base.Rounds != cur.Rounds || base.Aborted != cur.Aborted {
		problem("churn: ops/failed/moves/rounds/aborted %d/%d/%d/%d/%d -> %d/%d/%d/%d/%d (deterministic counts must not move)",
			base.Ops, base.Failed, base.Moves, base.Rounds, base.Aborted,
			cur.Ops, cur.Failed, cur.Moves, cur.Rounds, cur.Aborted)
	}
	for _, f := range []struct {
		name      string
		base, cur float64
	}{
		{"objective mean, bare", base.ObjectiveMeanBase, cur.ObjectiveMeanBase},
		{"objective mean, rebalanced", base.ObjectiveMeanReb, cur.ObjectiveMeanReb},
		{"objective final, bare", base.ObjectiveFinalBase, cur.ObjectiveFinalBase},
		{"objective final, rebalanced", base.ObjectiveFinalReb, cur.ObjectiveFinalReb},
		{"improvement per move", base.ImprovementPerMove, cur.ImprovementPerMove},
	} {
		if d := relDeltaPct(f.base, f.cur); d > thresholdPct {
			problem("churn: %s %.6g -> %.6g (%.3f%% > %.3f%%)", f.name, f.base, f.cur, d, thresholdPct)
		}
	}
	if base.OpP99Reb > 0 {
		rep.Timing = append(rep.Timing, fmt.Sprintf(
			"timing (advisory): churn op p50 bare %.4fs -> %.4fs, rebalanced %.4fs -> %.4fs; p99 rebalanced %.4fs -> %.4fs",
			base.OpP50Base, cur.OpP50Base, base.OpP50Reb, cur.OpP50Reb, base.OpP99Reb, cur.OpP99Reb))
	}
}

// compareFederation gates the federation block's deterministic fields —
// shard counts, admission/split/fallback tallies and the placement
// digest, all pure functions of the seed — and reports throughput as
// advisory timing, like every other wall-clock number. A baseline
// without the block gates nothing, so committed BENCH_*.json files
// predating the federation bench stay valid.
func compareFederation(base, cur *FederationResult, rep *CompareReport) {
	if base == nil {
		return
	}
	problem := func(format string, args ...interface{}) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	if cur == nil {
		problem("federation block present in the baseline but missing from the current run")
		return
	}
	if len(base.Runs) != len(cur.Runs) {
		problem("federation: %d runs in the baseline, %d in the current run", len(base.Runs), len(cur.Runs))
		return
	}
	for i, bs := range base.Runs {
		cs := cur.Runs[i]
		if bs.Shards != cs.Shards || bs.Hosts != cs.Hosts || bs.Ops != cs.Ops {
			problem("federation run %d: shape %d shards/%d hosts/%d ops -> %d/%d/%d",
				i, bs.Shards, bs.Hosts, bs.Ops, cs.Shards, cs.Hosts, cs.Ops)
			continue
		}
		if bs.Admitted != cs.Admitted || bs.Failed != cs.Failed ||
			bs.Splits != cs.Splits || bs.Fallbacks != cs.Fallbacks {
			problem("federation run %d (%d shards): admitted/failed/splits/fallbacks %d/%d/%d/%d -> %d/%d/%d/%d (deterministic counts must not move)",
				i, bs.Shards, bs.Admitted, bs.Failed, bs.Splits, bs.Fallbacks,
				cs.Admitted, cs.Failed, cs.Splits, cs.Fallbacks)
		}
		if bs.PlacementDigest != cs.PlacementDigest {
			problem("federation run %d (%d shards): placement digest %s -> %s (placement must be byte-identical at a fixed seed)",
				i, bs.Shards, bs.PlacementDigest, cs.PlacementDigest)
		}
		if bs.AdmitsPerSec > 0 {
			rep.Timing = append(rep.Timing, fmt.Sprintf(
				"timing (advisory): federation %d shards admits/s %.1f -> %.1f (%+.1f%%)",
				bs.Shards, bs.AdmitsPerSec, cs.AdmitsPerSec,
				(cs.AdmitsPerSec-bs.AdmitsPerSec)/bs.AdmitsPerSec*100))
		}
	}
}
