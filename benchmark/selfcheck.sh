#!/usr/bin/env bash
# Does the benchmark agree with itself? Two back-to-back sets of RUNS full
# runs (default 10, at least 5) of this checkout, each run on another
# seed, the same seeds in both sets. Per metric x workload it prints the
# median and quartiles of each set, the spread the driver computes
# (distance between the quartiles as a share of the median), and how far
# the second set's median is worse than the first's. It fails if a spread
# exceeds its bound, if the two medians disagree (either way) by more than
# half the bound, or if a metric that is exact for a seed (accept_ratio,
# objective_mean) differs between the sets at all.
#
#   benchmark/selfcheck.sh [RUNS] > benchmark/NOISE.md
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-10}
[ "$runs" -ge 5 ] || { echo "selfcheck: at least 5 runs per set" >&2; exit 2; }

mkdir -p .bench_build
tmp=$(mktemp -d .bench_build/selfcheck.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in A B; do
	for w in $workloads; do
		for seed in $(seq 1 "$runs"); do
			benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
				tee "$tmp/last.txt" | tail -1 >>"$tmp/$set.$w.jsonl"
			grep -m1 '^data dir' "$tmp/last.txt" >"$tmp/env.txt"
		done
	done
done

python3 - "$tmp" "$runs" <<'EOF'
import json, os, statistics, sys
tmp, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
exact = {"accept_ratio", "objective_mean"}
print("# hmnperf noise table\n")
print(f"`benchmark/selfcheck.sh {runs}`: two back-to-back sets of {runs} runs per workload, seeds 1..{runs} in both,")
print(f"`--seconds {bench['run_seconds']}`, nproc {os.cpu_count()}. " + open(f"{tmp}/env.txt").read().strip() + ".\n")
print("spread = (Q3 - Q1) / median of a set, what the driver holds against the bound; drift = how much")
print("worse set B's median is than set A's.\n")
print("| workload | metric | bound | A median [Q1, Q3] | B median [Q1, Q3] | spread A | spread B | drift |")
print("|---|---|---|---|---|---|---|---|")
bad = []
for w in bench["workloads"]:
    sets = {s: [json.loads(l) for l in open(f"{tmp}/{s}.{w['name']}.jsonl")] for s in "AB"}
    for s, rows in sets.items():
        for r in rows:
            if not r["correct"] or r["failed"]:
                bad.append(f"{w['name']} set {s}: a run reported failed operations")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cell, med, spread = {}, {}, {}
        for s, rows in sets.items():
            xs = [r["metrics"][name]["value"] for r in rows]
            q = statistics.quantiles(xs, n=4)
            med[s] = statistics.median(xs)
            spread[s] = (q[2] - q[0]) / med[s]
            cell[s] = f"{med[s]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        drift = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            drift = -drift
        print(f"| {w['name']} | {name} | {bound} | {cell['A']} | {cell['B']} | {spread['A']:.4f} | {spread['B']:.4f} | {drift:+.4f} |")
        where = f"{w['name']}/{name}"
        if max(spread.values()) > bound:
            bad.append(f"{where}: spread {max(spread.values()):.4f} exceeds the bound {bound}")
        if abs(drift) > bound / 2:
            bad.append(f"{where}: the two medians disagree by {drift:+.4f}, more than half the bound {bound}")
        if name in exact and med["A"] != med["B"]:
            bad.append(f"{where}: exact for a seed, yet {med['A']!r} and {med['B']!r}")
print()
if bad:
    print("FAILED:\n")
    for b in bad:
        print(f"- {b}")
    sys.exit(1)
print("All spreads within their bounds, all medians agree within half their bounds, exact metrics identical.")
EOF
