#!/usr/bin/env bash
# bench_pairs.sh — does the working tree beat REV on one hmnperf workload?
#
# Builds hmnperf for the working tree and for REV through bench_phase.sh
# and refuses to run unless the reference kernel sits in the same phase in
# both builds (DESIGN.md §12, "A trap for the next measurer"). Then runs
# PAIRS pairs, one run of each build per pair, alternating which build
# runs first, every run pinned to CPU 1 when taskset is installed and
# with its data directory on /dev/shm as benchmark/run.sh puts it.
#
# For every end-to-end metric BENCHMARK.json names it prints each side's
# median and quartiles, the working tree's wins out of PAIRS (ties count
# for neither side), the change of the medians against REV's, and a
# verdict: "gain" or "loss" when the medians differ by more than REV's
# own interquartile range, "within IQR" otherwise — a claimed gain needs
# "gain" and nine wins in ten. Each run's digest and output check are
# listed too: the two builds of one decision procedure print the same
# digest at a seed. Usage, from anywhere:
#
#   scripts/bench_pairs.sh <rev> <workload> [pairs] [seed] [seconds]
#   make bench-pairs REV=<rev> WORKLOAD=torus_route PAIRS=10 SEED=1
#
# PAIRS defaults to 10, SEED to 1 and SECONDS to 30, the benchmark's own
# run length. A pair of 30 s runs takes about 1.5 minutes. Every run's
# output is kept under .bench_build/pairs-<pid>/ (base-N.txt, work-N.txt).
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:?usage: scripts/bench_pairs.sh <rev> <workload> [pairs] [seed] [seconds]}
workload=${2:?usage: scripts/bench_pairs.sh <rev> <workload> [pairs] [seed] [seconds]}
pairs=${3:-10}
seed=${4:-1}
seconds=${5:-30}

out=$PWD/.bench_build/pairs-$$
mkdir -p "$out"
if ! ./scripts/bench_phase.sh "$rev" "$out"; then
	echo "bench_pairs: the two builds are not in the same phase; no runs made" >&2
	exit 1
fi

data=$out/data
if [ "$(stat -f -c %T /dev/shm 2>/dev/null)" = tmpfs ] && [ -w /dev/shm ] &&
	[ "$(df --output=avail -BG /dev/shm | tail -1 | tr -dc 0-9)" -ge 2 ]; then
	data=/dev/shm/hmnperf-pairs-$$
fi
mkdir -p "$data"
trap 'rm -rf "$data"' EXIT
pin=()
if command -v taskset >/dev/null; then
	pin=(taskset -c 1)
fi

# run SIDE N runs one build once and keeps its output as SIDE-N.txt.
run() {
	"${pin[@]}" "$out/$1" -workload "$workload" -seed "$seed" -seconds "$seconds" \
		-data-dir "$data" >"$out/$1-$2.txt" 2>&1 ||
		echo "bench_pairs: $1 run $2 exited non-zero (see $out/$1-$2.txt)" >&2
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$i"
		run work "$i"
	else
		run work "$i"
		run base "$i"
	fi
	echo "pair $i of $pairs done" >&2
done

# metric SIDE N NAME prints one metric of one run, from its last line.
metric() {
	tail -n 1 "$out/$1-$2.txt" | grep -o "\"$3\":{\"value\":[^,}]*" | sed 's/.*://'
}
# describe prints "median q1 q3" of the numbers on stdin (linear
# interpolation between the closest ranks).
describe() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1 < NR ? i + 1 : NR] - v[i]) }
	END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "$workload, seed $seed, $seconds s, $pairs pairs; base = $rev, work = working tree"
for ((i = 1; i <= pairs; i++)); do
	for side in base work; do
		f=$out/$side-$i.txt
		printf '  %s %2d: digest %s, %s\n' "$side" "$i" \
			"$(grep -o 'digest [0-9a-f]*' "$f" | head -n 1 | cut -d' ' -f2)" \
			"$(tail -n 1 "$f" | grep -o '"correct":[a-z]*,"attempted":[0-9]*,"failed":[0-9]*' || echo 'no result line')"
	done
done
printf '%-15s %-6s %26s %26s %6s %9s  %s\n' metric better "base median [q1, q3]" "work median [q1, q3]" wins change verdict
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json |
	while read -r name better; do
		wins=0
		for ((i = 1; i <= pairs; i++)); do
			b=$(metric base "$i" "$name")
			w=$(metric work "$i" "$name")
			if [ -n "$b" ] && [ -n "$w" ] && awk -v b="$b" -v w="$w" -v hi="$better" \
				'BEGIN { exit !(hi == "higher" ? w > b : w < b) }'; then
				wins=$((wins + 1))
			fi
		done
		read -r bm bq1 bq3 < <(for ((i = 1; i <= pairs; i++)); do metric base "$i" "$name"; done | describe)
		read -r wm wq1 wq3 < <(for ((i = 1; i <= pairs; i++)); do metric work "$i" "$name"; done | describe)
		awk -v n="$name" -v hi="$better" -v bm="$bm" -v bq1="$bq1" -v bq3="$bq3" \
			-v wm="$wm" -v wq1="$wq1" -v wq3="$wq3" -v wins="$wins" -v pairs="$pairs" 'BEGIN {
			gap = wm - bm; if (hi == "higher") gap = -gap
			verdict = "within IQR"
			if (-gap > bq3 - bq1) verdict = "gain"
			if (gap > bq3 - bq1) verdict = "loss"
			change = bm != 0 ? sprintf("%+.1f%%", 100 * (wm - bm) / bm) : "-"
			printf "%-15s %-6s %26s %26s %6s %9s  %s\n", n, hi,
				sprintf("%.4g [%.4g, %.4g]", bm, bq1, bq3), sprintf("%.4g [%.4g, %.4g]", wm, wq1, wq3),
				wins "/" pairs, change, verdict }'
	done
