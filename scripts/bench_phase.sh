#!/usr/bin/env bash
# bench_phase.sh — is hmnperf's reference kernel in the same phase in
# the working tree and in REV?
#
# hmnperf reports reference time: as measured × 80 µs ÷ the median of a
# heap-based shortest path on container/heap (benchmark/KERNEL.md). That
# kernel runs up to 30 % faster or slower when its code, or the heap
# code it calls, sits 32 bytes further along a 64-byte line, and then
# every reference-time metric moves by as much with no product change
# (DESIGN.md §12, "A trap for the next measurer"). This builds hmnperf
# for the working tree and for REV, prints the kernel's symbols with
# their addresses mod 64 side by side, and exits 1 if any differs — run
# it before believing a reference-time delta between the two.
#
# REV is exported with git archive into a temporary directory (no
# worktree metadata is left behind). Usage, from anywhere:
#
#   scripts/bench_phase.sh <rev>     (or: make bench-phase REV=<rev>)
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:?usage: scripts/bench_phase.sh <rev>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"

# Built the way benchmark/run.sh builds it.
export GOTOOLCHAIN=local
go build -o "$tmp/work" ./benchmark/hmnperf
(cd "$tmp/rev" && go build -o "$tmp/base" ./benchmark/hmnperf)

# kernel BIN prints "symbol address" for the kernel and the heap it uses.
kernel() {
	go tool nm "$1" | awk '$3 ~ /^(main\.refKernel|main\.\(\*refHeap\)\..*|container\/heap\..*)$/ { print $3, $1 }' | sort
}
kernel "$tmp/work" >"$tmp/work.sym"
kernel "$tmp/base" >"$tmp/base.sym"

printf '%-28s %10s %5s   %10s %5s\n' symbol "working" mod64 "$rev" mod64
status=0
while read -r sym addr; do
	base=$(awk -v s="$sym" '$1 == s { print $2 }' "$tmp/base.sym")
	w=$((16#$addr % 64))
	if [ -z "$base" ]; then
		printf '%-28s %10s %5d   %10s %5s  MISSING\n' "$sym" "$addr" "$w" - -
		status=1
		continue
	fi
	b=$((16#$base % 64))
	mark=""
	if [ "$w" != "$b" ]; then
		mark="  DIFFERS"
		status=1
	fi
	printf '%-28s %10s %5d   %10s %5d%s\n' "$sym" "$addr" "$w" "$base" "$b" "$mark"
done <"$tmp/work.sym"
if [ "$(wc -l <"$tmp/work.sym")" != "$(wc -l <"$tmp/base.sym")" ]; then
	echo "the two builds link different kernel symbols" >&2
	status=1
fi
if [ "$status" = 0 ]; then
	echo "same phase: reference-time metrics are comparable"
else
	echo "PHASE DIFFERS: the reference kernel runs at a different speed in the two builds" >&2
fi
exit "$status"
