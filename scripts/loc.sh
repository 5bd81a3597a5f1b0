#!/usr/bin/env bash
# loc.sh counts non-test Go lines of the root package (repro, the
# library's public API), per internal/* package and per cmd/* binary,
# with a total: ROADMAP aim 2 ("the least code") as a number a PR can
# quote before and after. Blank lines and comments count — a line is a
# line; testdata and _test.go files do not.
set -euo pipefail
cd "$(dirname "$0")/.."

n=$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
printf '%7d  %s\n' "$n" repro
total=$n
for dir in internal/* cmd/*; do
	n=$(find "$dir" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
	printf '%7d  %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
