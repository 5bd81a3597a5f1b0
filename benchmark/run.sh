#!/usr/bin/env bash
# Build hmnperf once and run it. Usage, from anywhere:
#
#   benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-data-dir D]
#
# Without -workload the four workloads run one after the other, one
# process each, about 50 s apiece; BENCHMARK.json lists the first two.
# Everything the build and the runs write stays inside the checkout —
# the Go caches and the binary under .bench_build/, traces
# under benchmark/out/ — except the daemon's data directories and crash
# images, which go to /dev/shm when that is a tmpfs with room: fsync on a
# shared virtual disk is 0.2-0.7 ms and moved admit_p50 by 22 % between
# runs of the same code. Without a tmpfs they go to .bench_build/data.
# Either way they are removed on exit, also on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

build=$PWD/.bench_build
bin=$build/hmnperf
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/go-tmp
export GOTOOLCHAIN=local
data=$build/data/run-$$
if [ "$(stat -f -c %T /dev/shm 2>/dev/null)" = tmpfs ] && [ -w /dev/shm ] &&
	[ "$(df --output=avail -BG /dev/shm | tail -1 | tr -dc 0-9)" -ge 2 ]; then
	data=/dev/shm/hmnperf-run-$$
fi
mkdir -p "$GOTMPDIR" "$data"
trap 'rm -rf "$data"' EXIT

# Build once per checkout: again only if a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go build -o "$bin" ./benchmark/hmnperf
fi

start=$(date +%s)
case " $* " in
*" -workload "* | *" --workload "* | *" -workload="* | *" --workload="*)
	"$bin" -data-dir "$data" "$@"
	;;
*)
	for w in switched_churn torus_route fed_churn fail_repair; do
		"$bin" -data-dir "$data" -workload "$w" "$@"
	done
	echo "total wall time $(($(date +%s) - start)) s"
	;;
esac
