#!/usr/bin/env bash
# fma_ratchet.sh — count the fused multiply-add instructions the Go
# compiler emits in this module's code off amd64, and fail if any
# architecture's count rises above its ceiling.
#
# The Go spec lets the compiler fuse x*y + z into one instruction that
# rounds once, unless the product is converted explicitly
# (float64(x*y) + z). amd64 never fuses; arm64, ppc64le and riscv64 do.
# So a fused site on the decision path (the Eq. (10) running sums, a
# stage-2 delta, the seeded workload draws) would round differently
# there, and "same seed, same placement digest" would hold on amd64
# alone. Every such site is written unfused, and this ratchet keeps it
# so: cmd/hmnd and cmd/hmnbench are cross-compiled with the stdlib
# toolchain and the fused mnemonics in repro/ symbols are counted with
# go tool objdump. hmnd's ceiling is 0 on every architecture. hmnbench's
# is the offline comparison code still fused: the exp tables and
# Figure 1, the GA and exact-solver baselines, the §5.2 simulator and
# stats.Pearson/Percentile. None of it is on hmnd's path or in the seeded
# workload generator; a change that removes sites lowers the ceiling.
#
# Usage, from anywhere:  scripts/fma_ratchet.sh   (or: make fma-ratchet)
set -euo pipefail
cd "$(dirname "$0")/.."

export GOTOOLCHAIN=local CGO_ENABLED=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
# ratchet CMD ARCH CEILING MNEMONICS: MNEMONICS is an awk regular
# expression matched against the whole mnemonic.
ratchet() {
	local cmd=$1 arch=$2 ceiling=$3 mnemonics=$4 n bin="$tmp/$1-$2"
	GOOS=linux GOARCH=$arch go build -o "$bin" "./cmd/$cmd"
	n=$(go tool objdump -s '^repro/' "$bin" | awk -v re="^($mnemonics)\$" '$4 ~ re' | wc -l)
	if [ "$n" -gt "$ceiling" ]; then
		printf '%-9s %-8s %3d fused multiply-adds, ceiling %d: RISEN\n' "$cmd" "$arch" "$n" "$ceiling" >&2
		go tool objdump -s '^repro/' "$bin" | awk -v re="^($mnemonics)\$" '/^TEXT/ { fn = $2 } $4 ~ re { print "  " fn, $1 }' >&2
		status=1
	else
		printf '%-9s %-8s %3d fused multiply-adds, ceiling %d\n' "$cmd" "$arch" "$n" "$ceiling"
	fi
}

arm='FMADDD|FMSUBD|FNMADDD|FNMSUBD'
ppc='FMADD|FMSUB|FNMADD|FNMSUB|XS[A-Z]*M(ADD|SUB)[A-Z]*DP'
ratchet hmnd arm64 0 "$arm"
ratchet hmnd ppc64le 0 "$ppc"
ratchet hmnd riscv64 0 "$arm"
ratchet hmnbench arm64 21 "$arm"
ratchet hmnbench ppc64le 17 "$ppc"
ratchet hmnbench riscv64 21 "$arm"
exit "$status"
