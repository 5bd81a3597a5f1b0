#!/usr/bin/env bash
# fma_ratchet.sh — count the fused multiply-add instructions the Go
# compiler emits in this module's code off amd64, and fail if any
# architecture's count rises above its ceiling.
#
# The Go spec lets the compiler fuse x*y + z into one instruction that
# rounds once, unless the product is converted explicitly
# (float64(x*y) + z). amd64 never fuses; arm64, ppc64le and riscv64 do.
# So a fused site on the decision path (the Eq. (10) running sums, a
# stage-2 delta) rounds differently there, and "same seed, same
# placement digest" holds on amd64 alone until every such site is written
# unfused (ROADMAP item 2). Until then this ratchet keeps the number of
# sites from growing: cmd/hmnd is cross-compiled with the stdlib
# toolchain and the fused mnemonics in repro/ symbols are counted with
# go tool objdump. A change that removes sites lowers the ceiling.
#
# Usage, from anywhere:  scripts/fma_ratchet.sh   (or: make fma-ratchet)
set -euo pipefail
cd "$(dirname "$0")/.."

export GOTOOLCHAIN=local CGO_ENABLED=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
# ratchet ARCH CEILING MNEMONICS: MNEMONICS is an awk regular expression
# matched against the whole mnemonic.
ratchet() {
	local arch=$1 ceiling=$2 mnemonics=$3 n
	GOOS=linux GOARCH=$arch go build -o "$tmp/hmnd-$arch" ./cmd/hmnd
	n=$(go tool objdump -s '^repro/' "$tmp/hmnd-$arch" | awk -v re="^($mnemonics)\$" '$4 ~ re' | wc -l)
	if [ "$n" -gt "$ceiling" ]; then
		printf '%-8s %3d fused multiply-adds, ceiling %d: RISEN\n' "$arch" "$n" "$ceiling" >&2
		go tool objdump -s '^repro/' "$tmp/hmnd-$arch" | awk -v re="^($mnemonics)\$" '/^TEXT/ { fn = $2 } $4 ~ re { print "  " fn, $1 }' >&2
		status=1
	else
		printf '%-8s %3d fused multiply-adds, ceiling %d\n' "$arch" "$n" "$ceiling"
	fi
}

ratchet arm64 21 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'
ratchet ppc64le 9 'FMADD|FMSUB|FNMADD|FNMSUB|XS[A-Z]*M(ADD|SUB)[A-Z]*DP'
ratchet riscv64 21 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'
exit "$status"
