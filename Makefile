GOPATH_BIN := $(shell go env GOPATH)/bin

.PHONY: build test examples loc lint vet fuzz clean bench-allocs bench-baselines bench-compare bench-phase bench-pairs fma-ratchet crash-smoke

# Relative drift (percent) bench-compare tolerates on deterministic
# metrics before failing. Timings never gate.
BENCH_THRESHOLD ?= 0.5

build:
	go build ./...

test:
	go test -race -shuffle=on ./...

## examples runs every program under examples/ and fails on the first
## non-zero exit: compiling them is not enough to keep them working.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		go run "./$$d" >/dev/null || exit 1; \
	done

## loc prints non-test Go lines per internal/* package and per cmd/*
## binary with a total — the number ROADMAP aim 2 ("the least code") is
## judged by; quote it before and after in a PR that claims to shrink.
loc:
	@./scripts/loc.sh

## lint runs the repo's own analyzers (cmd/hmnlint) standalone, then as
## a cmd/go vettool — the exact invocation CI gates on.
lint:
	go run ./cmd/hmnlint ./...
	go install ./cmd/hmnlint
	go vet -vettool="$(GOPATH_BIN)/hmnlint" ./...

vet:
	go vet ./...

## fuzz explores the strict spec decoder, seeded with the link_edges
## exact-edge replay corpus alongside the cluster/env shapes, then the
## two differentials that hold the hand-written codec to encoding/json:
## DecodeStrict's fast path against a plain strict json.Decoder, and the
## WAL's frame decoder against json.Unmarshal; then the admit record that
## carries a request's own bytes: whatever the fast path accepted
## replays as the environment that was mapped; then the scanner's own
## number conversion against json.Unmarshal into a float64, and its
## one-loop int arrays against json.Unmarshal into a []int; then the
## snapshot file's decoder against json.Unmarshal; then logs of
## arbitrary records replayed by the one pass, which replays admissions
## as effects, and by Scan + Replay, which builds them (the minimizer gets
## 3 s an input: each run writes and recovers a log).
fuzz:
	go test -run '^$$' -fuzz 'FuzzDecodeSpec$$' -fuzztime 45s ./internal/spec
	go test -run '^$$' -fuzz 'FuzzDecodeStrictDifferential$$' -fuzztime 20s ./internal/spec
	go test -run '^$$' -fuzz 'FuzzWALDecode$$' -fuzztime 20s ./internal/wal
	go test -run '^$$' -fuzz 'FuzzAdmitEnvBytesReplay$$' -fuzztime 20s ./internal/wal
	go test -run '^$$' -fuzz 'FuzzScannerFloat64$$' -fuzztime 20s ./internal/jsonx
	go test -run '^$$' -fuzz 'FuzzScannerInts$$' -fuzztime 20s ./internal/jsonx
	go test -run '^$$' -fuzz 'FuzzSnapshotDecode$$' -fuzztime 20s -fuzzminimizetime 3s ./internal/wal
	go test -run '^$$' -fuzz 'FuzzReplayRecords$$' -fuzztime 20s -fuzzminimizetime 3s ./internal/wal

## bench-allocs runs every allocation gate, the hot path's only guard:
## the budgets of one admission — the steady-state Map+Release cycle and
## the failure-repair reroute cycle (internal/core/allocs_test.go) — and
## of the JSON around it — request decode, reply and WAL-record encode
## (internal/server/codec_test.go); the zero budgets of a snapshot sync
## (internal/cluster), a warmed-up A*Prune sweep (internal/graph) and the
## federation router's pick (internal/shard); and the memory budget of
## recovery: live heap independent of the log's length, a constant
## number of bytes per admit+release pair whatever the environment's
## size (internal/wal/recover_test.go), the Mapping in a constant number
## of allocations whatever its link count (internal/spec/spec_test.go).
bench-allocs:
	go test -run 'AllocsBudget|DoesNotAllocate|AllocatesNothing|TestRecoverMemoryIndependentOfLogLength' -v \
		./internal/core/ ./internal/server/ ./internal/wal/ ./internal/spec/ ./internal/cluster/ ./internal/graph/ ./internal/shard/

## bench-baselines regenerates the committed benchmark baselines. Run it
## when a change legitimately moves the seeded sweep (new scenarios, new
## heuristics) and commit the result; timing fields update for free.
bench-baselines:
	go run ./cmd/hmnbench -quick -churn -reps 3 -json BENCH_quick_seed1.json -table 2 >/dev/null
	go run ./cmd/hmnbench -scale -heuristics HMN -reps 3 -json BENCH_scale_seed1.json -table 2 >/dev/null

## bench-compare re-runs both committed sweeps and diffs them against
## BENCH_quick_seed1.json / BENCH_scale_seed1.json: deterministic metrics
## (run/valid counts, objective statistics, the quick sweep's churn
## block: moves, rounds, objective bare vs rebalanced) must agree within
## BENCH_THRESHOLD percent, mapping times and operation latencies are
## reported as advisory deltas only.
bench-compare:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/hmnbench -quick -churn -reps 3 -json "$$tmp/quick.json" -table 2 >/dev/null && \
	go run ./cmd/hmnbench -scale -heuristics HMN -reps 3 -json "$$tmp/scale.json" -table 2 >/dev/null && \
	go run ./cmd/hmncompare -threshold $(BENCH_THRESHOLD) BENCH_quick_seed1.json "$$tmp/quick.json" && \
	go run ./cmd/hmncompare -threshold $(BENCH_THRESHOLD) BENCH_scale_seed1.json "$$tmp/scale.json"

## bench-phase builds hmnperf for the working tree and for REV (default
## HEAD) and exits non-zero unless the reference kernel and the
## container/heap code it calls sit at the same addresses mod 64 in
## both: otherwise the kernel runs at a different speed and every
## reference-time delta between the two is off by as much.
REV ?= HEAD
bench-phase:
	./scripts/bench_phase.sh $(REV)

## bench-pairs runs PAIRS alternating, pinned pairs of one hmnperf
## WORKLOAD at SEED on the working tree and on REV (refusing unless the
## two builds are in the same phase), and prints each end-to-end
## metric's medians and quartiles, the working tree's wins and whether
## the medians differ by more than REV's interquartile range.
WORKLOAD ?= torus_route
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	./scripts/bench_pairs.sh $(REV) $(WORKLOAD) $(PAIRS) $(SEED)

## fma-ratchet cross-compiles cmd/hmnd and cmd/hmnbench for arm64,
## ppc64le and riscv64 and fails if the fused multiply-adds in repro/
## code rise above their ceilings (hmnd 0 / 0 / 0, hmnbench 22 / 18 / 22,
## all in offline comparison code): off amd64 a fused x*y + z rounds
## once, so an unfused decision path is what lets the placement digests
## hold there too.
fma-ratchet:
	./scripts/fma_ratchet.sh

## crash-smoke is the end-to-end crash/recovery check of both modes:
## churn a classic session (an indented and a compact admit, a release,
## rebalancing rounds drained to zero moves) and then `hmnd -shards 4`
## across eight tenants, kill -9, verify every WAL directory with hmnwal,
## and restart asserting byte-identical residuals and fresh IDs.
crash-smoke:
	./scripts/crash_smoke.sh

clean:
	go clean ./...
