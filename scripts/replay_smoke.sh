#!/usr/bin/env bash
# replay_smoke.sh — end-to-end crash/recovery smoke for the hmnd WAL.
#
# Boots hmnd with a data directory, opens a session and maps an
# environment over HTTP, kills the daemon with SIGKILL, verifies the
# data directory with hmnwal, restarts with -replay, and asserts the
# recovered daemon answers byte-identical residuals and keeps handing
# out fresh IDs. A final graceful shutdown checks the drain-then-
# snapshot path leaves a directory hmnwal still accepts.
#
# Run from the repo root (or via `make replay-smoke`).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
    rm -rf "$workdir"
    return 0
}
trap cleanup EXIT

addr=127.0.0.1:18472
base=http://$addr

echo "--- build hmnd, hmnwal and the specs"
go build -o "$workdir/hmnd" ./cmd/hmnd
go build -o "$workdir/hmnwal" ./cmd/hmnwal
go run ./cmd/hmngen -cluster "$workdir/cluster.json" -topology torus -hosts 40
go run ./cmd/hmngen -env "$workdir/env.json" -class high -guests 30

start_daemon() {
    "$workdir/hmnd" -addr "$addr" -data-dir "$workdir/data" "$@" &
    pid=$!
    for _ in $(seq 1 100); do
        body=$(curl -fsS "$base/v1/healthz" 2>/dev/null || true)
        if [ "$body" = "serving" ]; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon never reached 'serving'" >&2
    exit 1
}

echo "--- boot, open a session, map an environment"
start_daemon
curl -fsS -X POST "$base/v1/sessions" \
    -d "{\"cluster\": $(cat "$workdir/cluster.json"), \"mapper\": \"HMN\"}" |
    grep -q '"id": *"s1"'
curl -fsS -X POST "$base/v1/sessions/s1/envs" \
    -d "{\"env\": $(cat "$workdir/env.json")}" |
    grep -q '"id": *"e1"'
# The same environment again as a marshalling client sends it, compact:
# its admit record carries these bytes verbatim (e1's, indented, was
# rendered), so the crash image below holds one record of each kind.
curl -fsS -X POST "$base/v1/sessions/s1/envs" \
    -d "{\"env\":$(tr -d ' \n' <"$workdir/env.json")}" |
    grep -q '"id": *"e2"'
curl -fsS "$base/metrics" >"$workdir/metrics"
grep -q '^hmnd_admit_env_verbatim_total 1$' "$workdir/metrics"
curl -fsS "$base/v1/sessions/s1/residuals" >"$workdir/residuals.before"

echo "--- kill -9, then inspect the directory read-only"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
"$workdir/hmnwal" dump "$workdir/data" >/dev/null
"$workdir/hmnwal" verify "$workdir/data"

echo "--- restart with -replay, compare recovered state"
start_daemon -replay
curl -fsS "$base/v1/sessions/s1/residuals" >"$workdir/residuals.after"
cmp "$workdir/residuals.before" "$workdir/residuals.after"
curl -fsS -X POST "$base/v1/sessions/s1/envs" \
    -d "{\"env\": $(cat "$workdir/env.json")}" |
    grep -q '"id": *"e3"'
code=$(curl -sS -X DELETE "$base/v1/sessions/s1/envs/e1" -o /dev/null -w '%{http_code}')
[ "$code" = "204" ] || { echo "release of recovered e1: HTTP $code" >&2; exit 1; }

echo "--- graceful shutdown (drain, final snapshot) and re-verify"
kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
"$workdir/hmnwal" verify "$workdir/data"
echo "replay smoke OK"
