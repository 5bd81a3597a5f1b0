#!/usr/bin/env bash
# crash_smoke.sh — end-to-end crash/recovery smoke for hmnd, both modes.
#
# Classic phase: boots hmnd with a data directory, opens a session, maps
# an indented and a compact environment (a rendered and a verbatim admit
# record) and a third, releases one, drains POST .../rebalance to zero
# moves, churns a second session until the log has outgrown its first
# checkpoint, kills the daemon with SIGKILL, checks the data directory
# with hmnwal, restarts, and asserts byte-identical residuals, a fresh
# environment ID and a release of a recovered environment.
#
# Federation phase: the same cycle on `hmnd -shards 4` across eight
# tenants, churned until every shard has checkpointed; every shard's WAL
# directory is checked on its own and the restart names no
# -shard-cluster (the shards rebuild themselves from their directories).
#
# Every snapshot starts a fresh segment, and none deletes a segment: a
# checkpoint shows as a snapshot.json whose first_seg is past 1 with
# every earlier segment still on disk, and recovery starts reading the
# log at first_seg. The check after each kill asserts one landed in every
# WAL directory and that hmnwal verify replays fewer records than the
# directory's log holds.
#
# Each phase ends with a graceful shutdown (drain, final snapshot) and
# checks the directories again, then runs hmnwal compact on every WAL
# directory: exactly the segments before first_seg go, hmnwal verify
# still passes, and a restart reads byte-identical residuals. Recovery
# cross-checks every session before the daemon reports "serving".
#
# Run from the repo root (or via `make crash-smoke`).
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

# start_daemon boots hmnd with the given flags and waits for "serving".
start_daemon() {
    "$workdir/hmnd" -addr "$addr" "$@" &
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

# stop_daemon sends the signal given (KILL or TERM) and waits it out.
stop_daemon() {
    kill "-$1" "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
}

# verify_dirs checks each WAL directory read-only; with "dump" first,
# it also dumps each.
verify_dirs() {
    local dump=$1
    shift
    for dir in "$@"; do
        [ "$dump" = dump ] && "$workdir/hmnwal" dump "$dir" >/dev/null
        "$workdir/hmnwal" verify "$dir"
    done
}

# checkpointed succeeds when every WAL directory named holds a
# checkpoint: a snapshot whose first_seg is past 1, with every segment
# before it still on disk.
checkpointed() {
    local dir seg n
    for dir in "$@"; do
        seg=$(sed -n 's/^{"first_seg":\([0-9]*\).*/\1/p' "$dir/snapshot.json" 2>/dev/null)
        [ -n "$seg" ] && [ "$seg" -gt 1 ] || return 1
        for ((n = 1; n < seg; n++)); do
            [ -f "$dir/$(printf 'wal-%020d.log' "$n")" ] || return 1
        done
    done
}

# verify_suffix asserts, per WAL directory, a checkpoint and a dry-run
# recovery that replays some of the log but fewer records than it holds.
verify_suffix() {
    local dir total replayed
    for dir in "$@"; do
        checkpointed "$dir" || { echo "$dir: no checkpoint" >&2; exit 1; }
        total=$("$workdir/hmnwal" dump "$dir" | sed -n 's/^log: \([0-9]*\) record.*/\1/p')
        replayed=$("$workdir/hmnwal" verify "$dir" | sed -n 's/^verified: .*, \([0-9]*\) record(s) replayed.*/\1/p')
        echo "    $dir: verify replays $replayed of $total records"
        [ -n "$total" ] && [ -n "$replayed" ] && [ "$replayed" -gt 0 ] && [ "$replayed" -lt "$total" ] ||
            { echo "$dir: replayed '$replayed' of '$total' records" >&2; exit 1; }
    done
}

# compact_dirs runs hmnwal compact on each WAL directory named and checks
# that it deleted the segments before the snapshot's first_seg — at
# least one — and kept the rest, and that hmnwal verify still passes.
compact_dirs() {
    local dir seg before want after f
    for dir in "$@"; do
        seg=$(sed -n 's/^{"first_seg":\([0-9]*\).*/\1/p' "$dir/snapshot.json")
        before=$(cd "$dir" && ls wal-*.log)
        want=""
        for f in $before; do
            [ "$((10#${f:4:20}))" -ge "$seg" ] && want+="$f "
        done
        "$workdir/hmnwal" compact "$dir" >/dev/null
        after=$(cd "$dir" && echo wal-*.log)
        [ "$after " = "$want" ] || { echo "$dir: compaction left [$after], want [$want] (first_seg $seg)" >&2; exit 1; }
        [ "$(wc -w <<<"$before")" -gt "$(wc -w <<<"$after")" ] || { echo "$dir: compaction deleted nothing" >&2; exit 1; }
        "$workdir/hmnwal" verify "$dir" >/dev/null
        echo "    $dir: $(wc -w <<<"$before") segment(s) compacted to $(wc -w <<<"$after"), from segment $seg"
    done
}

# churn admits request file $2 to each session of the list $1 in turn and
# releases it at once, $4 times over one keep-alive connection; the
# environments take the IDs e$3, e$(($3 + 1)), ...
churn() {
    local sids=($1) first=$3 n=$4 args=() i sid codes
    for ((i = 0; i < n; i++)); do
        sid=${sids[i % ${#sids[@]}]}
        args+=(-sS -o /dev/null -w '%{http_code} ' -X POST "$base/v1/sessions/$sid/envs" -d "@$2" --next
            -sS -o /dev/null -w '%{http_code} ' -X DELETE "$base/v1/sessions/$sid/envs/e$((first + i))" --next)
    done
    codes=$(curl "${args[@]}" -sS -o /dev/null "$base/v1/healthz")
    for c in $codes; do
        case $c in 201 | 204) ;; *) echo "churn: HTTP $c" >&2; exit 1 ;; esac
    done
}

# expect_reply runs curl -fsS with the arguments after $1 and matches the
# reply against grep pattern $1. The reply is read whole before grep sees
# it: piped into grep -q, which exits at its match, curl can fail writing
# the rest (error 23) and fail the step under pipefail.
expect_reply() {
    local pattern=$1 reply
    shift
    reply=$(curl -fsS "$@")
    grep -q "$pattern" <<<"$reply" || { echo "reply does not match '$pattern': $reply" >&2; exit 1; }
}

# map_env POSTs env file $2 (compact when $4 is "compact") to session $1
# and expects the fragment reply under environment ID $3.
map_env() {
    local env
    if [ "${4:-}" = compact ]; then
        env=$(tr -d ' \n' <"$2")
    else
        env=$(cat "$2")
    fi
    expect_reply "\"id\": *\"$3\", *\"fragments\"" -X POST "$base/v1/sessions/$1/envs" -d "{\"env\": $env}"
}

# release expects DELETE of environment $2 in session $1 to answer 204.
release() {
    local code
    code=$(curl -sS -X DELETE "$base/v1/sessions/$1/envs/$2" -o /dev/null -w '%{http_code}')
    [ "$code" = "204" ] || { echo "release of $1/$2: HTTP $code" >&2; exit 1; }
}

echo "--- build hmnd, hmnwal and the specs"
go build -o "$workdir/hmnd" ./cmd/hmnd
go build -o "$workdir/hmnwal" ./cmd/hmnwal
go run ./cmd/hmngen -cluster "$workdir/cluster.json" -topology torus -hosts 40
go run ./cmd/hmngen -env "$workdir/env-a.json" -class high -guests 30
go run ./cmd/hmngen -env "$workdir/env-b.json" -class high -guests 20 -seed 7
go run ./cmd/hmngen -cluster "$workdir/shard.json" -topology torus -hosts 16
go run ./cmd/hmngen -env "$workdir/env-f.json" -class high -guests 10
for e in a f; do
    echo "{\"env\": $(cat "$workdir/env-$e.json")}" >"$workdir/req-$e.json"
done

echo "=== classic"
data=$workdir/data
echo "--- boot, open a session, churn it"
start_daemon -data-dir "$data"
expect_reply '"id": *"s1"' -X POST "$base/v1/sessions" \
    -d "{\"cluster\": $(cat "$workdir/cluster.json"), \"mapper\": \"HMN\"}"
map_env s1 "$workdir/env-a.json" e1
map_env s1 "$workdir/env-b.json" e2
# env-a again as a marshalling client sends it, compact: its admit record
# carries these bytes verbatim (e1's, indented, was rendered), so the
# crash image holds one record of each kind.
map_env s1 "$workdir/env-a.json" e3 compact
expect_reply '^hmnd_admit_env_verbatim_total 1$' "$base/metrics"
release s1 e2

echo "--- drain the rebalance endpoint to a local optimum"
total=0
for _ in $(seq 1 50); do
    moves=$(curl -fsS -X POST "$base/v1/sessions/s1/rebalance" |
        sed -n 's/.*"moves": *\([0-9]*\).*/\1/p')
    [ -n "$moves" ] || { echo "rebalance response had no move count" >&2; exit 1; }
    total=$((total + moves))
    [ "$moves" = "0" ] && break
done
[ "$moves" = "0" ] || { echo "rebalancing never converged in 50 rounds" >&2; exit 1; }
echo "    rebalancing committed $total moves"

echo "--- churn a second session past the log's first checkpoint"
expect_reply '"id": *"s2"' -X POST "$base/v1/sessions" \
    -d "{\"cluster\": $(cat "$workdir/cluster.json"), \"mapper\": \"HMN\"}"
next=1
until checkpointed "$data"; do
    [ "$next" -lt 2000 ] || { echo "no checkpoint after $next admissions" >&2; exit 1; }
    churn s2 "$workdir/req-a.json" "$next" 50
    next=$((next + 50))
done
churn s2 "$workdir/req-a.json" "$next" 10
for sid in s1 s2; do
    curl -fsS "$base/v1/sessions/$sid/residuals" >"$workdir/residuals.$sid.before"
done

echo "--- kill -9, inspect the directory, restart, compare"
stop_daemon KILL
verify_dirs dump "$data"
verify_suffix "$data"
start_daemon -data-dir "$data"
for sid in s1 s2; do
    curl -fsS "$base/v1/sessions/$sid/residuals" | cmp "$workdir/residuals.$sid.before" -
done
map_env s1 "$workdir/env-b.json" e4
release s1 e1
for sid in s1 s2; do
    curl -fsS "$base/v1/sessions/$sid/residuals" >"$workdir/residuals.$sid.final"
done

echo "--- graceful shutdown and re-verify"
stop_daemon TERM
verify_dirs - "$data"

echo "--- compact, restart, compare"
compact_dirs "$data"
start_daemon -data-dir "$data"
for sid in s1 s2; do
    curl -fsS "$base/v1/sessions/$sid/residuals" | cmp "$workdir/residuals.$sid.final" -
done
stop_daemon TERM

echo "=== federation"
data=$workdir/fed
shards=4
dirs=()
for k in $(seq 0 $((shards - 1))); do
    dirs+=("$data/shard-$k")
done
echo "--- boot 4 shards, churn environments across 8 tenants"
start_daemon -shards "$shards" -gateway-bw 50 -data-dir "$data" -shard-cluster "$workdir/shard.json"
# Eight tenants cover all four shards through the consistent-hash fast
# path, so every shard's WAL sees real records before the crash.
for t in $(seq 1 8); do
    expect_reply "\"id\": *\"s$t\"" -X POST "$base/v1/sessions"
done
# Environment IDs are a federation-wide counter: eight admissions in
# tenant order take e1..e8, one per tenant.
for t in $(seq 1 8); do
    map_env "s$t" "$workdir/env-f.json" "e$t"
done
release s2 e2
echo "--- churn all eight tenants past every shard's first checkpoint"
next=9
until checkpointed "${dirs[@]}"; do
    [ "$next" -lt 8000 ] || { echo "no checkpoint on every shard after $next admissions" >&2; exit 1; }
    churn "s1 s2 s3 s4 s5 s6 s7 s8" "$workdir/req-f.json" "$next" 200
    next=$((next + 200))
done
churn "s1 s2 s3 s4 s5 s6 s7 s8" "$workdir/req-f.json" "$next" 40
next=$((next + 40))
for k in $(seq 0 $((shards - 1))); do
    curl -fsS "$base/v1/shards/$k/residuals" >"$workdir/residuals.$k.before"
done

echo "--- kill -9, inspect every shard directory, restart, compare"
stop_daemon KILL
verify_dirs dump "${dirs[@]}"
verify_suffix "${dirs[@]}"
start_daemon -shards "$shards" -gateway-bw 50 -data-dir "$data"
for k in $(seq 0 $((shards - 1))); do
    curl -fsS "$base/v1/shards/$k/residuals" | cmp "$workdir/residuals.$k.before" -
done
map_env s1 "$workdir/env-f.json" "e$next"
release s5 e5
for k in $(seq 0 $((shards - 1))); do
    curl -fsS "$base/v1/shards/$k/residuals" >"$workdir/residuals.$k.final"
done

echo "--- graceful shutdown and re-verify"
stop_daemon TERM
verify_dirs - "${dirs[@]}"

echo "--- compact every shard directory, restart, compare"
compact_dirs "${dirs[@]}"
start_daemon -shards "$shards" -gateway-bw 50 -data-dir "$data"
for k in $(seq 0 $((shards - 1))); do
    curl -fsS "$base/v1/shards/$k/residuals" | cmp "$workdir/residuals.$k.final" -
done
stop_daemon TERM
echo "crash smoke OK"
