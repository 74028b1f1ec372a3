#!/usr/bin/env sh
# End-to-end smoke test for the sheet server (DESIGN.md §15): boot the
# release binary with the tiny TPC-H preload, drive a multi-session
# workload over plain HTTP with curl, and verify snapshot isolation,
# refresh, writer endpoints and the error->status mapping from outside
# the process.
#
#   scripts/server_smoke.sh [path/to/ssa-server]
#
# The binary defaults to target/release/ssa-server (build it first with
# `cargo build --release -p ssa-server`). The server is started on an
# ephemeral port (--port 0) and its bound address scraped from the
# "listening on ADDR" line it prints, so parallel CI jobs cannot collide.
set -eu

cd "$(dirname "$0")/.."

SERVER_BIN="${1:-target/release/ssa-server}"
if [ ! -x "$SERVER_BIN" ]; then
    echo "server_smoke: $SERVER_BIN not found or not executable" >&2
    echo "server_smoke: build it with: cargo build --release -p ssa-server" >&2
    exit 1
fi

WORK_DIR="$(mktemp -d)"
SERVER_PID=""
REPLICA_PIDS=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    for pid in $REPLICA_PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT INT TERM

# wait_addr LOGFILE PID -> the "listening on ADDR" address, or dies.
wait_addr() {
    log="$1" pid="$2" addr="" tries=0
    while [ -z "$addr" ]; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "server_smoke: server (pid $pid) died during startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        addr="$(sed -n 's/^listening on //p' "$log" | head -n 1)"
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "server_smoke: no 'listening on' line after 10s" >&2
            cat "$log" >&2
            exit 1
        fi
        [ -z "$addr" ] && sleep 0.1
    done
    printf '%s' "$addr"
}

echo "==> booting $SERVER_BIN --port 0 --preload tiny"
"$SERVER_BIN" --port 0 --preload tiny >"$WORK_DIR/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the "listening on ADDR" line (the binary prints it once the
# socket is bound); fail fast if the process dies first.
ADDR="$(wait_addr "$WORK_DIR/server.log" "$SERVER_PID")"
BASE="http://$ADDR"
echo "==> server up at $BASE (pid $SERVER_PID)"

# req_at BASE METHOD PATH EXPECTED_STATUS [BODY_FILE] -> body on stdout.
# A 503 means the accept queue shed the connection (the server asks for
# a retry via Retry-After); back off with jitter and try again rather
# than failing the smoke run on transient saturation.
req_at() {
    base="$1" method="$2" path="$3" expect="$4" body_file="${5:-}"
    out="$WORK_DIR/resp.body"
    attempt=0
    while :; do
        if [ -n "$body_file" ]; then
            status="$(curl -s -o "$out" -w '%{http_code}' -X "$method" \
                --data-binary "@$body_file" "$base$path")"
        else
            status="$(curl -s -o "$out" -w '%{http_code}' -X "$method" \
                "$base$path")"
        fi
        if [ "$status" = 503 ] && [ "$expect" != 503 ] && [ "$attempt" -lt 5 ]; then
            attempt=$((attempt + 1))
            pause="$(awk -v a="$attempt" \
                'BEGIN{srand(); printf "%.2f", 0.1 * a + rand() * 0.2}')"
            echo "server_smoke: $method $path shed with 503; retry $attempt in ${pause}s" >&2
            sleep "$pause"
            continue
        fi
        break
    done
    if [ "$status" != "$expect" ]; then
        echo "server_smoke: $method $path -> $status (want $expect)" >&2
        cat "$out" >&2
        exit 1
    fi
    cat "$out"
}

# req METHOD PATH EXPECTED_STATUS [BODY_FILE] -> body on stdout.
req() {
    req_at "$BASE" "$@"
}

# expect_contains HAYSTACK NEEDLE LABEL
expect_contains() {
    case "$1" in
    *"$2"*) ;;
    *)
        echo "server_smoke: $3: expected $2 in: $1" >&2
        exit 1
        ;;
    esac
}

# session_id OPEN_REPLY -> the session id in a POST /sessions reply.
session_id() {
    printf '%s' "$1" | sed -n 's/.*"session": \([0-9]*\).*/\1/p'
}

# expect_same_view REFRESHED_VIEW SESSION_ID LABEL: a refreshed session
# must show byte for byte what a fresh session with the same gestures
# shows.
expect_same_view() {
    fresh="$(req GET "/sessions/$2/view" 200)"
    if [ "$1" != "$fresh" ]; then
        echo "server_smoke: $3: refreshed view differs from a fresh session's" >&2
        printf '%s\n--- fresh ---\n%s\n' "$1" "$fresh" >&2
        exit 1
    fi
    req DELETE "/sessions/$2" 200 >/dev/null
}

echo "==> health + preloaded catalog"
req GET /health 200 >/dev/null
sheets="$(req GET /sheets 200)"
expect_contains "$sheets" '"orders"' "preloaded sheets"

echo "==> create a sheet from CSV, duplicate is 409"
cat >"$WORK_DIR/fruit.csv" <<'CSV'
name,qty,price
apple,10,0.5
banana,6,0.25
cherry,40,3.0
CSV
req PUT /sheets/fruit 201 "$WORK_DIR/fruit.csv" >/dev/null
req PUT /sheets/fruit 409 "$WORK_DIR/fruit.csv" >/dev/null
meta="$(req GET /sheets/fruit 200)"
expect_contains "$meta" '"rows": 3' "fresh sheet row count"
req GET /sheets/nosuch 404 >/dev/null

echo "==> two sessions pin the same snapshot, one queries"
s1="$(req POST '/sessions?sheet=fruit' 201)"
s2="$(req POST '/sessions?sheet=fruit' 201)"
id1="$(session_id "$s1")"
id2="$(session_id "$s2")"
printf 'order price desc' >"$WORK_DIR/op"
req POST "/sessions/$id1/apply" 200 "$WORK_DIR/op" >/dev/null
view1="$(req GET "/sessions/$id1/view" 200)"
expect_contains "$view1" cherry "ordered view"

echo "==> writer endpoints commit and bump the version"
printf 'durian,2,7.5' >"$WORK_DIR/rows"
appended="$(req POST /sheets/fruit/rows 200 "$WORK_DIR/rows")"
expect_contains "$appended" '"version": 1' "append bumps version"
printf '1 qty 11' >"$WORK_DIR/cell"
updated="$(req POST /sheets/fruit/cells 200 "$WORK_DIR/cell")"
expect_contains "$updated" '"version": 2' "update bumps version"

echo "==> pinned sessions do not see the commit until refresh"
view1_after="$(req GET "/sessions/$id1/view" 200)"
if [ "$view1" != "$view1_after" ]; then
    echo "server_smoke: pinned session view drifted across a commit" >&2
    exit 1
fi
view2="$(req GET "/sessions/$id2/view" 200)"
case "$view2" in
*durian*)
    echo "server_smoke: unrefreshed session sees the new row" >&2
    exit 1
    ;;
esac
refreshed="$(req POST "/sessions/$id2/refresh" 200)"
expect_contains "$refreshed" '"version": 2' "refresh re-pins to latest"
view2="$(req GET "/sessions/$id2/view" 200)"
expect_contains "$view2" durian "refreshed session sees the new row"
view1_after="$(req GET "/sessions/$id1/view" 200)"
if [ "$view1" != "$view1_after" ]; then
    echo "server_smoke: session 1 drifted after session 2 refreshed" >&2
    exit 1
fi

echo "==> refreshed sessions show exactly what fresh sessions show"
id3="$(session_id "$(req POST '/sessions?sheet=fruit' 201)")"
expect_same_view "$view2" "$id3" "refresh across an append and a cell update"
# Append-only commits: once session 1 is current and warm, its next
# refresh patches the ordered view instead of re-evaluating it.
req POST "/sessions/$id1/refresh" 200 >/dev/null
req GET "/sessions/$id1/view" 200 >/dev/null
printf 'elderberry,9,1.25\nfig,3,0.75' >"$WORK_DIR/rows"
req POST /sheets/fruit/rows 200 "$WORK_DIR/rows" >/dev/null
req POST "/sessions/$id1/refresh" 200 >/dev/null
view1="$(req GET "/sessions/$id1/view" 200)"
expect_contains "$view1" elderberry "refreshed session sees the appended rows"
plan1="$(req GET "/sessions/$id1/explain" 200)"
expect_contains "$plan1" "rows appended (2)" "append-only refresh patches the warm view"
id3="$(session_id "$(req POST '/sessions?sheet=fruit' 201)")"
printf 'order price desc' >"$WORK_DIR/op"
req POST "/sessions/$id3/apply" 200 "$WORK_DIR/op" >/dev/null
expect_same_view "$view1" "$id3" "refresh across appends only"

echo "==> error mapping: write commands in sessions are 409, bad ops 400"
printf 'setcell 1 qty 99' >"$WORK_DIR/op"
req POST "/sessions/$id1/apply" 409 "$WORK_DIR/op" >/dev/null
printf 'select nosuchcol > 1' >"$WORK_DIR/op"
req POST "/sessions/$id1/apply" 404 "$WORK_DIR/op" >/dev/null
printf 'frobnicate' >"$WORK_DIR/op"
req POST "/sessions/$id1/apply" 400 "$WORK_DIR/op" >/dev/null

echo "==> sessions close cleanly"
req DELETE "/sessions/$id1" 200 >/dev/null
req GET "/sessions/$id1/view" 404 >/dev/null
req DELETE "/sessions/$id2" 200 >/dev/null

echo "==> mid-size views are not held back by Nagle's algorithm"
# A ~28 KB view is too big for the server's 8 KiB write buffer and
# smaller than one loopback segment: with Nagle on, its tail waited
# ~40 ms for the client's delayed ACK of the head, every time.
awk 'BEGIN {
    print "id,name,price"
    for (i = 0; i < 1000; i++) printf "%d,item_%d,%d.%02d\n", i, i % 37, i * 7, i % 100
}' >"$WORK_DIR/items.csv"
req PUT /sheets/items 201 "$WORK_DIR/items.csv" >/dev/null
idv="$(session_id "$(req POST '/sessions?sheet=items' 201)")"
view_url="$BASE/sessions/$idv/view"
# One curl invocation reuses its connection across the five URLs and
# prints, per URL: status, body bytes, new connections, seconds.
timings="$(curl -s -w '%{http_code} %{size_download} %{num_connects} %{time_total}\n' \
    -o /dev/null "$view_url" -o /dev/null "$view_url" -o /dev/null "$view_url" \
    -o /dev/null "$view_url" -o /dev/null "$view_url")"
if ! printf '%s\n' "$timings" | awk '
    $1 != 200 || $2 < 8192 || $2 >= 65536 { bad = 1 }
    { n++; connects += $3; total += $4 }
    END {
        printf "==> 5 keep-alive views: %.1f ms total\n", total * 1000
        exit (bad || n != 5 || connects != 1 || total > 0.150)
    }'; then
    echo "server_smoke: keep-alive views stalled or misbehaved (want 5 x 200, 8-64 KiB, one connection, <= 150 ms total):" >&2
    printf '%s\n' "$timings" >&2
    exit 1
fi
req DELETE "/sessions/$idv" 200 >/dev/null

# --- Durability & replication (DESIGN.md §17) -------------------------
# Two durable replicas of the same sheet diverge, exchange op-logs over
# /sync, and converge bitwise; a SIGKILLed replica reopens its snapshot
# + WAL and still agrees with its peer.

echo "==> booting two durable replicas (fsync always)"
mkdir -p "$WORK_DIR/ra" "$WORK_DIR/rb"
"$SERVER_BIN" --port 0 --durable "$WORK_DIR/ra" --fsync always --replica 1 \
    >"$WORK_DIR/ra.log" 2>&1 &
PID_A=$!
REPLICA_PIDS="$REPLICA_PIDS $PID_A"
"$SERVER_BIN" --port 0 --durable "$WORK_DIR/rb" --fsync always --replica 2 \
    >"$WORK_DIR/rb.log" 2>&1 &
PID_B=$!
REPLICA_PIDS="$REPLICA_PIDS $PID_B"
BASE_A="http://$(wait_addr "$WORK_DIR/ra.log" "$PID_A")"
BASE_B="http://$(wait_addr "$WORK_DIR/rb.log" "$PID_B")"
echo "==> replica 1 at $BASE_A, replica 2 at $BASE_B"

echo "==> same genesis on both, divergent edits"
req_at "$BASE_A" PUT /sheets/fruit 201 "$WORK_DIR/fruit.csv" >/dev/null
req_at "$BASE_B" PUT /sheets/fruit 201 "$WORK_DIR/fruit.csv" >/dev/null
printf 'select price < 2.0\norder qty desc 1\n' >"$WORK_DIR/ops_a"
req_at "$BASE_A" POST /sheets/fruit/ops 200 "$WORK_DIR/ops_a" >/dev/null
printf 'elderberry,12,1.75' >"$WORK_DIR/rows_b"
req_at "$BASE_B" POST /sheets/fruit/rows 200 "$WORK_DIR/rows_b" >/dev/null
fp_a="$(req_at "$BASE_A" GET /sheets/fruit/fingerprint 200)"
fp_b="$(req_at "$BASE_B" GET /sheets/fruit/fingerprint 200)"
if [ "$fp_a" = "$fp_b" ]; then
    echo "server_smoke: replicas agree before sync (edits not divergent?)" >&2
    exit 1
fi

echo "==> op-log exchange: A -> B, reply B -> A"
req_at "$BASE_A" GET /sheets/fruit/sync 200 >"$WORK_DIR/pull_a"
req_at "$BASE_B" POST /sheets/fruit/sync 200 "$WORK_DIR/pull_a" >"$WORK_DIR/reply_b"
req_at "$BASE_A" POST /sheets/fruit/sync 200 "$WORK_DIR/reply_b" >/dev/null
fp_a="$(req_at "$BASE_A" GET /sheets/fruit/fingerprint 200)"
fp_b="$(req_at "$BASE_B" GET /sheets/fruit/fingerprint 200)"
if [ "$fp_a" != "$fp_b" ]; then
    echo "server_smoke: replicas diverge after sync round-trip:" >&2
    echo "  A: $fp_a" >&2
    echo "  B: $fp_b" >&2
    exit 1
fi
echo "==> replicas converged: $(printf '%s' "$fp_a" | cut -c1-64)..."

echo "==> SIGKILL replica 1, reopen from snapshot + WAL"
kill -9 "$PID_A" 2>/dev/null || true
wait "$PID_A" 2>/dev/null || true
"$SERVER_BIN" --port 0 --durable "$WORK_DIR/ra" --fsync always --replica 1 \
    --open "$WORK_DIR/ra/fruit.sheet" >"$WORK_DIR/ra2.log" 2>&1 &
PID_A=$!
REPLICA_PIDS="$REPLICA_PIDS $PID_A"
BASE_A="http://$(wait_addr "$WORK_DIR/ra2.log" "$PID_A")"
fp_a="$(req_at "$BASE_A" GET /sheets/fruit/fingerprint 200)"
if [ "$fp_a" != "$fp_b" ]; then
    echo "server_smoke: recovered replica lost state: $fp_a != $fp_b" >&2
    exit 1
fi
echo "==> recovered replica still agrees with its peer"

echo "server_smoke: OK"
