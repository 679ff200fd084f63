#!/bin/sh
# smoke.sh boots qunitsd on a scratch port and exercises the HTTP
# surface end to end with curl: /healthz, /v1/search (single + batch +
# explain + error envelope), /v1/feedback, /v1/instances/{id}, and the
# legacy /search alias — then the snapshot cycle: add an instance over
# /v1, snapshot via SIGTERM, restart from the snapshot, and assert the
# added instance is still searchable — then the mmap cycle: snapshot a
# synth corpus, reboot with -mmap, and require the mapped path to
# engage, serve byte-identical search responses, accept live mutations,
# and boot far under the fresh-build time — then the compaction cycle:
# accumulate tombstones over /v1/instances, POST /v1/compact while a
# background search loop keeps hitting the server, and assert /stats
# reclamation plus unchanged results — then the cluster cycle: boot a
# coordinator over two partition nodes (a WAL-writing primary and a
# tailing follower) next to an identically-seeded single node, drive
# searches, a live instance add, feedback, and a compaction through
# both stacks, and diff the scrubbed /v1 responses byte for byte. It is
# the CI smoke test: `make smoke` runs the basic flow, `make
# snapshot-smoke` the snapshot flow, `make mmap-smoke` the mmap flow,
# `make compact-smoke` the
# compact-under-load flow, `make cluster-smoke` the cluster flow,
# `make eval-smoke` the relevance-gate flow (cmd/eval offline on the
# committed IMDb golden set, then online over /v1/search against a
# qunitsd serving the same corpus, with the two reports required to be
# byte-identical), `make smoke-selftest` the harness's own negative
# control (a passing `basic` run must exit 0, one forced to fail must
# exit 1), `scripts/smoke.sh all` every flow. Load and latency under
# traffic are the benchmark's job (benchmark/README.md), not this
# script's. Fast, hermetic, and loud on failure.
#
# Usage: smoke.sh [basic|snapshot|mmap|compact|cluster|eval|selftest|all]   (default: all)
#
# SMOKE_FORCE_FAIL=1 makes start_server call fail as soon as qunitsd is
# healthy; the selftest mode uses it to prove a failure exits 1.
set -eu

MODE="${1:-all}"
case "$MODE" in basic|snapshot|mmap|compact|cluster|eval|selftest|all) ;; *)
    echo "smoke: unknown mode $MODE (want basic|snapshot|mmap|compact|cluster|eval|selftest|all)" >&2; exit 2 ;;
esac

if [ "$MODE" = "selftest" ]; then
    # The harness's negative control: an exit code that is 1 on a pass
    # and on a failure checks nothing, so require both outcomes.
    echo "smoke: selftest: a passing basic run must exit 0"
    rc=0; SMOKE_FORCE_FAIL= sh "$0" basic || rc=$?
    [ "$rc" -eq 0 ] || { echo "smoke: FAIL: selftest: passing basic run exited $rc, want 0" >&2; exit 1; }
    echo "smoke: selftest: a basic run forced to fail must exit 1"
    rc=0; OUT=$(SMOKE_FORCE_FAIL=1 sh "$0" basic 2>&1) || rc=$?
    [ "$rc" -eq 1 ] || { echo "smoke: FAIL: selftest: failing basic run exited $rc, want 1" >&2; exit 1; }
    echo "$OUT" | grep -q 'FAIL: SMOKE_FORCE_FAIL is set' || {
        echo "smoke: FAIL: selftest: basic run failed before the forced failure:" >&2
        echo "$OUT" >&2
        exit 1
    }
    echo "smoke: selftest: PASS"
    exit 0
fi

# pick_ports N: print N distinct free TCP ports, one per line. All N
# sockets are held open simultaneously while being picked, so the
# kernel cannot hand the same port out twice; they are closed only on
# exit, immediately before the servers bind. (The old scheme — a fixed
# 18080 plus offsets — collided with anything already listening there,
# including a concurrent smoke run.)
pick_ports() {
    python3 -c '
import socket, sys
socks = [socket.socket() for _ in range(int(sys.argv[1]))]
for s in socks:
    s.bind(("127.0.0.1", 0))
for s in socks:
    print(s.getsockname()[1])
' "$1"
}

if [ -n "${SMOKE_PORT:-}" ]; then
    # Explicit override keeps the old deterministic layout for debugging.
    PORT="$SMOKE_PORT"
    SPORT=$((PORT + 1)); P0PORT=$((PORT + 2)); P1PORT=$((PORT + 3)); COPORT=$((PORT + 4))
else
    # shellcheck disable=SC2046
    set -- $(pick_ports 5)
    PORT=$1; SPORT=$2; P0PORT=$3; P1PORT=$4; COPORT=$5
fi
BASE="http://127.0.0.1:$PORT"
# Every binary the flows build goes under BINDIR, which cleanup removes.
BINDIR="$(mktemp -d)"
BIN="$BINDIR/qunitsd"
LOG="$(mktemp)"
SNAP="$(mktemp -u).snap"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    [ -n "${PID:-}" ] && wait "$PID" 2>/dev/null || true
    for p in ${CPIDS:-}; do kill "$p" 2>/dev/null || true; done
    for p in ${CPIDS:-}; do wait "$p" 2>/dev/null || true; done
    rm -rf "$BINDIR"
    rm -f "$LOG" "$SNAP" "$SNAP.tmp" "$LOG.searchfail"
    [ -n "${CLOGS:-}" ] && rm -rf "$CLOGS"
    [ -n "${EVDIR:-}" ] && rm -rf "$EVDIR"
    # A run that ends without `exit` takes the trap's last status, so a
    # false test above must not be last; fail has already exited 1.
    return 0
}
trap cleanup EXIT
# A signal ends the run as a failure; the EXIT trap then cleans up.
trap 'exit 1' INT TERM

fail() {
    echo "smoke: FAIL: $1" >&2
    echo "--- qunitsd log ---" >&2
    cat "$LOG" >&2
    exit 1
}

# jsonget FILTER JSON: extract a field with python (always present in CI
# images; avoids a jq dependency).
jsonget() {
    python3 -c 'import json,sys; d=json.load(sys.stdin); print(eval(sys.argv[1], {"d": d}))' "$1"
}

# scrub: drop took_us everywhere and re-serialize with sorted keys, so
# two responses that differ only in timing compare equal. Shared by the
# mmap parity diff and the cluster byte-for-byte diff.
scrub() {
    python3 -c '
import json, sys
def walk(x):
    if isinstance(x, dict):
        x.pop("took_us", None)
        for v in x.values(): walk(v)
    elif isinstance(x, list):
        for v in x: walk(v)
d = json.load(sys.stdin); walk(d); print(json.dumps(d, sort_keys=True))'
}

# boot_secs PATTERN: parse the Go duration ("123ms", "1.2s", ...) out of
# the first log line matching PATTERN and print it as seconds.
boot_secs() {
    python3 -c '
import re, sys
for line in open(sys.argv[2]):
    if re.search(sys.argv[1], line):
        units = {"h": 3600, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "m": 60, "s": 1}
        total = 0.0
        m = re.search(r" in ([0-9.a-zµ]+) ", line)
        if not m:
            continue
        for num, unit in re.findall(r"([0-9.]+)(h|ms|µs|us|ns|m|s)", m.group(1)):
            total += float(num) * units.get(unit.replace("µs", "us"), 1e-6)
        print("%.6f" % total)
        sys.exit(0)
sys.exit(1)
' "$1" "$LOG"
}

# start_server EXTRA_FLAGS…: boot qunitsd and wait for /healthz.
start_server() {
    "$BIN" -addr "127.0.0.1:$PORT" -persons 120 -movies 80 "$@" >"$LOG" 2>&1 &
    PID=$!
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "server did not become healthy"
        kill -0 "$PID" 2>/dev/null || fail "server exited early"
        sleep 0.2
    done
    [ -z "${SMOKE_FORCE_FAIL:-}" ] || fail "SMOKE_FORCE_FAIL is set"
}

# stop_server: SIGTERM and wait for the graceful drain.
stop_server() {
    kill -TERM "$PID"
    i=0
    while kill -0 "$PID" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "server did not drain after SIGTERM"
        sleep 0.1
    done
    wait "$PID" 2>/dev/null || true
    grep -q "drained" "$LOG" || fail "no graceful-shutdown log line"
    PID=
}

echo "smoke: building qunitsd"
go build -o "$BIN" ./cmd/qunitsd

if [ "$MODE" = "basic" ] || [ "$MODE" = "all" ]; then
    echo "smoke: starting qunitsd on :$PORT"
    start_server

    echo "smoke: GET /healthz"
    curl -fsS "$BASE/healthz" | jsonget 'd["status"]' | grep -qx ok || fail "healthz not ok"

    echo "smoke: POST /v1/search (single)"
    OUT=$(curl -fsS -d '{"query":"star wars cast","k":3,"explain":true}' "$BASE/v1/search")
    echo "$OUT" | jsonget 'd["results"][0]["definition"]' | grep -qx movie-cast || fail "single search top result: $OUT"
    echo "$OUT" | jsonget 'd["explain"]["template"]' | grep -q 'movie.title' || fail "explain missing: $OUT"
    TOP_ID=$(echo "$OUT" | jsonget 'd["results"][0]["id"]')

    echo "smoke: POST /v1/search (batch with per-item error)"
    OUT=$(curl -fsS -d '{"queries":[{"query":"george clooney","k":2},{"query":""}]}' "$BASE/v1/search")
    echo "$OUT" | jsonget 'len(d["items"])' | grep -qx 2 || fail "batch item count: $OUT"
    echo "$OUT" | jsonget 'd["items"][1]["error"]["code"]' | grep -qx invalid_argument || fail "batch per-item error: $OUT"

    echo "smoke: POST /v1/search (error envelope)"
    OUT=$(curl -sS -d '{"query":"x","filter":{"definitions":["nope"]}}' "$BASE/v1/search")
    echo "$OUT" | jsonget 'd["error"]["code"]' | grep -qx unknown_definition || fail "error envelope: $OUT"

    echo "smoke: POST /v1/feedback"
    OUT=$(curl -fsS -d "{\"instance_id\":$(printf '%s' "$TOP_ID" | python3 -c 'import json,sys; print(json.dumps(sys.stdin.read()))'),\"positive\":true}" "$BASE/v1/feedback")
    echo "$OUT" | jsonget 'd["utility"] > 0' | grep -qx True || fail "feedback: $OUT"

    echo "smoke: GET /v1/instances/{id}"
    ENC_ID=$(printf '%s' "$TOP_ID" | python3 -c 'import sys,urllib.parse; print(urllib.parse.quote(sys.stdin.read()))')
    OUT=$(curl -fsS "$BASE/v1/instances/$ENC_ID")
    echo "$OUT" | jsonget 'd["definition"]' | grep -qx movie-cast || fail "instance fetch: $OUT"

    echo "smoke: GET /search (legacy alias)"
    OUT=$(curl -fsS "$BASE/search?q=star+wars+cast&k=2")
    echo "$OUT" | jsonget 'd["results"][0]["definition"]' | grep -qx movie-cast || fail "legacy search: $OUT"

    echo "smoke: GET /stats"
    OUT=$(curl -fsS "$BASE/stats")
    echo "$OUT" | jsonget 'd["feedbacks"]' | grep -qx 1 || fail "stats feedbacks: $OUT"
    echo "$OUT" | jsonget 'd["latency_us"]["/v1/search"]["count"] > 0' | grep -qx True || fail "no /v1/search latency in stats: $OUT"
    echo "$OUT" | jsonget 'd["latency_us"]["/v1/search"]["p99_us"] >= d["latency_us"]["/v1/search"]["p50_us"]' | grep -qx True || fail "non-monotone latency quantiles: $OUT"

    echo "smoke: graceful shutdown (SIGTERM)"
    stop_server
fi

if [ "$MODE" = "snapshot" ] || [ "$MODE" = "all" ]; then
    echo "smoke: starting qunitsd with -snapshot (fresh build)"
    start_server -snapshot "$SNAP"

    echo "smoke: POST /v1/instances (live add)"
    OUT=$(curl -fsS -d '{"definition":"movie-cast","anchor":"smoke snapshot qunit"}' "$BASE/v1/instances")
    echo "$OUT" | jsonget 'd["id"]' | grep -qx 'movie-cast:smoke snapshot qunit' || fail "instance create: $OUT"

    echo "smoke: added instance is searchable without restart"
    OUT=$(curl -fsS -d '{"query":"smoke snapshot qunit","k":3}' "$BASE/v1/search")
    echo "$OUT" | jsonget 'd["results"][0]["id"]' | grep -qx 'movie-cast:smoke snapshot qunit' || fail "live search after add: $OUT"

    echo "smoke: SIGTERM writes the snapshot"
    stop_server
    grep -q "snapshot written" "$LOG" || fail "no snapshot-written log line"
    [ -s "$SNAP" ] || fail "snapshot file missing or empty"

    echo "smoke: restarting from the snapshot"
    start_server -snapshot "$SNAP"
    grep -q "loaded from snapshot" "$LOG" || fail "server did not load the snapshot"

    echo "smoke: added instance survived the restart"
    OUT=$(curl -fsS -d '{"query":"smoke snapshot qunit","k":3}' "$BASE/v1/search")
    echo "$OUT" | jsonget 'd["results"][0]["id"]' | grep -qx 'movie-cast:smoke snapshot qunit' || fail "search after restart: $OUT"
    OUT=$(curl -fsS "$BASE/v1/instances/movie-cast:smoke%20snapshot%20qunit")
    echo "$OUT" | jsonget 'd["definition"]' | grep -qx movie-cast || fail "instance fetch after restart: $OUT"

    echo "smoke: DELETE /v1/instances/{id}"
    OUT=$(curl -fsS -X DELETE "$BASE/v1/instances/movie-cast:smoke%20snapshot%20qunit")
    echo "$OUT" | jsonget 'd["id"]' | grep -qx 'movie-cast:smoke snapshot qunit' || fail "instance delete: $OUT"
    OUT=$(curl -fsS -d '{"query":"smoke snapshot qunit","k":3}' "$BASE/v1/search")
    echo "$OUT" | jsonget '[r["id"] for r in d["results"]].count("movie-cast:smoke snapshot qunit")' | grep -qx 0 || fail "deleted instance still served: $OUT"

    stop_server
fi

if [ "$MODE" = "mmap" ] || [ "$MODE" = "all" ]; then
    # The mmap flow proves the tentpole end to end: build a snapshot of
    # a synth corpus, reboot from it with and without -mmap, and require
    # (a) the mapped path actually engages, (b) scrubbed /v1/search
    # bytes are identical between the copying and mapped engines, and
    # (c) the mapped boot is O(snapshot-load), far below the fresh
    # build — the page-in work the mapping defers. The cache is off so
    # every diffed response really comes from the engine.
    MFLAGS="-instances 8000 -cache -1"
    rm -f "$SNAP" # the snapshot flow may have left its (smaller) snapshot here

    echo "smoke: fresh build on an 8000-instance synth corpus (writes snapshot)"
    # shellcheck disable=SC2086
    start_server -snapshot "$SNAP" $MFLAGS
    BUILD_SECS=$(boot_secs "engine ready in") || fail "no engine-ready log line"
    stop_server
    grep -q "snapshot written" "$LOG" || fail "no snapshot-written log line"
    [ -s "$SNAP" ] || fail "snapshot file missing or empty"

    mmap_probe() {
        curl -fsS -d '{"query":"star wars cast","k":5}' "$BASE/v1/search" | scrub &&
        curl -fsS -d '{"query":"george clooney","k":10,"explain":true}' "$BASE/v1/search" | scrub &&
        curl -fsS -d '{"queries":[{"query":"star wars","k":4},{"query":"summary keywords","k":3}]}' "$BASE/v1/search" | scrub
    }

    echo "smoke: copying restart from the snapshot"
    # shellcheck disable=SC2086
    start_server -snapshot "$SNAP" $MFLAGS
    grep -q "loaded from snapshot" "$LOG" || fail "copying restart did not load the snapshot"
    COPY_OUT=$(mmap_probe) || fail "copying-engine probe searches failed"
    stop_server

    echo "smoke: mapped restart from the snapshot (-mmap)"
    # shellcheck disable=SC2086
    start_server -snapshot "$SNAP" $MFLAGS -mmap
    grep -q "loaded from mapped snapshot" "$LOG" || fail "-mmap did not take the mapped path"
    MAP_SECS=$(boot_secs "loaded from mapped snapshot") || fail "no mapped-boot log line"

    echo "smoke: mapped engine serves byte-identical search responses"
    MAP_OUT=$(mmap_probe) || fail "mapped-engine probe searches failed"
    [ "$COPY_OUT" = "$MAP_OUT" ] || fail "mapped responses differ from copying responses
copy: $COPY_OUT
mmap: $MAP_OUT"

    echo "smoke: mapped engine accepts live mutations (copy-on-write)"
    OUT=$(curl -fsS -d '{"definition":"movie-cast","anchor":"mmap smoke qunit"}' "$BASE/v1/instances")
    echo "$OUT" | jsonget 'd["id"]' | grep -qx 'movie-cast:mmap smoke qunit' || fail "instance create on mapped engine: $OUT"
    OUT=$(curl -fsS -d '{"query":"mmap smoke qunit","k":3}' "$BASE/v1/search")
    echo "$OUT" | jsonget 'd["results"][0]["id"]' | grep -qx 'movie-cast:mmap smoke qunit' || fail "search after add on mapped engine: $OUT"
    stop_server

    # The O(1)-boot gate: a mapped boot skips derivation, indexing, and
    # the posting-blob copy, so it must come in well under the fresh
    # build of the same corpus (typical ratio is ~0.45 at this scale,
    # where per-instance metadata decode dominates; the blob-copy
    # saving grows with the corpus). The 0.7 bound catches the mapped
    # path silently degrading into a rebuild, not CI jitter.
    echo "smoke: mapped boot ${MAP_SECS}s vs fresh build ${BUILD_SECS}s"
    awk -v m="$MAP_SECS" -v b="$BUILD_SECS" 'BEGIN { exit (m + 0 < b * 0.7) ? 0 : 1 }' \
        || fail "mapped boot ${MAP_SECS}s is not well under the fresh build ${BUILD_SECS}s"
fi

if [ "$MODE" = "compact" ] || [ "$MODE" = "all" ]; then
    echo "smoke: starting qunitsd with -compact-ratio"
    start_server -compact-ratio 0.5

    echo "smoke: accumulating tombstones over /v1/instances"
    for i in 1 2 3 4; do
        curl -fsS -d "{\"definition\":\"movie-cast\",\"anchor\":\"compact smoke qunit $i\"}" "$BASE/v1/instances" >/dev/null || fail "instance create $i"
    done
    for i in 1 2 3; do
        curl -fsS -X DELETE "$BASE/v1/instances/movie-cast:compact%20smoke%20qunit%20$i" >/dev/null || fail "instance delete $i"
    done
    OUT=$(curl -fsS "$BASE/stats")
    echo "$OUT" | jsonget 'd["index_tombstones"] >= 3' | grep -qx True || fail "tombstones not accumulated: $OUT"

    BEFORE=$(curl -fsS -d '{"query":"star wars cast","k":3}' "$BASE/v1/search" | jsonget 'd["results"][0]["id"]')

    echo "smoke: POST /v1/compact under live search load"
    FAILMARK="$LOG.searchfail"
    rm -f "$FAILMARK"
    ( i=0; while [ "$i" -lt 40 ]; do
          # A fresh query text each iteration: distinct cache keys, so
          # every request really reaches the engine while the pass runs
          # (a repeated query would be served from the result cache and
          # prove nothing about search availability).
          curl -fsS -d "{\"query\":\"star wars cast $i\",\"k\":3}" "$BASE/v1/search" >/dev/null 2>&1 || { touch "$FAILMARK"; break; }
          i=$((i + 1))
      done ) &
    LOADPID=$!
    OUT=$(curl -fsS -X POST "$BASE/v1/compact")
    echo "$OUT" | jsonget 'd["reclaimed_slots"] >= 3' | grep -qx True || fail "compact reclaimed too little: $OUT"
    wait "$LOADPID"
    [ ! -e "$FAILMARK" ] || fail "a search failed while compaction ran"

    OUT=$(curl -fsS "$BASE/stats")
    echo "$OUT" | jsonget 'd["index_tombstones"]' | grep -qx 0 || fail "tombstones survived compaction: $OUT"
    echo "$OUT" | jsonget 'd["compactions"] >= 1' | grep -qx True || fail "compaction counter missing: $OUT"
    echo "$OUT" | jsonget 'd["slots_reclaimed"] >= 3' | grep -qx True || fail "reclaimed counter missing: $OUT"

    echo "smoke: results unchanged across compaction"
    AFTER=$(curl -fsS -d '{"query":"star wars cast","k":3}' "$BASE/v1/search" | jsonget 'd["results"][0]["id"]')
    [ "$BEFORE" = "$AFTER" ] || fail "top result changed across compaction: $BEFORE vs $AFTER"

    echo "smoke: surviving live-added instance still served after compaction"
    OUT=$(curl -fsS -d '{"query":"compact smoke qunit","k":5}' "$BASE/v1/search")
    echo "$OUT" | jsonget '[r["id"] for r in d["results"]].count("movie-cast:compact smoke qunit 4")' | grep -qx 1 || fail "survivor lost across compaction: $OUT"

    stop_server
fi

if [ "$MODE" = "cluster" ] || [ "$MODE" = "all" ]; then
    # Four nodes: a single-node control plus a 2-partition cluster
    # (primary + WAL follower) behind a coordinator. All engine nodes
    # share the universe seed and shard geometry, and every node runs
    # with the result cache off so the scrubbed /v1 bytes can be diffed
    # directly (a cache hit flips the "cached" field).
    CLOGS="$(mktemp -d)"
    CWAL="$CLOGS/mutations.wal"
    SBASE="http://127.0.0.1:$SPORT"; COBASE="http://127.0.0.1:$COPORT"
    GEN="-persons 120 -movies 80 -shards 4 -cache -1"
    CPIDS=""

    cluster_fail() {
        echo "smoke: FAIL: $1" >&2
        for f in "$CLOGS"/*.log; do
            echo "--- $f ---" >&2
            cat "$f" >&2
        done
        exit 1
    }

    # start_node NAME PORT FLAGS…: boot one cluster node, wait for
    # /healthz, remember its pid for cleanup.
    start_node() {
        name=$1; port=$2; shift 2
        # shellcheck disable=SC2086
        "$BIN" -addr "127.0.0.1:$port" $GEN "$@" >"$CLOGS/$name.log" 2>&1 &
        CPIDS="$CPIDS $!"
        i=0
        until curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            [ "$i" -gt 100 ] && cluster_fail "$name did not become healthy"
            sleep 0.2
        done
    }

    # diff_post LABEL SINGLE_URL CLUSTER_URL BODY: drive one POST
    # through both stacks and require identical scrubbed bytes.
    diff_post() {
        label=$1; su=$2; cu=$3; body=$4
        s_out=$(curl -sS -d "$body" "$su" | scrub) || cluster_fail "$label: single-node request failed"
        c_out=$(curl -sS -d "$body" "$cu" | scrub) || cluster_fail "$label: cluster request failed"
        [ "$s_out" = "$c_out" ] || cluster_fail "$label: responses differ
single:  $s_out
cluster: $c_out"
    }

    diff_search() {
        diff_post "search $1" "$SBASE/v1/search" "$COBASE/v1/search" "$1"
    }

    # wait_converged: poll the coordinator's topology until every
    # partition reports lag 0 (the follower has replayed the WAL).
    wait_converged() {
        i=0
        until curl -fsS "$COBASE/v1/cluster" | jsonget 'max(p["lag"] for p in d["partitions"])' | grep -qx 0; do
            i=$((i + 1))
            [ "$i" -gt 100 ] && cluster_fail "followers did not converge"
            sleep 0.1
        done
    }

    echo "smoke: starting single-node control on :$SPORT"
    start_node single "$SPORT"
    echo "smoke: starting partition 0 (primary) on :$P0PORT"
    start_node part0 "$P0PORT" -mode partition -partition-index 0 -partition-count 2 -wal "$CWAL"
    echo "smoke: starting partition 1 (follower) on :$P1PORT"
    start_node part1 "$P1PORT" -mode partition -partition-index 1 -partition-count 2 -wal "$CWAL" -wal-follow -wal-poll 100ms
    echo "smoke: starting coordinator on :$COPORT"
    start_node coord "$COPORT" -mode coordinator -partitions "http://127.0.0.1:$P0PORT,http://127.0.0.1:$P1PORT"

    echo "smoke: GET /v1/cluster (topology)"
    OUT=$(curl -fsS "$COBASE/v1/cluster")
    echo "$OUT" | jsonget 'd["role"]' | grep -qx coordinator || cluster_fail "coordinator role: $OUT"
    echo "$OUT" | jsonget 'len(d["partitions"])' | grep -qx 2 || cluster_fail "partition count: $OUT"
    echo "$OUT" | jsonget 'all(p["healthy"] for p in d["partitions"])' | grep -qx True || cluster_fail "unhealthy partition: $OUT"
    echo "$OUT" | jsonget '[p["accepts_mutations"] for p in d["partitions"]]' | grep -qx '\[True, False\]' || cluster_fail "primary flag: $OUT"

    echo "smoke: scatter-gather searches match the single node byte for byte"
    diff_search '{"query":"star wars cast","k":5}'
    diff_search '{"query":"star wars cast","k":3,"explain":true}'
    diff_search '{"query":"george clooney","k":10,"offset":2}'
    diff_search '{"query":"star wars","k":5,"filter":{"anchor_types":["movie.title"]}}'
    diff_search '{"queries":[{"query":"star wars cast","k":4},{"query":""},{"query":"george clooney","k":2,"explain":true}]}'
    diff_search '{"query":"x","filter":{"definitions":["nope"]}}'

    echo "smoke: mutations through the primary replicate to the follower"
    diff_post "instance add" "$SBASE/v1/instances" "http://127.0.0.1:$P0PORT/v1/instances" \
        '{"definition":"movie-cast","anchor":"zz cluster smoke"}'
    diff_post "feedback" "$SBASE/v1/feedback" "http://127.0.0.1:$P0PORT/v1/feedback" \
        '{"instance_id":"movie-cast:zz cluster smoke","positive":true}'
    wait_converged
    diff_search '{"query":"zz cluster smoke","k":3}'

    echo "smoke: WAL-logged compaction keeps the replicas in step"
    S_OUT=$(curl -fsS -X POST "$SBASE/v1/compact" | scrub)
    C_OUT=$(curl -fsS -X POST "http://127.0.0.1:$P0PORT/v1/compact" | scrub)
    [ "$S_OUT" = "$C_OUT" ] || cluster_fail "compact responses differ
single:  $S_OUT
cluster: $C_OUT"
    wait_converged
    diff_search '{"query":"star wars cast","k":5}'
    diff_search '{"query":"zz cluster smoke","k":3}'

    echo "smoke: non-primary nodes refuse mutations"
    OUT=$(curl -sS -d '{"definition":"movie-cast","anchor":"zz nope"}' "$COBASE/v1/instances")
    echo "$OUT" | jsonget 'd["error"]["code"]' | grep -qx not_supported || cluster_fail "coordinator accepted a mutation: $OUT"
    OUT=$(curl -sS -d '{"definition":"movie-cast","anchor":"zz nope"}' "http://127.0.0.1:$P1PORT/v1/instances")
    echo "$OUT" | jsonget 'd["error"]["code"]' | grep -qx not_supported || cluster_fail "follower accepted a mutation: $OUT"

    for p in $CPIDS; do kill -TERM "$p" 2>/dev/null || true; done
    for p in $CPIDS; do
        i=0
        while kill -0 "$p" 2>/dev/null; do
            i=$((i + 1))
            [ "$i" -gt 100 ] && cluster_fail "cluster node $p did not drain after SIGTERM"
            sleep 0.1
        done
        wait "$p" 2>/dev/null || true
    done
    CPIDS=""
fi

if [ "$MODE" = "eval" ] || [ "$MODE" = "all" ]; then
    EVBIN="$BINDIR/eval"
    EVDIR="$(mktemp -d)"
    echo "smoke: building cmd/eval"
    go build -o "$EVBIN" ./cmd/eval

    # Offline leg: a fresh in-process engine rebuilt from the golden
    # header's corpus recipe.
    echo "smoke: offline relevance gate (committed imdb golden set)"
    "$EVBIN" -golden imdb -json "$EVDIR/offline.json" || fail "offline relevance gate failed"

    # Online leg: the same golden set through a running qunitsd — the
    # server's defaults (seed 1, 120 persons, 80 movies, expert
    # derivation) are exactly the committed set's corpus recipe.
    echo "smoke: starting qunitsd on the golden corpus (:$PORT)"
    BASE="http://127.0.0.1:$PORT"
    start_server
    echo "smoke: online relevance gate over POST /v1/search"
    "$EVBIN" -golden imdb -online -addr "$BASE" -json "$EVDIR/online.json" || fail "online relevance gate failed"
    stop_server

    # Serving is parity-locked end to end, so the measurement must not
    # change with the transport: byte-identical reports or bust.
    cmp -s "$EVDIR/offline.json" "$EVDIR/online.json" || {
        diff "$EVDIR/offline.json" "$EVDIR/online.json" >&2 || true
        fail "online eval report differs from offline report"
    }
    echo "smoke: online and offline eval reports are byte-identical"

    # EVAL_JSON exports the report for the CI artifact upload.
    if [ -n "${EVAL_JSON:-}" ]; then
        cp "$EVDIR/online.json" "$EVAL_JSON"
        echo "smoke: wrote $EVAL_JSON"
    fi
fi

echo "smoke: PASS"
