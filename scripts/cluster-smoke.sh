#!/usr/bin/env sh
# Cluster smoke against real processes, run in CI's chaos-short job:
#
#   1. boot a coordinator in front of 2 workers and a single-process
#      reference server
#   2. drive the same batch through the cluster edge and assert the
#      NDJSON line set is byte-identical to the single process
#      (order-insensitive: lines stream in completion order), that the
#      ?format=sarif batch has the single process's sha256, and that a
#      traceparent sent to the edge finds the request on the edge's
#      /debug/requests
#   3. boot a second fleet with injected per-analysis latency, kill
#      both workers mid-batch, and assert the edge stream still
#      carries one well-formed line per file, with the unfinished
#      files flagged as status "error" naming the lost worker —
#      degraded visibly, never silently short or corrupt
#   4. boot a worker with -cache-dir behind a coordinator, analyze a
#      file with a real use-after-free, forge a zero-warning cache
#      envelope for its key (valid checksum and all) and PUT it to the
#      edge and to the worker: neither may answer 2xx. After a SIGTERM
#      and a reboot over the same cache directory, the edge must still
#      serve the first answer byte for byte — no client can plant a
#      report in a worker's cache
#
# Run via `make cluster-smoke`. Requires curl, jq and sha256sum. See
# docs/CLUSTER.md.
set -eu

for tool in curl jq sha256sum; do
	command -v "$tool" >/dev/null 2>&1 || {
		echo "cluster-smoke: $tool not installed" >&2
		exit 1
	}
done

FILES=${FILES:-16}
KILL_DELAY=${KILL_DELAY:-300ms}
WORK=$(mktemp -d)
PIDS=""
cleanup() {
	for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building uafserve"
go build -o "$WORK/uafserve" ./cmd/uafserve

# boot LOG [flags...]: start uafserve on an ephemeral port and wait for
# its address announcement. Sets BOOT_PID and BOOT_ADDR.
boot() {
	log=$1
	shift
	GOMAXPROCS=1 "$WORK/uafserve" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
	BOOT_PID=$!
	PIDS="$PIDS $BOOT_PID"
	BOOT_ADDR=""
	for _ in $(seq 1 100); do
		BOOT_ADDR=$(sed -n 's/^uafserve: listening on //p' "$log" | head -n1)
		[ -n "$BOOT_ADDR" ] && break
		sleep 0.1
	done
	[ -n "$BOOT_ADDR" ] || {
		echo "cluster-smoke: server did not start" >&2
		cat "$log" >&2
		exit 1
	}
}

# The batch: FILES distinct single-proc sources, each with a genuine
# fire-and-forget use-after-free so every line carries a real warning.
jq -n --argjson n "$FILES" '{files: [range(0; $n) | {
	name: "smoke-\(.).chpl",
	src: "proc smokeCase\(.)() {\n  var x: int = \(.);\n  begin with (ref x) {\n    x += 1;\n  }\n}\n"
}]}' >"$WORK/req.json"

# ---- phase 1: byte-identity through the edge -------------------------

boot "$WORK/single.log" -inflight 1
SINGLE=$BOOT_ADDR
boot "$WORK/w0.log" -mode worker -inflight 1
W0=$BOOT_ADDR
boot "$WORK/w1.log" -mode worker -inflight 1
W1=$BOOT_ADDR
boot "$WORK/coord.log" -mode coordinator -probe-interval 500ms \
	-workers "worker-0=http://$W0,worker-1=http://$W1"
COORD=$BOOT_ADDR
echo "cluster-smoke: single on $SINGLE, coordinator on $COORD (workers $W0, $W1)"

curl -sf "http://$SINGLE/v1/analyze-batch" -d @"$WORK/req.json" | sort >"$WORK/single.sorted"
curl -sf "http://$COORD/v1/analyze-batch" -d @"$WORK/req.json" | sort >"$WORK/cluster.sorted"
if ! cmp -s "$WORK/single.sorted" "$WORK/cluster.sorted"; then
	echo "cluster-smoke: FAIL — cluster batch differs from single process:" >&2
	diff "$WORK/single.sorted" "$WORK/cluster.sorted" >&2 || true
	exit 1
fi
LINES=$(wc -l <"$WORK/cluster.sorted")
[ "$LINES" -eq "$FILES" ] || {
	echo "cluster-smoke: FAIL — $LINES lines for $FILES files" >&2
	exit 1
}
echo "cluster-smoke: edge batch byte-identical to single process ($LINES lines)"

# SARIF is one aggregate document: the edge must negotiate it from the
# query string exactly like a single process does.
SUM_SINGLE=$(curl -sf "http://$SINGLE/v1/analyze-batch?format=sarif" -d @"$WORK/req.json" | sha256sum)
SUM_CLUSTER=$(curl -sf "http://$COORD/v1/analyze-batch?format=sarif" -d @"$WORK/req.json" | sha256sum)
[ "$SUM_SINGLE" = "$SUM_CLUSTER" ] || {
	echo "cluster-smoke: FAIL — ?format=sarif batch through the edge differs from single process" >&2
	exit 1
}
echo "cluster-smoke: edge ?format=sarif batch has the single-process sha256"

# The edge is an observed hop: its flight recorder keeps the request
# under the caller's trace ID.
TRACE=4bf92f3577b34da6a3ce929d0e0e4736
curl -sf -H "traceparent: 00-$TRACE-00f067aa0ba902b7-01" \
	"http://$COORD/v1/analyze-batch" -d @"$WORK/req.json" >/dev/null
ROUTE=$(curl -sf "http://$COORD/debug/requests?trace=$TRACE" | jq -r '.route') || ROUTE=""
[ "$ROUTE" = "/v1/analyze-batch" ] || {
	echo "cluster-smoke: FAIL — trace $TRACE not on the edge's /debug/requests (route '$ROUTE')" >&2
	exit 1
}
echo "cluster-smoke: edge /debug/requests holds trace $TRACE ($ROUTE)"

# ---- phase 2: kill the workers mid-batch -----------------------------

boot "$WORK/kw0.log" -mode worker -inflight 1 -faults "analysis.delay=delay:1:0:$KILL_DELAY"
KW0=$BOOT_ADDR
KW0_PID=$BOOT_PID
boot "$WORK/kw1.log" -mode worker -inflight 1 -faults "analysis.delay=delay:1:0:$KILL_DELAY"
KW1=$BOOT_ADDR
KW1_PID=$BOOT_PID
boot "$WORK/kcoord.log" -mode coordinator -probe-interval 500ms \
	-workers "worker-0=http://$KW0,worker-1=http://$KW1"
KCOORD=$BOOT_ADDR

# With FILES x KILL_DELAY spread over two one-slot workers the batch
# needs several seconds; killing at ~1s lands mid-stream.
curl -s "http://$KCOORD/v1/analyze-batch" -d @"$WORK/req.json" >"$WORK/killed.ndjson" &
CURL_PID=$!
sleep 1
kill -9 "$KW0_PID" "$KW1_PID"
echo "cluster-smoke: killed both workers mid-batch"
wait "$CURL_PID"

KLINES=$(jq -rs 'length' "$WORK/killed.ndjson") || {
	echo "cluster-smoke: FAIL — edge relayed malformed NDJSON after worker kill" >&2
	cat "$WORK/killed.ndjson" >&2
	exit 1
}
KNAMES=$(jq -rs '[.[].name] | unique | length' "$WORK/killed.ndjson")
ERRORS=$(jq -rs '[.[] | select(.status == "error")] | length' "$WORK/killed.ndjson")
FLAGGED=$(jq -rs '[.[] | select(.status == "error")
	| select(.error | test("worker lost|no worker reachable|unreachable"))] | length' \
	"$WORK/killed.ndjson")
echo "cluster-smoke: after kill: $KLINES lines, $KNAMES distinct files, $ERRORS error-flagged ($FLAGGED naming the lost worker)"
[ "$KLINES" -eq "$FILES" ] || {
	echo "cluster-smoke: FAIL — stream silently short: $KLINES lines for $FILES files" >&2
	exit 1
}
[ "$KNAMES" -eq "$FILES" ] || {
	echo "cluster-smoke: FAIL — some files got no line at all" >&2
	exit 1
}
[ "$ERRORS" -ge 1 ] || {
	echo "cluster-smoke: FAIL — workers died mid-batch but no line was degraded-flagged" >&2
	exit 1
}
[ "$FLAGGED" -eq "$ERRORS" ] || {
	echo "cluster-smoke: FAIL — error lines do not name the lost worker" >&2
	exit 1
}

# ---- phase 3: no client can plant a cache entry ------------------------

CACHE="$WORK/cache"
boot "$WORK/cw.log" -mode worker -inflight 1 -cache-dir "$CACHE"
CW=$BOOT_ADDR
CW_PID=$BOOT_PID
boot "$WORK/ccoord.log" -mode coordinator -probe-interval 200ms \
	-workers "worker-0=http://$CW"
CCOORD=$BOOT_ADDR

jq -n --rawfile src testdata/figure1.chpl '{name: "figure1.chpl", src: $src}' >"$WORK/fig1.json"
curl -sf "http://$CCOORD/v1/analyze" -d @"$WORK/fig1.json" >"$WORK/first.json"
WARNS=$(jq '.report.warnings | length' "$WORK/first.json")
[ "$WARNS" -ge 1 ] || {
	echo "cluster-smoke: FAIL — figure1 answered without a warning" >&2
	exit 1
}

# The worker persists its report asynchronously; wait for the entry.
ENTRY=""
for _ in $(seq 1 50); do
	ENTRY=$(ls "$CACHE" 2>/dev/null | grep '\.json$' | head -n1 || true)
	[ -n "$ENTRY" ] && break
	sleep 0.1
done
[ -n "$ENTRY" ] || {
	echo "cluster-smoke: FAIL — no cache entry under $CACHE" >&2
	exit 1
}
KEY=${ENTRY%.json}

# Forge the envelope a hostile client would send: the same report with
# its warnings dropped, under a checksum that matches it.
tail -n +2 "$CACHE/$ENTRY" | jq -cj 'del(.warnings)' >"$WORK/forged.payload"
SUM=$(sha256sum "$WORK/forged.payload" | cut -d' ' -f1)
{ printf 'uafcache1 %s\n' "$SUM"; cat "$WORK/forged.payload"; } >"$WORK/forged.env"

for target in "$CCOORD" "$CW"; do
	CODE=$(curl -s -o /dev/null -w '%{http_code}' -X PUT \
		--data-binary @"$WORK/forged.env" "http://$target/v1/cache/$KEY")
	case $CODE in
	2*)
		echo "cluster-smoke: FAIL — PUT /v1/cache/$KEY on $target answered $CODE" >&2
		exit 1
		;;
	esac
	echo "cluster-smoke: forged PUT on $target answered $CODE"
done

kill -TERM "$CW_PID"
wait "$CW_PID" || {
	echo "cluster-smoke: FAIL — worker did not shut down cleanly" >&2
	cat "$WORK/cw.log" >&2
	exit 1
}
boot "$WORK/cw2.log" -mode worker -inflight 1 -cache-dir "$CACHE" -addr "$CW"

# The coordinator re-admits the worker on its next good probe.
for _ in $(seq 1 50); do
	curl -sf "http://$CCOORD/v1/analyze" -d @"$WORK/fig1.json" >"$WORK/second.json" && break
	sleep 0.2
done
if ! cmp -s "$WORK/first.json" "$WORK/second.json"; then
	echo "cluster-smoke: FAIL — re-analysis after restart differs from the first answer:" >&2
	diff "$WORK/first.json" "$WORK/second.json" >&2 || true
	exit 1
fi
echo "cluster-smoke: restart over the same cache dir serves the first answer ($WARNS warning(s))"

echo "cluster-smoke: OK — identity holds (NDJSON and SARIF), the edge records traces, a mid-batch worker kill degrades visibly, and no client can plant a cache entry"
