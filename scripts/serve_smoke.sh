#!/bin/sh
# serve_smoke.sh — boot tempod on an ephemeral port and exercise every
# surface once: /healthz, a consistency check, a streaming TAG session
# (create, feed, poll, close), a mining job to completion, /metrics, and a
# clean SIGTERM drain; then a restart on the same state directory must
# restore the open session and the done job byte-identical and drain clean
# again. `make serve-smoke` runs this; check.sh includes it.
set -eu
cd "$(dirname "$0")/.."

CURL="curl -sS --max-time 30"
DATA=$(mktemp -d)
LOG="$DATA/tempod.log"
PID=""

# cleanup asks the daemon to drain, waits for it to die (escalating to
# SIGKILL if it will not), and only then removes the state directory — a
# bare `kill; rm -rf` can yank the directory out from under a daemon that
# is still checkpointing its drain.
cleanup() {
	if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
		kill -TERM "$PID" 2>/dev/null || true
		i=0
		while kill -0 "$PID" 2>/dev/null && [ $i -lt 50 ]; do
			i=$((i + 1))
			sleep 0.1
		done
		kill -KILL "$PID" 2>/dev/null || true
		wait "$PID" 2>/dev/null || true
	fi
	rm -rf "$DATA"
}
trap cleanup EXIT INT TERM

# start boots tempod on $DATA/state, logging to $LOG, and scrapes BASE from
# its "tempod listening on http://..." line.
start() {
	"$DATA/tempod" -addr 127.0.0.1:0 -data "$DATA/state" >"$LOG" 2>&1 &
	PID=$!
	BASE=""
	i=0
	while [ $i -lt 100 ]; do
		BASE=$(awk '/tempod listening on /{print $4; exit}' "$LOG" 2>/dev/null || true)
		[ -n "$BASE" ] && break
		kill -0 "$PID" 2>/dev/null || { echo "tempod died:" >&2; cat "$LOG" >&2; exit 1; }
		i=$((i + 1))
		sleep 0.1
	done
	[ -n "$BASE" ] || { echo "tempod never reported its address" >&2; cat "$LOG" >&2; exit 1; }
	echo ">> tempod at $BASE (pid $PID)"
}

# drain sends SIGTERM and requires a clean exit through the drain path.
drain() {
	kill -TERM "$PID"
	i=0
	while kill -0 "$PID" 2>/dev/null; do
		i=$((i + 1))
		[ $i -gt 100 ] && { echo "tempod did not exit" >&2; cat "$LOG" >&2; exit 1; }
		sleep 0.1
	done
	wait "$PID" || { echo "tempod exited non-zero" >&2; cat "$LOG" >&2; exit 1; }
	PID=""
	grep -q 'tempod recovery:' "$LOG"
	grep -q 'tempod draining' "$LOG"
	grep -q 'tempod stopped' "$LOG"
}

go build -o "$DATA/tempod" ./cmd/tempod
start

echo '>> GET /healthz'
$CURL "$BASE/healthz" | grep -q '"status": "ok"'

echo '>> POST /v1/check'
printf '{"spec":%s}' "$(cat testdata/example1.json)" |
	$CURL -X POST --data-binary @- "$BASE/v1/check" | grep -q '"consistent"'

echo '>> streaming session: create, feed, poll, close'
SID=$($CURL -X POST --data-binary \
	'{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}}}' \
	"$BASE/v1/tag/sessions" | awk -F'"' '/"id"/{print $4; exit}')
[ -n "$SID" ] || { echo "no session id" >&2; exit 1; }
$CURL -X POST --data-binary \
	'{"events":[{"time":6185159083,"type":"a"},{"time":6185162683,"type":"b"}]}' \
	"$BASE/v1/tag/sessions/$SID/events" | grep -q '"accepted"'
$CURL "$BASE/v1/tag/sessions/$SID" | grep -q "\"id\": \"$SID\""
$CURL -X DELETE "$BASE/v1/tag/sessions/$SID" | grep -q '"closed": true'

echo '>> mining job: submit, poll to done'
EVENTS=$(awk '!/^#/ && NF>=2 {printf "%s{\"time\":%s,\"type\":\"%s\"}", sep, $1, $2; sep=","}' testdata/plant45.txt)
JID=$(printf '{"problem":%s,"events":[%s]}' "$(cat testdata/cascade_problem.json)" "$EVENTS" |
	$CURL -X POST --data-binary @- "$BASE/v1/mining/jobs" | awk -F'"' '/"id"/{print $4; exit}')
[ -n "$JID" ] || { echo "no job id" >&2; exit 1; }
i=0
STATE=""
while [ $i -lt 100 ]; do
	STATE=$($CURL "$BASE/v1/mining/jobs/$JID" | awk -F'"' '/"state"/{print $4; exit}')
	[ "$STATE" = "done" ] && break
	[ "$STATE" = "failed" ] && { echo "mining job failed" >&2; $CURL "$BASE/v1/mining/jobs/$JID" >&2; exit 1; }
	i=$((i + 1))
	sleep 0.1
done
[ "$STATE" = "done" ] || { echo "mining job stuck in state '$STATE'" >&2; exit 1; }
$CURL "$BASE/v1/mining/jobs/$JID" | grep -q '"discoveries"'

echo '>> second session: create, feed one event, keep open'
SID2=$($CURL -X POST --data-binary \
	'{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}}}' \
	"$BASE/v1/tag/sessions" | awk -F'"' '/"id"/{print $4; exit}')
[ -n "$SID2" ] || { echo "no session id" >&2; exit 1; }
$CURL -X POST --data-binary '{"events":[{"time":6185159083,"type":"a"}]}' \
	"$BASE/v1/tag/sessions/$SID2/events" | grep -q '"events": 1'
$CURL "$BASE/v1/tag/sessions/$SID2" >"$DATA/session.before"
$CURL "$BASE/v1/mining/jobs/$JID" >"$DATA/job.before"

echo '>> GET /metrics'
$CURL "$BASE/metrics" | grep -q '^tempo_counter_total{name="server.requests.check"} 1$'

echo '>> SIGTERM drain'
drain
ls "$DATA/state/sessions" >/dev/null

echo '>> restart on the same state directory'
start
grep -q 'restored 1 session(s) .* and 1 job(s)' "$LOG" || { echo "unexpected recovery:" >&2; cat "$LOG" >&2; exit 1; }
$CURL "$BASE/v1/tag/sessions/$SID2" | cmp -s - "$DATA/session.before" || { echo "session $SID2 differs after the restart" >&2; exit 1; }
$CURL "$BASE/v1/mining/jobs/$JID" | cmp -s - "$DATA/job.before" || { echo "job $JID differs after the restart" >&2; exit 1; }

echo '>> second SIGTERM drain'
drain

grep "tempod recovery:" "$LOG"
echo 'serve-smoke: OK'
