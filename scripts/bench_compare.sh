#!/bin/sh
# Parallel-scan benchmark gate.
#
# Runs the PR-3 benchmark quartet (E13 mining and TAG-batch, serial and
# 8-worker parallel), writes the measurements plus machine shape to
# BENCH_PR3.json, and — when a stored baseline exists — fails if any
# benchmark regressed more than 20% against it.
#
# Usage:
#   sh scripts/bench_compare.sh          # full run, regression gate
#   sh scripts/bench_compare.sh smoke    # -benchtime=1x, no gate (CI wiring)
#   sh scripts/bench_compare.sh baseline # full run, store the result as the
#                                        # baseline for future gates
#   sh scripts/bench_compare.sh pr6      # TAG step and conversion-table
#                                        # benchmarks; writes BENCH_PR6.json
#                                        # and gates the step ceiling
#                                        # (<=78826 ns/op) and the >=5x Fig-3
#                                        # cover speedup
#   sh scripts/bench_compare.sh pr6-smoke# short pr6 run; gates only the
#                                        # compiled core's allocs/op
#   sh scripts/bench_compare.sh pr7      # event-store append and recovery
#                                        # benchmarks; writes BENCH_PR7.json
#                                        # and gates the append path's
#                                        # allocs/op
#   sh scripts/bench_compare.sh pr7-smoke# short pr7 run, same alloc gate
#   sh scripts/bench_compare.sh pr8      # incremental-vs-batch mining
#                                        # benchmarks; writes BENCH_PR8.json
#                                        # and gates the no-rescan property
#                                        # (>=20x over a full re-mine)
#   sh scripts/bench_compare.sh pr8-smoke# short pr8 run, same gate
#   sh scripts/bench_compare.sh pr9      # cluster-tier benchmarks: router
#                                        # proxy overhead on /v1/check and a
#                                        # 10k-event session migration; writes
#                                        # BENCH_PR9.json and gates proxy
#                                        # overhead <=2x standalone plus the
#                                        # no-rescan migration property
#                                        # (replayed/op under the checkpoint
#                                        # stride)
#   sh scripts/bench_compare.sh pr9-smoke# short pr9 run; gates only the
#                                        # migration no-rescan property
#   sh scripts/bench_compare.sh pr10     # calendar-zoo tick resolution at
#                                        # 2026 (zoned / fiscal / trading
#                                        # families through System.Ticker;
#                                        # fiscal months also on direct
#                                        # calendar arithmetic); writes
#                                        # BENCH_PR10.json and gates the
#                                        # Ticker lookups at allocs/op == 0
#   sh scripts/bench_compare.sh pr10-smoke# short pr10 run, same alloc gate
#
# The baseline lives at scripts/bench_baseline_pr3.json and is only
# meaningful on the machine that produced it; regenerate it with `baseline`
# after hardware or toolchain changes.
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-full}"

# ---- PR-10: calendar-zoo tick resolution ---------------------------------
if [ "$MODE" = pr10 ] || [ "$MODE" = pr10-smoke ]; then
	OUT="BENCH_PR10.json"
	BENCHES='BenchmarkZonedDayTick|BenchmarkFiscalMonthTick|BenchmarkSessionTick'
	if [ "$MODE" = pr10-smoke ]; then
		BENCHTIME="${BENCHTIME:-100x}"
	else
		BENCHTIME="${BENCHTIME:-2s}"
	fi
	RAW="$(mktemp)"
	trap 'rm -f "$RAW"' EXIT
	echo ">> go test -run XXX -bench '$BENCHES' -benchtime=$BENCHTIME ."
	go test -run XXX -bench "$BENCHES" -benchtime="$BENCHTIME" -timeout 20m . | tee "$RAW"

	awk -v cores="$(nproc 2>/dev/null || echo 1)" '
	BEGIN { n = 0 }
	$1 ~ /^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)
		names[n] = name; ns[n] = $3; allocs[n] = ($8 == "allocs/op" ? $7 : -1); n++
	}
	END {
		printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
		for (i = 0; i < n; i++)
			printf "    \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}%s\n", names[i], ns[i], allocs[i], (i+1<n ? "," : "")
		printf "  }"
		for (i = 0; i < n; i++) v[names[i]] = ns[i]
		if (("BenchmarkFiscalMonthTickDirect" in v) && v["BenchmarkFiscalMonthTickTable"] > 0)
			printf ",\n  \"fiscal_tick_speedup\": %.3f", v["BenchmarkFiscalMonthTickDirect"] / v["BenchmarkFiscalMonthTickTable"]
		printf "\n}\n"
	}' "$RAW" > "$OUT"
	echo ">> wrote $OUT"
	cat "$OUT"

	# Alloc gate (both modes): every System.Ticker lookup must be
	# alloc-free — zero allocations per op. BenchmarkFiscalMonthTickDirect
	# is informational (it measures f-month's own TickOf).
	awk '
	$1 ~ /^Benchmark.*TickTable/ && $8 == "allocs/op" {
		found++
		if ($7 + 0 != 0) {
			printf "%s allocs/op %s != 0\n", $1, $7
			bad = 1
			next
		}
		printf "%s allocs/op: %s (gate: ==0)\n", $1, $7
	}
	END {
		if (found < 3) { print "zoo table-lookup benchmarks not found"; exit 1 }
		exit bad
	}
	' "$RAW" || { echo "bench_compare: FAILED (pr10 alloc gate)" >&2; exit 1; }
	echo "bench_compare: $MODE OK"
	exit 0
fi
# --------------------------------------------------------------------------

# ---- PR-9: router/worker cluster tier ------------------------------------
if [ "$MODE" = pr9 ] || [ "$MODE" = pr9-smoke ]; then
	OUT="BENCH_PR9.json"
	BENCHES='BenchmarkStandaloneCheck|BenchmarkRouterProxyCheck|BenchmarkSessionMigration10k'
	if [ "$MODE" = pr9-smoke ]; then
		BENCHTIME="${BENCHTIME:-5x}"
	else
		BENCHTIME="${BENCHTIME:-2s}"
	fi
	RAW="$(mktemp)"
	trap 'rm -f "$RAW"' EXIT
	echo ">> go test -run XXX -bench '$BENCHES' -benchtime=$BENCHTIME ."
	go test -run XXX -bench "$BENCHES" -benchtime="$BENCHTIME" -timeout 20m . | tee "$RAW"

	# The migration benchmark appends a custom "replayed/op" metric, which
	# shifts columns — scan tokens instead of assuming positions.
	awk -v cores="$(nproc 2>/dev/null || echo 1)" '
	BEGIN { n = 0; replayed = -1 }
	$1 ~ /^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)
		names[n] = name; ns[n] = $3; n++
		for (i = 5; i <= NF; i++)
			if ($i == "replayed/op") replayed = $(i-1) + 0
	}
	END {
		printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
		for (i = 0; i < n; i++)
			printf "    \"%s\": {\"ns_op\": %s}%s\n", names[i], ns[i], (i+1<n ? "," : "")
		printf "  }"
		for (i = 0; i < n; i++) v[names[i]] = ns[i]
		if (("BenchmarkRouterProxyCheck" in v) && v["BenchmarkStandaloneCheck"] > 0)
			printf ",\n  \"proxy_overhead\": %.3f", v["BenchmarkRouterProxyCheck"] / v["BenchmarkStandaloneCheck"]
		if (replayed >= 0)
			printf ",\n  \"migration_replayed_per_op\": %.3f", replayed
		printf "\n}\n"
	}' "$RAW" > "$OUT"
	echo ">> wrote $OUT"
	cat "$OUT"

	# No-rescan gate (both modes): importing a migrated 10k-event session
	# must restore from the strided checkpoint and replay only the log tail
	# behind it — under CheckpointEvery (8) events per op. A full log rescan
	# on import would report ~10000.
	awk '
	$1 == "\"migration_replayed_per_op\":" { gsub(/,/, "", $2); replayed = $2 + 0; found = 1 }
	END {
		if (!found) { print "migration replayed/op not measured (benchmark missing)"; exit 1 }
		if (replayed >= 8.0) { printf "migration replays %.1f events/op >= checkpoint stride 8\n", replayed; exit 1 }
		printf "migration replayed/op: %.3f (gate: < 8, full rescan would be ~10000)\n", replayed
	}' "$OUT" || { echo "bench_compare: FAILED (pr9 no-rescan gate)" >&2; exit 1; }

	if [ "$MODE" = pr9-smoke ]; then
		echo "bench_compare: pr9-smoke OK (no-rescan gate only)"
		exit 0
	fi

	# Proxy-overhead gate (full mode only; too noisy at smoke iteration
	# counts): a routed /v1/check pays two HTTP hops instead of one and must
	# stay within 2x of the direct worker call.
	awk '
	$1 == "\"proxy_overhead\":" { gsub(/,/, "", $2); overhead = $2 + 0; found = 1 }
	END {
		if (!found) { print "proxy overhead not computed (benchmarks missing)"; exit 1 }
		if (overhead > 2.0) { printf "router proxy overhead %.2fx > 2x standalone\n", overhead; exit 1 }
		printf "router proxy overhead: %.2fx (gate: <=2x)\n", overhead
	}' "$OUT" || { echo "bench_compare: FAILED (pr9 proxy gate)" >&2; exit 1; }
	echo "bench_compare: pr9 OK"
	exit 0
fi
# --------------------------------------------------------------------------

# ---- PR-8: incremental mining over the event store -----------------------
if [ "$MODE" = pr8 ] || [ "$MODE" = pr8-smoke ]; then
	OUT="BENCH_PR8.json"
	BENCHES='BenchmarkIncrementalAppend100k|BenchmarkBatchRemine100k'
	if [ "$MODE" = pr8-smoke ]; then
		BENCHTIME="${BENCHTIME:-5x}"
	else
		BENCHTIME="${BENCHTIME:-2s}"
	fi
	RAW="$(mktemp)"
	trap 'rm -f "$RAW"' EXIT
	echo ">> go test -run XXX -bench '$BENCHES' -benchtime=$BENCHTIME ."
	go test -run XXX -bench "$BENCHES" -benchtime="$BENCHTIME" -timeout 20m . | tee "$RAW"

	awk -v cores="$(nproc 2>/dev/null || echo 1)" '
	BEGIN { n = 0 }
	$1 ~ /^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)
		names[n] = name; ns[n] = $3; allocs[n] = ($8 == "allocs/op" ? $7 : -1); n++
	}
	END {
		printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
		for (i = 0; i < n; i++)
			printf "    \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}%s\n", names[i], ns[i], allocs[i], (i+1<n ? "," : "")
		printf "  }"
		for (i = 0; i < n; i++) v[names[i]] = ns[i]
		if (("BenchmarkBatchRemine100k" in v) && v["BenchmarkIncrementalAppend100k"] > 0)
			printf ",\n  \"incremental_speedup\": %.3f", v["BenchmarkBatchRemine100k"] / v["BenchmarkIncrementalAppend100k"]
		printf "\n}\n"
	}' "$RAW" > "$OUT"
	echo ">> wrote $OUT"
	cat "$OUT"

	# No-rescan gate (both modes): appending one event to a 100k-event
	# stream must beat a full batch re-mine by >=20x. The measured margin is
	# ~3 orders of magnitude; 20x only fails if the incremental miner starts
	# walking history on append or snapshot.
	awk '
	$1 == "\"incremental_speedup\":" { gsub(/,/, "", $2); speedup = $2 + 0; found = 1 }
	END {
		if (!found) { print "incremental speedup not computed (benchmarks missing)"; exit 1 }
		if (speedup < 20.0) { printf "incremental append %.2fx over batch < 20x\n", speedup; exit 1 }
		printf "incremental append speedup: %.2fx (gate: >=20x)\n", speedup
	}' "$OUT" || { echo "bench_compare: FAILED (pr8 no-rescan gate)" >&2; exit 1; }
	echo "bench_compare: $MODE OK"
	exit 0
fi
# --------------------------------------------------------------------------

# ---- PR-7: append-only event store -------------------------------------
if [ "$MODE" = pr7 ] || [ "$MODE" = pr7-smoke ]; then
	OUT="BENCH_PR7.json"
	BENCHES='BenchmarkStoreAppendNoSync|BenchmarkStoreAppendSynced|BenchmarkStoreRecover'
	if [ "$MODE" = pr7-smoke ]; then
		BENCHTIME="${BENCHTIME:-50x}"
	else
		BENCHTIME="${BENCHTIME:-2s}"
	fi
	RAW="$(mktemp)"
	trap 'rm -f "$RAW"' EXIT
	echo ">> go test -run XXX -bench '$BENCHES' -benchtime=$BENCHTIME ."
	go test -run XXX -bench "$BENCHES" -benchtime="$BENCHTIME" -timeout 20m . | tee "$RAW"

	awk -v cores="$(nproc 2>/dev/null || echo 1)" '
	BEGIN { n = 0 }
	$1 ~ /^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)
		names[n] = name; ns[n] = $3; allocs[n] = ($8 == "allocs/op" ? $7 : -1); n++
	}
	END {
		printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
		for (i = 0; i < n; i++)
			printf "    \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}%s\n", names[i], ns[i], allocs[i], (i+1<n ? "," : "")
		printf "  }"
		for (i = 0; i < n; i++) v[names[i]] = ns[i]
		if (("BenchmarkStoreAppendSynced" in v) && v["BenchmarkStoreAppendNoSync"] > 0)
			printf ",\n  \"fsync_cost\": %.3f", v["BenchmarkStoreAppendSynced"] / v["BenchmarkStoreAppendNoSync"]
		if ("BenchmarkStoreRecover" in v)
			printf ",\n  \"recover_ns_per_record\": %.1f", v["BenchmarkStoreRecover"] / 10000
		printf "\n}\n"
	}' "$RAW" > "$OUT"
	echo ">> wrote $OUT"
	cat "$OUT"

	# Alloc gate (both modes): the append hot path must stay lean. 16
	# allocs/op is ~5x the measured 3 — headroom for encoding changes, far
	# under anything accidental (a per-append buffer copy alone adds more).
	awk '
	$1 ~ /^BenchmarkStoreAppend/ && $8 == "allocs/op" {
		found++
		if ($7 + 0 > 16) {
			printf "%s allocs/op %s > 16\n", $1, $7
			bad = 1
			next
		}
		printf "%s allocs/op: %s (gate: <=16)\n", $1, $7
	}
	END {
		if (found < 2) { print "store append benchmarks not found"; exit 1 }
		exit bad
	}
	' "$RAW" || { echo "bench_compare: FAILED (pr7 alloc gate)" >&2; exit 1; }
	echo "bench_compare: $MODE OK"
	exit 0
fi
# --------------------------------------------------------------------------

# ---- PR-6: compiled execution core + periodic conversion tables ----------
if [ "$MODE" = pr6 ] || [ "$MODE" = pr6-smoke ]; then
	OUT="BENCH_PR6.json"
	BENCHES='BenchmarkTAGStepSerialCompiled|BenchmarkCoverTableLookup|BenchmarkCoverDirect|BenchmarkFig3CoverTable|BenchmarkFig3CoverDirect'
	if [ "$MODE" = pr6-smoke ]; then
		BENCHTIME="${BENCHTIME:-100x}"
	else
		BENCHTIME="${BENCHTIME:-2s}"
	fi
	RAW="$(mktemp)"
	trap 'rm -f "$RAW"' EXIT
	echo ">> go test -run XXX -bench '$BENCHES' -benchtime=$BENCHTIME ."
	go test -run XXX -bench "$BENCHES" -benchtime="$BENCHTIME" -timeout 20m . | tee "$RAW"

	awk -v cores="$(nproc 2>/dev/null || echo 1)" '
	BEGIN { n = 0 }
	$1 ~ /^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)
		names[n] = name; ns[n] = $3; allocs[n] = ($8 == "allocs/op" ? $7 : -1); n++
	}
	END {
		printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
		for (i = 0; i < n; i++)
			printf "    \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}%s\n", names[i], ns[i], allocs[i], (i+1<n ? "," : "")
		printf "  }"
		for (i = 0; i < n; i++) v[names[i]] = ns[i]
		if (("BenchmarkFig3CoverDirect" in v) && v["BenchmarkFig3CoverTable"] > 0)
			printf ",\n  \"fig3_cover_speedup\": %.3f", v["BenchmarkFig3CoverDirect"] / v["BenchmarkFig3CoverTable"]
		if (("BenchmarkCoverDirect" in v) && v["BenchmarkCoverTableLookup"] > 0)
			printf ",\n  \"tick_speedup\": %.3f", v["BenchmarkCoverDirect"] / v["BenchmarkCoverTableLookup"]
		printf "\n}\n"
	}' "$RAW" > "$OUT"
	echo ">> wrote $OUT"
	cat "$OUT"

	# Alloc gate (both modes): the TAG core must stay lean. The whole
	# anchored batch (hundreds of runs) is one op; 800 allocs/op is ~2x the
	# 315 measured when the gate was set.
	awk '
	$1 ~ /^BenchmarkTAGStepSerialCompiled/ && $8 == "allocs/op" {
		if ($7 + 0 > 800) {
			printf "compiled step allocs/op %s > 800\n", $7
			exit 1
		}
		printf "compiled step allocs/op: %s (gate: <=800)\n", $7
		found = 1
	}
	END { if (!found) { print "BenchmarkTAGStepSerialCompiled allocs not found"; exit 1 } }
	' "$RAW" || { echo "bench_compare: FAILED (pr6 alloc gate)" >&2; exit 1; }

	if [ "$MODE" = pr6-smoke ]; then
		echo "bench_compare: pr6-smoke OK (alloc gate only)"
		exit 0
	fi

	# Step ceiling: single-thread TAG stepping stays at or under 78826
	# ns/op, the deleted interpreter's last recorded 236477 ns/op divided
	# by the 3x speedup this gate used to demand of the compiled core.
	# Fig-3 gate: the cover conversion through the tables stays >=5x
	# faster than direct calendar arithmetic.
	awk '
	$1 == "\"BenchmarkTAGStepSerialCompiled\":" { gsub(/,/, "", $3); step = $3 + 0 }
	$1 == "\"fig3_cover_speedup\":" { gsub(/,/, "", $2); fig3 = $2 + 0 }
	END {
		bad = 0
		if (step <= 0 || step > 78826) { printf "TAG step %.0f ns/op > 78826 (or missing)\n", step; bad = 1 }
		else printf "TAG step: %.0f ns/op (gate: <=78826)\n", step
		if (fig3 < 5.0) { printf "Fig-3 cover speedup %.2fx < 5x\n", fig3; bad = 1 }
		else printf "Fig-3 cover speedup: %.2fx (gate: >=5x)\n", fig3
		exit bad
	}' "$OUT" || { echo "bench_compare: FAILED (pr6 step/cover gate)" >&2; exit 1; }
	echo "bench_compare: pr6 OK"
	exit 0
fi
# --------------------------------------------------------------------------
OUT="BENCH_PR3.json"
BASELINE="scripts/bench_baseline_pr3.json"
BENCHES='BenchmarkE13MiningSerial|BenchmarkE13MiningParallel|BenchmarkTAGBatchSerial|BenchmarkTAGBatchParallel'

case "$MODE" in
smoke)    BENCHTIME="1x" ;;
full|baseline) BENCHTIME="${BENCHTIME:-2s}" ;;
*) echo "usage: $0 [smoke|full|baseline]" >&2; exit 2 ;;
esac

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo ">> go test -run XXX -bench '$BENCHES' -benchtime=$BENCHTIME ."
go test -run XXX -bench "$BENCHES" -benchtime="$BENCHTIME" -timeout 20m . | tee "$RAW"

# Render the benchmark lines as JSON, with the machine shape the speedup
# acceptance is conditioned on (the 2x target applies on 4+ core machines).
awk -v cores="$(nproc 2>/dev/null || echo 1)" '
BEGIN { n = 0 }
$1 ~ /^Benchmark/ && $4 == "ns/op" {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns[n] = $3; names[n] = name; n++
}
END {
	printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
	for (i = 0; i < n; i++)
		printf "    \"%s\": %s%s\n", names[i], ns[i], (i+1<n ? "," : "")
	printf "  }"
	for (i = 0; i < n; i++) { v[names[i]] = ns[i] }
	if (("BenchmarkE13MiningSerial" in v) && ("BenchmarkE13MiningParallel" in v) && v["BenchmarkE13MiningParallel"] > 0)
		printf ",\n  \"e13_speedup\": %.3f", v["BenchmarkE13MiningSerial"] / v["BenchmarkE13MiningParallel"]
	if (("BenchmarkTAGBatchSerial" in v) && ("BenchmarkTAGBatchParallel" in v) && v["BenchmarkTAGBatchParallel"] > 0)
		printf ",\n  \"tag_batch_speedup\": %.3f", v["BenchmarkTAGBatchSerial"] / v["BenchmarkTAGBatchParallel"]
	printf "\n}\n"
}' "$RAW" > "$OUT"
echo ">> wrote $OUT"
cat "$OUT"

if [ "$MODE" = smoke ]; then
	echo "bench_compare: smoke OK (no gate)"
	exit 0
fi

if [ "$MODE" = baseline ]; then
	cp "$OUT" "$BASELINE"
	echo "bench_compare: baseline stored at $BASELINE"
	exit 0
fi

# On a machine with real parallelism the 8-worker E13 scan must be at least
# 2x the serial one; on fewer than 4 cores the pool can only tread water, so
# the speedup is informational there (BENCH_PR3.json records the core count).
awk '
$1 == "\"cores\":" { gsub(/,/, "", $2); cores = $2 + 0 }
$1 == "\"e13_speedup\":" { gsub(/,/, "", $2); speedup = $2 + 0 }
END {
	if (cores >= 4 && speedup < 2.0) {
		printf "E13 parallel speedup %.2fx < 2x on a %d-core machine\n", speedup, cores
		exit 1
	}
	if (cores >= 4) printf "E13 parallel speedup: %.2fx on %d cores\n", speedup, cores
	else printf "E13 speedup gate skipped: only %d core(s)\n", cores
}' "$OUT" || { echo "bench_compare: FAILED (parallel speedup)" >&2; exit 1; }

if [ ! -f "$BASELINE" ]; then
	echo "bench_compare: no baseline at $BASELINE; run '$0 baseline' first" >&2
	exit 1
fi

# Gate: every benchmark must stay within 20% of its baseline ns/op.
awk '
FNR == NR {
	if ($1 ~ /^"Benchmark/) { gsub(/[",:]/, "", $1); base[$1] = $2 + 0 }
	next
}
{
	if ($1 ~ /^"Benchmark/) { gsub(/[",:]/, "", $1); cur[$1] = $2 + 0 }
}
END {
	bad = 0
	for (k in base) {
		if (!(k in cur)) { printf "missing benchmark %s in current run\n", k; bad = 1; continue }
		if (base[k] > 0 && cur[k] > base[k] * 1.20) {
			printf "REGRESSION %s: %.0f ns/op vs baseline %.0f (+%.1f%%)\n",
				k, cur[k], base[k], (cur[k]/base[k] - 1) * 100
			bad = 1
		}
	}
	exit bad
}' "$BASELINE" "$OUT" || { echo "bench_compare: FAILED (>20% regression)" >&2; exit 1; }
echo "bench_compare: OK (within 20% of baseline)"
