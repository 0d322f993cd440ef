#!/bin/sh
# Full verification: build, vet, tests with the race detector.
# `make check` runs this; it is what CI should run.
set -eu
cd "$(dirname "$0")/.."

echo '>> go build ./...'
go build ./...
echo '>> go vet ./...'
go vet ./...
echo '>> gofmt -l .'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi
echo '>> go test -race -shuffle=on ./...'
go test -race -shuffle=on ./...
echo '>> tempobench (separate module: go vet + go test)'
(cd tempobench && go vet . && go test .)
echo '>> oracle smoke (differential contracts over 200 seeds)'
go run ./cmd/tempofuzz -seeds "${ORACLE_SEEDS:-200}" -repro-dir "${TMPDIR:-/tmp}/oracle-smoke-repros"
echo '>> tag oracle smoke (TAG runs vs brute-force occurrences over 300 seeds)'
go run ./cmd/tempofuzz -seeds "${TAG_SEEDS:-300}" -contracts tag -repro-dir "${TMPDIR:-/tmp}/oracle-smoke-repros"
echo '>> incremental-equiv oracle smoke (incremental vs batch mining over 300 seeds)'
go run ./cmd/tempofuzz -seeds "${INCR_EQUIV_SEEDS:-300}" -contracts incremental-equiv -repro-dir "${TMPDIR:-/tmp}/oracle-smoke-repros"
echo '>> cluster-rebalance oracle smoke (router drain vs standalone over 300 seeds)'
go run ./cmd/tempofuzz -seeds "${CLUSTER_REBALANCE_SEEDS:-300}" -contracts cluster-rebalance -repro-dir "${TMPDIR:-/tmp}/oracle-smoke-repros"
echo '>> calendar-zoo oracle smoke (conversion + distinction over the zoo, 300 seeds)'
go run ./cmd/tempofuzz -seeds "${ZOO_SEEDS:-300}" -contracts conversion,distinction -repro-dir "${TMPDIR:-/tmp}/oracle-smoke-repros"
go test -count=1 -run 'TestZooCoverage|TestZooAnchoredHorizons' ./internal/oracle/
echo '>> fuzz smoke'
FUZZTIME="${FUZZTIME:-2s}" sh scripts/fuzz_smoke.sh
echo '>> serve smoke (tempod end to end)'
sh scripts/serve_smoke.sh
echo '>> cluster smoke (router + 2 workers, live drain, byte-identical reads)'
sh scripts/cluster_smoke.sh
echo '>> crash smoke (fault-injected store sweep + kill -9 tempod recovery)'
CRASH_SWEEP_SEEDS="${CRASH_SWEEP_SEEDS:-60}" go test -count=1 -run 'TestCrashSweep|TestErrorSweep' ./internal/store/
go test -count=1 -run 'TestKillDuringAppend' ./cmd/tempod/
echo '>> bench smoke (parallel scan, no gate)'
sh scripts/bench_compare.sh smoke
echo '>> bench smoke (TAG core, allocs/op gate)'
sh scripts/bench_compare.sh pr6-smoke
echo '>> bench smoke (event store, allocs/op gate)'
sh scripts/bench_compare.sh pr7-smoke
echo '>> bench smoke (incremental mining, no-rescan gate)'
sh scripts/bench_compare.sh pr8-smoke
echo '>> bench smoke (cluster tier, migration no-rescan gate)'
sh scripts/bench_compare.sh pr9-smoke
echo '>> bench smoke (calendar-zoo tables, allocs/op gate)'
sh scripts/bench_compare.sh pr10-smoke
echo 'check: OK'
