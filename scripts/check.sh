#!/bin/sh
# Full verification: build, vet, tests with the race detector.
# `make check` runs this; it is what CI should run.
set -eu
cd "$(dirname "$0")/.."

# The run must leave the working tree as it found it; outside a git
# checkout there is nothing to compare.
tree=none
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	tree="$(git status --porcelain; git diff)"
fi

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
echo '>> bench smoke (machine-independent micro-benchmark gates, writes nothing)'
go run ./scripts/benchgate smoke
if [ "$tree" != none ] && [ "$(git status --porcelain; git diff)" != "$tree" ]; then
	echo 'check: the steps above changed the working tree:' >&2
	git status --porcelain >&2
	exit 1
fi
echo 'check: OK'
