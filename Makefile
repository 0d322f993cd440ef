GO ?= go

.PHONY: build test check bench experiments fuzz-smoke race-stress bench-json bench-json-pr6 bench-json-pr7 bench-json-pr8 bench-json-pr9 bench-json-pr10 serve-smoke cluster-smoke oracle-smoke crash-smoke cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: build + vet + gofmt + race-enabled tests + short fuzz burst.
check:
	sh scripts/check.sh

# Differential oracle: cross-check propagate, exact, TAG and mining
# against brute-force ground truth over ORACLE_SEEDS random instances
# (500 by default). A violation is shrunk and saved under testdata/oracle.
oracle-smoke:
	$(GO) run ./cmd/tempofuzz -seeds $${ORACLE_SEEDS:-500}

# Coverage report: per-package numbers plus an HTML-able profile at
# cover.out (DESIGN.md "Testing strategy" records the current baseline).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Run every native fuzz target for a short burst (FUZZTIME=10s by default).
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# Boot tempod on an ephemeral port and exercise every endpoint once:
# health, a check, a streaming session, a mining job, a SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Boot one router over two worker tempods, feed a session through the
# router, drain the session's owner (a live rebalance-by-checkpoint
# handover), assert byte-identical reads across the migration, then take
# the whole cluster down with one SIGTERM to the router.
cluster-smoke:
	sh scripts/cluster_smoke.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Reduced-depth crash sweep over the fault-injected filesystem plus the
# process-level kill-during-append recovery test (CRASH_SWEEP_SEEDS=60 by
# default; the full 21-seed-per-point sweep runs in `make test`).
crash-smoke:
	CRASH_SWEEP_SEEDS=$${CRASH_SWEEP_SEEDS:-60} $(GO) test -count=1 -run 'TestCrashSweep|TestErrorSweep' ./internal/store/
	$(GO) test -count=1 -run 'TestKillDuringAppend' ./cmd/tempod/

# The parallel-determinism stress surface under the race detector: TAG
# batches, mining worker pool, granularity cache fills, counter snapshots.
race-stress:
	$(GO) test -race -run 'Parallel|Concurrent|Batch|Counters|SingleFlight|Chaos' ./...

# Full parallel benchmark run; writes BENCH_PR3.json and gates >20%
# regressions against scripts/bench_baseline_pr3.json (regenerate the
# baseline with `sh scripts/bench_compare.sh baseline`).
bench-json:
	sh scripts/bench_compare.sh

# TAG-core benchmark run; writes BENCH_PR6.json and gates single-thread
# TAG stepping at <=78826 ns/op (the retired interpreter's last figure
# over 3), the >=5x Fig-3 cover conversion vs direct calendar arithmetic,
# and the TAG core's allocs/op.
bench-json-pr6:
	sh scripts/bench_compare.sh pr6

# Event-store benchmark run; writes BENCH_PR7.json (append ns/op with and
# without fsync, full-scan recovery) and gates the append path's allocs/op.
bench-json-pr7:
	sh scripts/bench_compare.sh pr7

# Incremental-mining benchmark run; writes BENCH_PR8.json (append+snapshot
# against a 100k-event stream vs a full batch re-mine) and gates the
# no-rescan property (>=20x).
bench-json-pr8:
	sh scripts/bench_compare.sh pr8

# Calendar-zoo benchmark run; writes BENCH_PR10.json (zoned/fiscal/trading
# tick resolution at 2026 through System.Ticker, fiscal months also on
# direct arithmetic) and gates the Ticker lookups at allocs/op == 0.
bench-json-pr10:
	sh scripts/bench_compare.sh pr10

# Cluster-tier benchmark run; writes BENCH_PR9.json (router proxy overhead
# on /v1/check, 10k-event session migration) and gates proxy overhead
# <=2x standalone plus the migration's no-rescan property (replayed/op
# under the checkpoint stride).
bench-json-pr9:
	sh scripts/bench_compare.sh pr9

experiments:
	$(GO) run ./cmd/experiments
