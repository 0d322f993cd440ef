GO ?= go

.PHONY: build test check bench experiments fuzz-smoke race-stress bench-json serve-smoke cluster-smoke oracle-smoke crash-smoke cover

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

# Full micro-benchmark run: every gate of scripts/benchgate's table (TAG
# step, Fig-3 cover, store append, incremental mining, router proxy and
# migration, zoo ticks, and the E13/TAG-batch scans against the median of
# their last five same-shape history rows), then one line per benchmark
# appended to BENCH_HISTORY.jsonl.
bench-json:
	$(GO) run ./scripts/benchgate full

experiments:
	$(GO) run ./cmd/experiments
