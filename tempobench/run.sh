#!/usr/bin/env bash
# Builds tempobench from this checkout's sources and runs it from the
# checkout root; every argument is passed through. The binary, the Go
# build cache, the Go tool's config and telemetry, temporary files and the
# benchmark's data dirs all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" \
	TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/tempobench" && go build -o "$out/tempobench" .)
exec "$out/tempobench" "$@"
