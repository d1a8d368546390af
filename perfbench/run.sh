#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's config and
# telemetry files) stays under .bench_build/ at the repository root.
# The build needs the repository's own module one directory up; without
# it the script fails before printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off \
		GOWORK=off go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
