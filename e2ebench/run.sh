#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, for example:
#
#   bash e2ebench/run.sh --workload stats-join --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the benchmark's outputs all stay
# under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/go.mod not found)" >&2
	exit 1
fi
mkdir -p "$build/go-cache" "$build/go-path" "$build/config" "$build/tmp"
# The Go tool's cache, module path, settings and telemetry, and every
# temporary file, stay under .bench_build; nothing is downloaded.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench.bin" .)
exec "$build/e2ebench.bin" --out "$build/e2ebench" "$@"
