#!/usr/bin/env bash
# Builds ppserver and the benchmark from source into .bench_build, trains
# the model once per build of the benchmark, and runs one measurement.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload mnist2-tcp --seed 1 --seconds 55 --trace 0
#   bash e2ebench/run.sh profile -fresh 6   # regenerate the stored stage profile
#
# Every file the toolchain and the benchmark write stays under
# .bench_build. Build and training output go to stderr; the last line of
# stdout is the result.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of a PP-Stream checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off CGO_ENABLED=0
(
	cd "$root/e2ebench"
	go build -o "$build/ppserver" ppstream/cmd/ppserver
	go build -o "$build/e2ebench" .
) >&2
"$build/e2ebench" prepare -build "$build" >&2
exec "$build/e2ebench" "$@" -build "$build"
