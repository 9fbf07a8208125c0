#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the current checkout (the repo root) and runs it with
# the arguments it was given. Everything the build and the run write — the Go
# build cache, the linker's temp files, the binary, WAL directories and trace
# files — stays inside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
		GOWORK=off GOTOOLCHAIN=local \
		go build -o "$build/dagsfc-benchmark" .
) >&2

exec "$build/dagsfc-benchmark" "$@"
