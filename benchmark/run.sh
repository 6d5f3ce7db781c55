#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark into the
# checkout's own build directory, then run it from the checkout root.
# Everything the go command writes — build cache, module cache, temporary
# files, its own configuration and telemetry counters — is pointed inside
# that directory, so that nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
# With telemetry in its default mode the go command starts a sidecar in a
# session of its own that outlives it; the mode file is the only switch.
echo off >"$build/home/.config/go/telemetry/mode"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
# The runtime returns freed heap with MADV_FREE, so that an op does not
# fault back in, page by page, what the collection forced before it just
# released: on partition_wkb that was a quarter of the run, spent in the
# guest kernel and the hypervisor, and the noisiest quarter (README
# "Method"). It is a runtime-only setting, which //go:debug does not take.
GODEBUG=madvdontneed=0 exec "$build/benchmark" "$@"
