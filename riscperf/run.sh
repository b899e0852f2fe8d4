#!/usr/bin/env bash
# Builds the riscperf benchmark from the sources of this checkout and runs it.
# Run it from the repository root; every argument is passed to the benchmark:
#
#   bash riscperf/run.sh --workload suite --seed 1 --seconds 36 --trace 0
#
# The binary, the Go caches the build needs and the span files of traced runs
# live under .bench_build/riscperf/ in the checkout, so nothing is read from
# or written to the user's home directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/riscperf"
mkdir -p "$out"
(
	cd "$root/riscperf"
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off \
		GOCACHE="$out/go-cache" GOPATH="$out/go-path" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		go build -o "$out/riscperf" .
)
# The Go runtime hands memory it has released back to the kernel with
# MADV_DONTNEED by default, so reusing that memory faults its pages in again.
# Each served request allocates and frees 1 MiB, and on a virtual machine
# the cost of those faults moved the serve workloads' CPU time per request
# by up to a half from run to run. With MADV_FREE the pages stay mapped
# until the kernel needs them.
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$out/riscperf" "$@"
