#!/usr/bin/env bash
# Builds the daemons and the benchmark from the source tree in the current
# directory, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload warm-resolve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a source tree (go.mod, cmd/ and perfbench/ not found)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/runs" "$out/home"

# HOME too, so that nothing the toolchain keeps per user (telemetry
# counters, configuration) is written outside the build directory.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go build -o "$out/bin/" ./cmd/bindd ./cmd/nsmd ./cmd/hnsd ./cmd/hnsgw >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
