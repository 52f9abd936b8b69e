#!/usr/bin/env bash
# Builds ltpbench from this checkout's source and runs it from the
# checkout root with the given arguments, for example
#
#   bash bench/run.sh --workload service --seed 1 --seconds 25 --trace 0
#
# The build and the run write only inside the checkout: under
# $CARGO_TARGET_DIR (default .bench_build), plus bench-results.json and,
# in traced mode, bench-trace.json.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

# The go tool keeps its build cache, temporary files and telemetry under
# HOME and GOCACHE; keep all of them in the build directory, and never
# reach for the network (the module has no dependencies to fetch).
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -buildvcs=false -o "$out/ltpbench" ./ltpbench)
exec "$out/ltpbench" -work "$out/work" "$@"
