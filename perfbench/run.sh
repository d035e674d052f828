#!/usr/bin/env bash
# Builds the STORM benchmark from this checkout's sources and runs one
# workload, e.g.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files all stay under .bench_build/ in the checkout. Without the
# repository's sources next to perfbench/ the build fails and so does the
# script.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
