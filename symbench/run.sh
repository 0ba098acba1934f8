#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the current directory (the repository root):
#
#   bash symbench/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run's scratch files stay under
# .bench_build in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/symbench" .)
# The commit stamped on every row; "unknown" outside a git checkout.
rev="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$rev" != unknown ] && [ -n "$(git -C "$here/.." status --porcelain 2>/dev/null)" ]; then
	rev="$rev-dirty"
fi
export SYMBENCH_COMMIT="$rev"
exec "$out/symbench" "$@"
