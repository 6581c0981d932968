#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then runs
# it with the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
