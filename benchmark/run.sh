#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root (with the
# Go build cache there too, so nothing is written outside the checkout)
# and replaces itself with the binary. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/../.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/dpu-benchmark" .)
exec "$out/dpu-benchmark" "$@"
