#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from the sources of the
# checkout this script sits in, then runs the benchmark. Everything built
# or written lands in .bench_build/ at the root of that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$out/bin/lccs-benchmark" .
go build -C "$here" -o "$out/bin/lccs-serve" lccs/cmd/lccs-serve
exec "$out/bin/lccs-benchmark" -serve-bin "$out/bin/lccs-serve" -workdir "$out/work" "$@"
