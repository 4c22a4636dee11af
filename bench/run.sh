#!/bin/bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments (see README.md). Everything it writes, the Go build cache
# included, stays inside the checkout: .bench_build/ and bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/blend-bench" .)
cd "$root"
exec "$build/blend-bench" -out bench/out "$@"
