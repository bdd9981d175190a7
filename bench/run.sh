#!/bin/bash
# Builds psperf from this checkout and runs it with the given arguments.
# Everything the build writes (binary, Go build and module caches, temp
# files) goes under .bench_build/ at the checkout root, so a run reads
# and writes only inside its checkout. BENCHMARK.json names this script.
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

# The first build in a checkout compiles the standard library into the
# fresh cache (a minute or two on 2 cores); later ones take under a second.
(cd "$here" && go build -o "$build/psperf" .) >&2

exec "$build/psperf" "$@"
