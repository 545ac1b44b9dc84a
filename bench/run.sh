#!/usr/bin/env bash
# Builds bhbench inside the checkout and runs it. Everything this
# writes (build cache, binaries, run directories, span files) lands
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
# The go command keeps its build cache, telemetry counters (under the
# user's config directory) and module cache outside the checkout unless
# told otherwise.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/bhbench" ./bhbench)
exec "$build/bin/bhbench" -root "$root" "$@"
