#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout — the Go build cache too) and runs it from the checkout root.
# In a directory without the simulator's sources the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/dlpbench" .)
cd "$root"
exec "$build/dlpbench" "$@"
