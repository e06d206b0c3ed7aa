#!/usr/bin/env bash
# CPU profile of one benchmark workload, as the driver builds and runs
# it. dlpbench has no profile flag and bench/ may not be edited by a PR
# that claims a gain, so this profiles a copy: bench/ is copied to
# .benchprof_src/ at the repository root (bench/go.mod says
# `replace repro => ../`, so the copy must sit one level below the root;
# the directory is ignored by git), an init() that starts
# pprof.StartCPUProfile is added there — never in bench/ — the copy is
# built into .bench_build/ and deleted, the workload runs once, and
# `go tool pprof -top` is printed flat and cumulative.
#
#   scripts/benchprof.sh <workload> [seed] [profile-seconds]
#
# The profile covers the first <profile-seconds> of the process (default
# 6); the run is sized to outlive that window, or the file stays empty.
# Kept: .bench_build/dlpbench-prof and .bench_build/<workload>.prof
# (`go tool pprof -list 'SM..pickWarp' <binary> <prof>` for lines).
set -euo pipefail

workload="${1:?usage: benchprof.sh <workload> [seed] [profile-seconds]}"
seed="${2:-1}"
window="${3:-6}"

root="$(git rev-parse --show-toplevel)"
build="$root/.bench_build"
src="$root/.benchprof_src"
bin="$build/dlpbench-prof"
prof="$build/$workload.prof"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw

rm -rf "$src"
trap 'rm -rf "$src"' EXIT
cp -r "$root/bench" "$src"
cat >"$src/zz_prof.go" <<'EOF'
package main

import (
	"os"
	"runtime/pprof"
	"strconv"
	"time"
)

func init() {
	path := os.Getenv("DLPBENCH_CPUPROFILE")
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		panic(err)
	}
	secs, _ := strconv.ParseFloat(os.Getenv("DLPBENCH_PROFILE_S"), 64)
	go func() {
		time.Sleep(time.Duration(secs * float64(time.Second)))
		pprof.StopCPUProfile()
		f.Close()
	}()
}
EOF
(cd "$src" && go build -o "$bin" .)
rm -rf "$src"

# The full five rounds, as the driver runs it: the process has to outlive
# the window, because a profile still running at exit is never written.
cd "$root"
rm -f "$prof"
seconds="$(jq -r .run_seconds "$root/BENCHMARK.json" 2>/dev/null || echo 25)"
DLPBENCH_CPUPROFILE="$prof" DLPBENCH_PROFILE_S="$window" \
	"$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -1
[ -s "$prof" ] || { echo "benchprof: $prof is empty: the run ended inside the $window s window; pass a shorter one" >&2; exit 1; }

echo "== flat =="
go tool pprof -top -nodecount=30 "$bin" "$prof" 2>/dev/null
echo "== cumulative =="
go tool pprof -top -cum -nodecount=40 "$bin" "$prof" 2>/dev/null
echo "kept: $bin $prof"
