#!/usr/bin/env bash
# Builds benchrun from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root, e.g.
#
#   bash scripts/benchrun/run.sh -workload train-grid -seed 1 -seconds 15 -trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f scripts/benchrun/go.mod ]]; then
	echo "benchrun: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd scripts/benchrun && go build -o "$build/benchrun" .)
exec "$build/benchrun" "$@"
