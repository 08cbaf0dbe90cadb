#!/usr/bin/env bash
# Builds the qbench binary from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash qbench/run.sh --workload quality_scan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/qbench/go.mod" ]]; then
	echo "qbench: run from the root of a repository checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/qbench" && go build -o "$build/qbench" .)
exec "$build/qbench" -dir "$build" "$@"
