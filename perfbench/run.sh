#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload train_dense --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# temporary files, the binary) stays under .bench_build/, so the run
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must both exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

# -buildvcs=false: the checkout need not be a repository, and one that
# sits inside a repository git cannot read must still build.
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
