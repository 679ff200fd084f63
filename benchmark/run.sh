#!/usr/bin/env bash
# Builds the benchmark driver into the checkout's .bench_build and runs
# it from the repository root. Everything the build and the run leave
# behind — Go build cache included — stays under .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local
go build -C benchmark -o ../.bench_build/qbench .
exec .bench_build/qbench "$@"
