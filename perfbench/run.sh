#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload paper-fig8 --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything the build writes (the Go
# build cache and the binary) stays under .bench_build in that directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/go-cache" GOPATH="${out}/go-path" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
