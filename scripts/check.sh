#!/usr/bin/env bash
# Pre-merge gate: gofmt, vet, build, and race-test the internal packages,
# then the full test suite, then vet and test the benchmark module. Run
# before every merge (see README).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race -short ./..."
go test -race -short ./...
echo "== go test ./..."
go test ./...
# perfbench is its own module (it imports internal/sim), so the root
# ./... patterns never compile it.
echo "== perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)
echo "check.sh: all green"
