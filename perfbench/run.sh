#!/usr/bin/env bash
# Builds the loasd daemon and the perfbench program from the source in this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Every build product and the Go build cache live under .bench_build/ at
# the checkout root, so a run reads and writes nothing outside the
# checkout. The first run builds the standard library into that cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$build/bin/loasd" ./cmd/loasd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --loasd "$build/bin/loasd" --out "$build/perfbench" "$@"
