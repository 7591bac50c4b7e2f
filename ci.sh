#!/bin/sh
# CI gate for the repository. The -race run is mandatory: the parallel
# synthesis engine (internal/parallel and its users in mc, core, repro,
# serve) is only shippable while the race detector, the worker-invariance
# tests and the shared-tech concurrency tests all pass.
set -eux

# Formatting gate: gofmt must have nothing to say.
test -z "$(gofmt -l .)"

go vet ./...
go build ./...

# Benchmark-module lane: perfbench is a separate module (loas/perfbench)
# that root `go test ./...` never compiles, yet it calls internal/ APIs.
# An internal change that breaks the benchmark program fails here.
(cd perfbench && go vet ./... && go test -count=1 ./...)

# Differential cold-path cache lane. The three cache layers (device-eval
# memo, incremental extraction, shape-function cache) are only shippable
# while they are bit-invisible: the harness reruns every topology with
# caches off vs on and demands hex-exact identity, and the golden suites
# pin the absolute results (a cache that shifted a single ULP fails here
# — never re-bless with -update to make this lane pass). The warm-started
# offset searches are held to their cold-per-probe references the same
# way; the Monte-Carlo one runs its samples on two workers, so the race
# detector also sees that no warm state crosses a worker.
go test -race -count=1 -run 'TestDifferential' ./internal/core
go test -race -count=1 -run 'TestSessionIncremental' ./internal/layout/cairo
go test -race -count=1 -run 'TestWarm' ./internal/mc ./internal/meas
go test -count=1 -run 'Golden' ./internal/repro ./internal/serve

# Allocation lane: the solver workspaces (reused LU storage, the
# per-call Newton workspace, the AC solver's buffers) and the engine's
# element index table are gated by allocation counts, which are
# deterministic where timings are not. The race detector instruments
# allocations, so these tests build only without -race and the
# whole-suite race run below skips them.
go test -count=1 -run 'Allocs' ./internal/linalg ./internal/sim ./internal/sizing

# Repeat lane: the metrics registry is process-wide, so a test that
# assumes it starts from zero passes once and fails on the second run.
go test -count=3 ./internal/obs

# Race lane doubles as the coverage gate: total statement coverage must
# not sink below the floor (the suite sits near 84% — the floor trips on
# regressions, not noise). -shuffle=on randomizes test (and package init)
# order each run, so order-dependence on the package-level topology
# registry or any other global state surfaces here instead of in the
# field.
COVER_FLOOR=83.0
go test -race -shuffle=on -coverprofile=cover.out ./...
total=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
rm -f cover.out
awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN {
    if (t + 0 < f + 0) { printf "coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 }
    printf "coverage %.1f%% (floor %.1f%%)\n", t, f
}'

# Brief fuzz run of the canonical-key corpus under the race detector.
go test -race -run '^$' -fuzz 'FuzzCanonicalKey$' -fuzztime 5s ./internal/serve

# Fuzz the batch multiset key: item-order invariance, multiplicity
# sensitivity, and per-item ulp sensitivity.
go test -race -run '^$' -fuzz FuzzBatchCanonicalKey -fuzztime 5s ./internal/serve

# Fuzz the run-ledger decoder: arbitrary bytes must never panic the
# reader, and valid records must round-trip byte-identically.
go test -race -run '^$' -fuzz FuzzLedgerDecode -fuzztime 5s ./internal/obs

# Fuzz the device model's analytic derivatives: arbitrary finite terminal
# voltages within ±2·VDD on both model cards must give finite outputs, a
# drain current bit-equal to EvalID, and partials that agree with central
# differences of EvalID away from the |vds| kink. The model holds no
# shared state, so this lane runs without -race for more executions.
go test -run '^$' -fuzz FuzzDeviceGrad -fuzztime 5s ./internal/device

# Fuzz the zero-skipping LU factorizations: matrices stamped from
# arbitrary bytes through Add, as the simulator stamps them, must
# factor and solve bit-identically to the dense reference elimination.
# The seeds are the oracle test's MNA-shaped matrices. linalg holds no
# shared state, so this lane runs without -race for more executions.
go test -run '^$' -fuzz FuzzFactorMatchesDense -fuzztime 5s ./internal/linalg
