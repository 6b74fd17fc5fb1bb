#!/bin/sh
# bench.sh — measured benchmark run recorded into a JSON ledger.
#
# Runs the kernel microbenchmarks plus the end-to-end figure benchmarks the
# perf acceptance criteria track, and merges ns/op, B/op, and allocs/op
# into BENCH.json under the given label (default: "current"). The ledger
# keeps every earlier record; labels of past PRs carry their PR prefix
# (e.g. "pr10/current"). benchrec prints deltas of the new record against
# the ledger's first.
#
# Usage:
#   ./bench.sh            # record under label "current"
#   ./bench.sh mylabel    # record under "mylabel"
set -eu

cd "$(dirname "$0")"

LABEL="${1:-current}"
LEDGER="BENCH.json"

go build -o /tmp/benchrec ./cmd/benchrec

{
	go test -run=NONE -bench='BenchmarkSleepEvents|BenchmarkSleepSwitch|BenchmarkManyProcs|BenchmarkWakeBlock|BenchmarkHeapChurn10k|BenchmarkResourceContention' \
		-benchtime=200000x ./internal/sim/
	go test -run=NONE -bench='BenchmarkScaleEvents' -benchtime=100000x ./internal/sim/
	go test -run=NONE -bench='BenchmarkCapacityEvict' -benchtime=200000x ./internal/capacity/
	go test -run=NONE -bench='BenchmarkCalibrateEval' -benchtime=2x ./internal/calib/
	go test -run=NONE -bench='BenchmarkCritpathExtract' -benchtime=20000x ./internal/critpath/
	go test -run=NONE -bench='BenchmarkProvenanceRecord' -benchtime=500x ./internal/critpath/
	go test -run=NONE -bench='BenchmarkWriteChrome' -benchtime=20x ./internal/trace/
	go test -run=NONE -bench='BenchmarkWriteMetricsCSV' -benchtime=50x ./internal/metrics/
	go test -run=NONE -bench='BenchmarkWriteWaterfall' -benchtime=200x ./internal/critpath/
	go test -run=NONE -bench='BenchmarkFig5$|BenchmarkFig6$|BenchmarkWorkflowLargePairs$|BenchmarkRepeatPooled$' -benchtime=2x .
} | tee /dev/stderr | /tmp/benchrec -label "$LABEL" -o "$LEDGER"

echo "bench.sh: recorded under label \"$LABEL\" in $LEDGER"
