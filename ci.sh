#!/bin/sh
# CI gate: build, vet, gofmt cleanliness, the full test suite, and the
# race-enabled run (the concurrent paths — shared-store partitioned
# runs, concurrent replay, block cache — must stay race-free).
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== non-test lines"
# Informational, not a gate: the module's non-test Go, bench/ and
# results/ excluded, counted the same way in every change so claims of
# "less code" read against one number.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './results/*' | xargs cat | wc -l

echo "== go test"
go test -timeout 10m ./...

echo "== go test (bench self-check)"
# bench/ is a module of its own, so ./... above does not descend into it:
# its 1/50-scale self-check drives every workload through the public
# entry points and keeps BENCHMARK.json and the metric tables in step.
go test -C bench -timeout 5m .

echo "== go test -race (short)"
# TestOpenLoopDispatchOnTime measures wall-clock dispatch at 100k ev/s,
# which the other packages' load in this parallel step can starve; it
# runs, unchanged, in the serialized ./internal/replay/ step below.
go test -race -short -skip '^TestOpenLoopDispatchOnTime$' -timeout 10m ./...

echo "== go test -race (store engines, full)"
# Full (non-short) race pass over the store API and every engine: the
# snapshot/iterator paths are exercised under concurrent writers in the
# differential suite, and those schedules only run outside -short. The
# LSM's point-read differential (memtable indexes, hash-once probing,
# WAL-replay rebuild) runs here too, with the snapshot iterators parked
# on keys a writer rewrites, and the memtable's skiplist beside it.
go test -race -timeout 10m ./internal/kv/ ./internal/stores/ \
    ./internal/lsm/ ./internal/skiplist/ ./internal/btree/ ./internal/memstore/ \
    ./internal/faster/ ./internal/lethe/ ./internal/remote/ \
    ./internal/shard/ ./internal/tracing/

echo "== go test -race (LSM background worker, repeated)"
# Flush and compaction run on one worker per DB. Five repeats under the
# race detector of four writers and snapshot readers against a memstore
# oracle while the worker flushes and compacts beneath them, of failed
# table writes, syncs and renames and MANIFEST directory syncs (writes,
# Flush and Close report the fault, reads keep serving, no goroutine
# outlives Close, the directory reopens to every acknowledged write),
# and of Close during a compaction — on the LSM and through Lethe.
go test -race -count=5 -timeout 10m -run 'TestWorker|TestCompactionBypassesBlockCache' ./internal/lsm/

echo "== go test -race (online generator hand-off, repeated)"
# Online runs generate on a producer goroutine of their own, a bounded
# ring of blocks ahead of the measured one. Five repeats under the race
# detector of the entry-point contract and of the online tests: the
# stream a store sees, the producer joined on a drained source, a
# failing store and a watchdog abort, a generator panic raised on the
# caller, and a failing store stopping a custom operator's generation.
go test -race -count=5 -timeout 10m -run 'TestEntryPointContract|TestRunCustomOnline|TestOnline' .

echo "== go test -race (remote role hand-off, repeated)"
# The remote client has no goroutine of its own: callers pass the writer
# and reader roles between themselves. Ten repeats under the race
# detector of the hand-off under reordered answers and dying
# connections, and of Close waking a blocked reader.
go test -race -count=10 -timeout 5m -run 'TestPipelineRoleHandoff|TestPipelineCloseWakesReader' ./internal/remote/

echo "== go test -race (crash recovery, full)"
# The recovery paths — checkpoint save/restore, the crash-replay loop,
# and the campaign sweep — run full (non-short) under the race detector:
# checkpoints are cut from live stores, so snapshot acquisition races
# against the replay writer by construction. The open-loop driver's
# wall-clock tests (on-time dispatch at 100k ev/s, abort with a full
# ring leaving no goroutine behind) ride in the same pass.
go test -race -timeout 10m ./internal/replay/ ./internal/campaign/

echo "== go test -race (run driver and watchdog, repeated)"
# Every public run entry point goes through one driver. Five repeats
# under the race detector of the entry-point contract (same final state
# as Replay, one Observer call per collector, ErrStalled with Degraded
# partial results on a blocking store) and of the watchdog and stall
# tests, recovery runs whose later attempts join the watchdog mid-run
# among them.
go test -race -count=5 -timeout 10m -run 'TestEntryPointContract|Watchdog|Stall' . ./internal/replay/

echo "== open-loop smoke"
# End-to-end open-loop run: drifting-hotspot workload replayed under a
# Poisson arrival schedule with coordinated-omission-free latency and an
# SLO verdict, exercising config -> eventgen -> replay -> obs -> CLI.
go run ./cmd/gadget run -config configs/open-loop-drift.json

echo "== scan scenario smoke"
# Scan-heavy scenario: windowed top-K drain issues OpScan range reads on
# every window fire, exercising config -> core -> replay -> snapshot API.
go run ./cmd/gadget run -config configs/scan-topk.json

echo "== crash recovery smoke"
# Scripted mid-run crashes with a checkpoint cadence: the run must crash
# twice, restore from the newest checkpoint, replay the delta, and report
# RTO/RPO counters, exercising config -> replay recovery -> checkpoint
# codec -> CLI.
go run ./cmd/gadget run -config configs/crash-recovery.json

echo "== trace pipeline smoke"
# Offline generation and every trace-replay command on one trace: config
# -> generate -> trace codec -> replay closed-loop (one and two
# replayers) and open-loop -> sustainable-rate search -> CLI. That a
# report's config re-runs to the same counts is cmd/gadget's tests' job.
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
go build -o "$trace_tmp/gadget" ./cmd/gadget
"$trace_tmp/gadget" generate -config configs/taxi-continuous-join.json -out "$trace_tmp/t.bin"
"$trace_tmp/gadget" replay -trace "$trace_tmp/t.bin" -report "$trace_tmp/report.json"
"$trace_tmp/gadget" replay -trace "$trace_tmp/t.bin" -concurrency 2
"$trace_tmp/gadget" replay -trace "$trace_tmp/t.bin" -open-loop -poisson -rate 200000
"$trace_tmp/gadget" findrate -trace "$trace_tmp/t.bin" -low 200000 -high 800000
trap - EXIT
rm -rf "$trace_tmp"

echo "== sharded remote smoke"
# Two-shard memstore cluster on fixed ports 7301/7302, driven end to end
# through the standard config surface (store.remote.shards expands the
# base addr into per-shard listeners), exercising config -> stores ->
# shard client -> protocol v3 batching -> CLI.
sharded_tmp=$(mktemp -d)
go build -o "$sharded_tmp/gadget-server" ./cmd/gadget-server
"$sharded_tmp/gadget-server" -shards 2 -engine memstore \
    -addr 127.0.0.1:7301 -ready-file "$sharded_tmp/ready" &
sharded_pid=$!
trap 'kill "$sharded_pid" 2>/dev/null || true; rm -rf "$sharded_tmp"' EXIT
for _ in $(seq 1 100); do
    [ -f "$sharded_tmp/ready" ] && break
    sleep 0.1
done
if [ ! -f "$sharded_tmp/ready" ]; then
    echo "sharded smoke: server never wrote its ready file" >&2
    exit 1
fi
go run ./cmd/gadget run -config configs/sharded-remote.json
kill "$sharded_pid" 2>/dev/null || true
wait "$sharded_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$sharded_tmp"

echo "== traced sharded smoke"
# Same two-shard topology on port 7311 with per-op tracing enabled
# (obs.trace): the run must produce a report whose slow_ops section has
# traces with the wire and server stages populated, asserted through the
# `gadget trace` renderer — exercising trace-flagged hello negotiation,
# response trailers, flight recorder, report JSON, and the CLI printer.
traced_tmp=$(mktemp -d)
go build -o "$traced_tmp/gadget-server" ./cmd/gadget-server
"$traced_tmp/gadget-server" -shards 2 -engine memstore \
    -addr 127.0.0.1:7311 -ready-file "$traced_tmp/ready" &
traced_pid=$!
trap 'kill "$traced_pid" 2>/dev/null || true; rm -rf "$traced_tmp"' EXIT
for _ in $(seq 1 100); do
    [ -f "$traced_tmp/ready" ] && break
    sleep 0.1
done
if [ ! -f "$traced_tmp/ready" ]; then
    echo "traced sharded smoke: server never wrote its ready file" >&2
    exit 1
fi
go run ./cmd/gadget run -config configs/traced-sharded.json -report "$traced_tmp/report.json"
go run ./cmd/gadget trace -report "$traced_tmp/report.json" -n 3 -require-stages wire,server
kill "$traced_pid" 2>/dev/null || true
wait "$traced_pid" 2>/dev/null || true
trap - EXIT
rm -rf "$traced_tmp"

echo "== fuzz remote protocol framing (short)"
go test -run '^$' -fuzz '^FuzzServerFrame$' -fuzztime 3s -timeout 5m ./internal/remote/
go test -run '^$' -fuzz '^FuzzClientFrame$' -fuzztime 3s -timeout 5m ./internal/remote/
go test -run '^$' -fuzz '^FuzzBatchFrame$' -fuzztime 3s -timeout 5m ./internal/remote/
go test -run '^$' -fuzz '^FuzzTraceTrailer$' -fuzztime 3s -timeout 5m ./internal/remote/

echo "== fuzz shard routing (short)"
go test -run '^$' -fuzz '^FuzzShardRouting$' -fuzztime 3s -timeout 5m ./internal/shard/

echo "== fuzz iterator bounds (short)"
go test -run '^$' -fuzz '^FuzzIterBounds$' -fuzztime 3s -timeout 5m ./internal/kv/

echo "== fuzz checkpoint codec (short)"
go test -run '^$' -fuzz '^FuzzCheckpointCodec$' -fuzztime 3s -timeout 5m ./internal/kv/

echo "== fuzz memtable order (short)"
go test -run '^$' -fuzz '^FuzzMemtableOrder$' -fuzztime 3s -timeout 5m ./internal/skiplist/

echo "== bench drift guard"
# Re-run the overhead-sensitive micro-benchmarks and compare ns/op
# against results/bench-baseline.txt, failing on >25% regression. The
# threshold is wide because CI boxes vary; it catches structural
# regressions (an accidental lock on the hot path), not noise.
bench_out=$(mktemp)
trap 'rm -f "$bench_out"' EXIT
go test -run '^$' -bench 'BenchmarkResilientOverhead|BenchmarkObsOverhead|BenchmarkOpenLoopOverhead|BenchmarkOpenLoopDispatchLag|BenchmarkRecoveryOverhead|BenchmarkTracingOverhead' -benchtime 0.5s -timeout 10m . | tee "$bench_out"
# Snapshot/scan/checkpoint micro-benchmarks: only the native-snapshot
# engines are guarded — the fallback engines (memstore, faster) copy the
# whole store per snapshot, so their run-to-run noise exceeds the 25%
# signal; their numbers are recorded in the baseline for reference only.
go test -run '^$' -bench '(BenchmarkSnapshotOverhead|BenchmarkScanRange|BenchmarkCheckpoint)/(rocksdb|berkeleydb)' -benchtime 0.5s -timeout 10m . | tee -a "$bench_out"
go test -run '^$' -bench 'BenchmarkStripedHistogramRecordParallel|BenchmarkHistogramRecordParallel' -benchtime 0.5s -timeout 5m ./internal/stats/ | tee -a "$bench_out"
# LSM point path: a read that misses every layer, a memtable hit, a
# table hit, a Put that rewrites a key the memtable holds, a Put of a
# key it does not, and the raw Bloom probe. A fixed iteration count keeps
# the share of cold-cache probes the same on every box; -count 3 because
# these are chains of cache misses and swing ~10% run to run (the awk
# below averages duplicates).
go test -run '^$' -bench 'BenchmarkGetMiss|BenchmarkGetMemHit|BenchmarkGetSSTHit|BenchmarkPutHotKey|BenchmarkPutNewKey' -benchtime 200000x -benchmem -count 3 -timeout 5m ./internal/lsm/ | tee -a "$bench_out"
go test -run '^$' -bench 'BenchmarkMayContain' -benchtime 0.5s -benchmem -timeout 5m ./internal/bloom/ | tee -a "$bench_out"
# Sharded-remote scaling and the pipeline-depth sweep: TCP round trips
# are the noisiest numbers in the suite, so each point is averaged over
# -count 3 (the awk below averages duplicates) before the comparison.
go test -run '^$' -bench 'BenchmarkShardedThroughput|BenchmarkPipelineDepth' -benchtime 0.3s -count 3 -timeout 10m . | tee -a "$bench_out"
# One 256-byte Get over loopback per iteration: the pipeline shared by
# parallel callers, and a single synchronous caller at depth 1 — the
# lone-caller round trip every remote op pays at least.
go test -run '^$' -bench 'BenchmarkPipelinedRoundTrip' -benchtime 0.3s -count 3 -timeout 5m ./internal/remote/ | tee -a "$bench_out"
awk '
    # Collect ns/op per benchmark name (strip the -N GOMAXPROCS suffix),
    # averaging duplicate counts, from both baseline and fresh output.
    FNR == NR && $1 ~ /^Benchmark/ && $4 == "ns/op" {
        name = $1; sub(/-[0-9]+$/, "", name)
        base_sum[name] += $3; base_n[name]++
        next
    }
    FNR != NR && $1 ~ /^Benchmark/ && $4 == "ns/op" {
        name = $1; sub(/-[0-9]+$/, "", name)
        new_sum[name] += $3; new_n[name]++
    }
    END {
        failed = 0
        for (name in new_sum) {
            if (!(name in base_sum)) {
                printf "bench-drift: %s has no baseline (refresh results/bench-baseline.txt)\n", name
                continue
            }
            base = base_sum[name] / base_n[name]
            new = new_sum[name] / new_n[name]
            ratio = new / base
            # Loopback-TCP round trips (the sharded/pipeline benches)
            # carry far more run-to-run noise than in-process paths even
            # after -count 3 averaging, so they get a wider threshold:
            # still failing on a structural (>60%) regression, not on
            # scheduler jitter.
            thr = (name ~ /ShardedThroughput|PipelineDepth|PipelinedRoundTrip/) ? 1.60 : 1.25
            printf "bench-drift: %-50s %10.1f -> %10.1f ns/op (%+.1f%%)\n", name, base, new, (ratio - 1) * 100
            if (ratio > thr) {
                printf "bench-drift: FAIL %s regressed %.1f%% (>%d%% threshold)\n", name, (ratio - 1) * 100, (thr - 1) * 100
                failed = 1
            }
        }
        exit failed
    }
' results/bench-baseline.txt "$bench_out"

echo "CI OK"
