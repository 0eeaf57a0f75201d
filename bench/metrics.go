package main

import "fmt"

// metricDef names one benchmark metric. The two tables below are the
// single source of the names the program prints; BENCHMARK.json lists
// the same names in the same order and bench_test.go holds the two
// together.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists what a `gadget run` user sees. A workload reports the
// ones it defines: ops_per_s on the closed loops, max_rate_ok on the open
// loop, write_amp on the stores with a device, the rest everywhere. The
// driver line alone carries a stand-in for the others (standIns).
//
// The gated tail is the 95th percentile, not the 99th. On the two
// fastest workloads the 99th sits on a knee of the distribution (0.7 µs
// at p99 against 6 µs at p99.9 on incr-mem): the slow stretches of a
// shared box put a fraction of a percent more ops into the tail and the
// p99 doubles while the p95 moves by 7 %. The p99 is recorded per layer
// (replay.p99_us) next to the p99.9 and the maximum.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p95_us", "us", "lower"},
	{"max_rate_ok", "ev/s", "higher"},
	{"write_amp", "ratio", "lower"},
}

// ladder is the fixed set of offered rates (accesses/second) the
// open-loop workload searches for its sustainable rate. Adjacent steps
// are 19 % apart, so a verdict that flips by one step stays inside the
// 25 % regression bound of max_rate_ok.
var ladder = []float64{400e3, 475e3, 565e3, 675e3, 800e3, 950e3, 1130e3, 1345e3, 1600e3}

func ladderMetric(rate float64) string {
	return fmt.Sprintf("replay.ladder_p99_us.%dk", int(rate/1e3))
}

// perLayer lists the single-layer metrics of the traced pass, grouped
// by the module that owns them. A metric that a workload does not
// exercise is reported as 0 in the contract line and left out of the
// human-readable table.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// eventgen + core: the generator.
		{"core.gen_ns_per_access", "ns", "lower"},
		{"core.gen_allocs_per_access", "count", "lower"},
		{"core.accesses_per_event", "count", "lower"},
		// replay, closed loop: the collector.
		{"replay.collector_ns_per_op", "ns", "lower"},
		{"replay.driver_share", "ratio", "lower"},
		{"replay.p99_us", "us", "lower"},
		{"replay.p999_us", "us", "lower"},
		{"replay.max_us", "us", "lower"},
		// replay, open loop: pacer, queue, service worker.
		{"replay.sched_lag_p50_us", "us", "lower"},
		{"replay.sched_lag_p99_us", "us", "lower"},
		{"replay.max_lag_us", "us", "lower"},
		{"replay.overload_frac", "ratio", "lower"},
		{"replay.queue_hop_ns_per_op", "ns", "lower"},
	}
	for _, r := range ladder {
		defs = append(defs, metricDef{ladderMetric(r), "us", "lower"})
	}
	return append(defs, []metricDef{
		// lsm, point path.
		{"lsm.get_ns_per_op", "ns", "lower"},
		{"lsm.put_ns_per_op", "ns", "lower"},
		{"lsm.delete_ns_per_op", "ns", "lower"},
		{"lsm.engine_mem_share", "ratio", "lower"},
		{"lsm.engine_sst_share", "ratio", "lower"},
		{"lsm.engine_wal_share", "ratio", "lower"},
		{"lsm.engine_wal_p99_ns", "ns", "lower"},
		{"lsm.flushes", "count", "lower"},
		{"lsm.compactions", "count", "lower"},
		{"lsm.stall_frac", "ratio", "lower"},
		{"lsm.compact_bytes_per_user_byte", "ratio", "lower"},
		{"lsm.cache_hit_ratio", "ratio", "higher"},
		{"lsm.bloom_fp_ratio", "ratio", "lower"},
		{"lsm.size_bytes_end", "bytes", "lower"},
		// lsm, scan path.
		{"lsm.scan_ns_per_entry", "ns", "lower"},
		{"lsm.scan_allocs_per_entry", "count", "lower"},
		{"lsm.scan_p50_us", "us", "lower"},
		{"lsm.iter_ops", "count", "lower"},
		{"lsm.snapshots", "count", "lower"},
		// vfs: the device as the engine sees it.
		{"vfs.write_calls_per_kop", "count", "lower"},
		{"vfs.bytes_written_per_op", "bytes", "lower"},
		{"vfs.syncs", "count", "lower"},
		{"vfs.read_calls_per_kop", "count", "lower"},
		{"vfs.bytes_read_per_op", "bytes", "lower"},
		// memstore.
		{"memstore.ns_per_op", "ns", "lower"},
		{"memstore.snapshot_ms", "ms", "lower"},
		// remote: pipeline, protocol, server.
		{"remote.self_ns_per_op", "ns", "lower"},
		{"remote.ops_per_batch", "count", "higher"},
		{"remote.queue_p50_us", "us", "lower"},
		{"remote.wire_p50_us", "us", "lower"},
		{"remote.server_p50_us", "us", "lower"},
		{"remote.queue_share", "ratio", "lower"},
		{"remote.wire_share", "ratio", "lower"},
		{"remote.server_share", "ratio", "lower"},
		{"remote.allocs_per_op", "count", "lower"},
		{"remote.alloc_bytes_per_op", "bytes", "lower"},
		{"remote.redials", "count", "lower"},
		{"remote.failures", "count", "lower"},
		{"remote.rtt_1c_p50_us", "us", "lower"},
		// shard: routing.
		{"shard.route_ns_per_op", "ns", "lower"},
		{"shard.imbalance", "ratio", "lower"},
		// middleware that is off in end-to-end runs.
		{"kv.resilient_overhead_frac", "ratio", "lower"},
		{"obs.overhead_frac", "ratio", "lower"},
		{"tracing.sampled_overhead_frac", "ratio", "lower"},
		// kv checkpoint codec.
		{"kv.checkpoint_save_ms", "ms", "lower"},
		{"kv.checkpoint_restore_ms", "ms", "lower"},
		{"kv.checkpoint_bytes", "bytes", "lower"},
		// the engines no workload targets yet.
		{"lethe.ops_per_s", "ops/s", "higher"},
		{"faster.ops_per_s", "ops/s", "higher"},
		{"btree.ops_per_s", "ops/s", "higher"},
		// process.
		{"proc.allocs_per_op", "count", "lower"},
		{"proc.alloc_bytes_per_op", "bytes", "lower"},
		{"proc.gc_pause_ms", "ms", "lower"},
		{"proc.heap_peak_mb", "MB", "lower"},
	}...)
}()
