package main

// The benchmark's names. BENCHMARK.json at the repository root lists the
// same workloads and metrics with their reasons, directions and bounds;
// TestNamesMatchBenchmarkJSON keeps the two from drifting.

var workloadNames = []string{"lock-read", "engine-read", "engine-write", "wire-mixed", "http-cluster"}

type metricDef struct{ name, unit string }

// endToEnd is what an untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"mem_bytes_per_item", "bytes"},
	{"setup_s", "s"},
}

// sizedSpread is, per (workload, timed end-to-end metric), the worse of the
// two ten-pass spreads (interquartile range ÷ median) recorded under sizing/
// when the bounds were set. BENCHMARK.json can carry one bound per metric,
// which the noisiest workload sets; pairBound is the issue's finer rule, for
// sizing a change with paired --repeat runs.
var sizedSpread = map[string]map[string]float64{
	"lock-read":    {"ops_per_s": 0.0478, "read_p50_us": 0.0088, "write_p50_us": 0.0563},
	"engine-read":  {"ops_per_s": 0.1579, "read_p50_us": 0.0626, "write_p50_us": 0.1398},
	"engine-write": {"ops_per_s": 0.1214, "read_p50_us": 0.1580, "write_p50_us": 0.0998},
	"wire-mixed":   {"ops_per_s": 0.0702, "read_p50_us": 0.0488, "write_p50_us": 0.0347},
	"http-cluster": {"ops_per_s": 0.0530, "read_p50_us": 0.0498, "write_p50_us": 0.0575},
}

// pairBound is the issue's bound for one (workload, metric) pair: the larger
// of its 7 % default and twice the sized spread. A pair that spread by more
// than 10 % is not resolved below the gate's bound, and a metric that was
// not sized pair by pair has only the gate's: ok is false for both.
func pairBound(workload, metric string) (bound float64, ok bool) {
	spread, sized := sizedSpread[workload][metric]
	if !sized || spread > 0.10 {
		return 0, false
	}
	return max(0.07, 2*spread), true
}

// ungated are the issue's end-to-end metrics that BENCHMARK.json cannot gate
// — one is 0 by design, one only one workload measures, two do not repeat
// within any bound the contract allows (README, "What became of the issue's
// eleven"). An end-to-end run prints those it measured and --repeat their
// spread, so the evidence stays in view; nothing gates them.
var ungated = []metricDef{
	{"loadgen.read_p99_us", "us"},
	{"loadgen.write_p99_us", "us"},
	{"loadgen.allocs_per_op", "count"},
	{"loadgen.failed_frac", "ratio"},
	{"kvs.recovery_s", "s"},
}

// perLayer is what a traced run prints, for every workload: the ladder's
// rungs, the layers' own counters under the workload that exercises them,
// and the load generator's view of the selected workload.
var perLayer = []metricDef{
	{"bias.slot_ns", "ns"},
	{"bias.fast_frac", "ratio"},
	{"bias.revocations_per_s", "1/s"},
	{"bias.revoke_us_mean", "us"},
	{"bias.revoke_scanned_per_write", "count"},

	{"core.rlock_ns", "ns"},
	{"core.rlock_base_ns", "ns"},
	{"core.wlock_ns", "ns"},
	{"core.base_ops_per_s", "1/s"},
	{"core.speedup_vs_base", "ratio"},
	{"core.scale_1_to_w", "ratio"},

	{"kvs.get_ns", "ns"},
	{"kvs.get_allocs", "count"},
	{"kvs.mget16_ns", "ns"},
	{"kvs.put_ns", "ns"},
	{"kvs.seq_read_frac", "ratio"},
	{"kvs.get_locked_ns", "ns"},
	{"kvs.get_locked_adaptive_ns", "ns"},
	{"kvs.seq_retries_per_kread", "count"},
	{"kvs.seq_fallback_frac", "ratio"},
	{"kvs.put_wal_none_ns", "ns"},
	{"kvs.cas_ns", "ns"},
	{"kvs.txn4_ns", "ns"},
	{"kvs.wal_bytes_per_user_byte", "ratio"},
	{"kvs.wal_keys_per_record", "count"},
	{"kvs.wal_errors", "count"},
	{"kvs.checkpoint_ms", "ms"},
	{"kvs.recovery_s", "s"},
	{"kvs.reopen_ms", "ms"},
	{"kvs.recover_keys_per_s", "1/s"},
	{"kvs.put_wal_always_us", "us"},
	{"kvs.mput16_wal_always_us", "us"},
	{"kvs.wal_syncs_per_kwrite", "count"},

	{"frame.seal_split_ns", "ns"},
	{"wire.codec_get_ns", "ns"},
	{"wire.codec_get_allocs", "count"},
	{"wire.codec_mput16_ns", "ns"},
	{"wire.get_rtt_us", "us"},
	{"wire.put_rtt_us", "us"},
	{"wire.get_allocs", "count"},
	{"wire.mixed_allocs_per_op", "count"},
	{"kvserv.wire_self_us", "us"},

	{"kvserv.http_get_us", "us"},
	{"kvserv.http_put_us", "us"},
	{"kvserv.http_get_allocs", "count"},
	{"kvserv.http_cluster_get_us", "us"},
	{"kvserv.wire_cluster_get_us", "us"},
	{"cluster.route_ns", "ns"},
	{"cluster.get_ns", "ns"},
	{"cluster.put_ns", "ns"},
	{"cluster.failover_ms", "ms"},

	{"repl.visibility_us", "us"},
	{"repl.catchup_ms", "ms"},
	{"repl.follower_get_ns", "ns"},
	{"repl.reconnects", "count"},

	{"loadgen.clock_ns", "ns"},
	{"loadgen.loopback_rtt_us", "us"},
	{"loadgen.samples_read", "count"},
	{"loadgen.samples_write", "count"},
	{"loadgen.read_p99_us", "us"},
	{"loadgen.read_p999_us", "us"},
	{"loadgen.write_p99_us", "us"},
	{"loadgen.allocs_per_op", "count"},
	{"loadgen.failed_frac", "ratio"},
	{"loadgen.trace_overhead_frac", "ratio"},
}
