package main

// def names one metric as BENCHMARK.json does; harness_test.go holds the two
// lists to that file.
type def struct {
	name, unit string
	// End-to-end only: the direction, and the share of the parent's
	// median by which the metric may get worse.
	higherIsBetter bool
	bound          float64
}

var endToEndDefs = []def{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.15},
	{"latency_p50_ms", "ms", false, 0.15},
	{"latency_p95_ms", "ms", false, 0.20},
	{"cpu_s_per_kop", "s", false, 0.15},
	{"peak_rss_mb", "MB", false, 0.15},
	{"stored_bytes_per_user_byte", "ratio", false, 0.02},
}

var perLayerDefs = []def{
	// Every workload.
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "client.latency_max_ms", unit: "ms"},
	{name: "blend.allocs_per_op", unit: "count"},
	{name: "blend.alloc_bytes_per_op", unit: "B"},
	{name: "blend.gc_pause_ms_total", unit: "ms"},
	{name: "datalake.gen_s", unit: "s"},
	{name: "blend.index_build_cells_per_s", unit: "1/s"},
	{name: "storage.save_ms", unit: "ms"},
	{name: "storage.disk_bytes", unit: "B"},
	{name: "storage.estimated_mem_bytes", unit: "B"},
	{name: "xash.hash_ns_per_row", unit: "ns"},
	// seek_native (the storage probe also on cold_open, core.native_share
	// also on serve_mixed).
	{name: "blend.seek_ms_p50.sc", unit: "ms"},
	{name: "blend.seek_ms_p50.kw", unit: "ms"},
	{name: "blend.seek_ms_p50.mc", unit: "ms"},
	{name: "blend.seek_ms_p50.corr", unit: "ms"},
	{name: "blend.seek_ms_p50.sem", unit: "ms"},
	{name: "blend.seek_ms_p50.snap", unit: "ms"},
	{name: "core.native_share", unit: "ratio"},
	{name: "core.rows_per_hit.sc", unit: "count"},
	{name: "core.rows_per_hit.kw", unit: "count"},
	{name: "core.rows_per_hit.mc", unit: "count"},
	{name: "core.rows_per_hit.corr", unit: "count"},
	{name: "core.mc_candidates_per_op", unit: "count"},
	{name: "core.mc_validated_share", unit: "ratio"},
	{name: "storage.postings_per_seek", unit: "count"},
	{name: "storage.scan_postings_per_s", unit: "1/s"},
	// sql_adhoc.
	{name: "minisql.parse_us_p50", unit: "us"},
	{name: "minisql.exec_ms_p50.seeker", unit: "ms"},
	{name: "minisql.exec_ms_p50.agg", unit: "ms"},
	{name: "minisql.exec_ms_p50.join", unit: "ms"},
	{name: "minisql.rows_out_per_op", unit: "count"},
	// serve_mixed.
	{name: "service.serve_ms_p50", unit: "ms"},
	{name: "service.self_ms_p50", unit: "ms"},
	{name: "service.resp_bytes_per_op", unit: "B"},
	{name: "service.non2xx_share", unit: "ratio"},
	{name: "client.net_ms_p50", unit: "ms"},
	{name: "client.write_latency_p50_ms", unit: "ms"},
	{name: "client.write_latency_p95_ms", unit: "ms"},
	{name: "gen.late_ms_p95", unit: "ms"},
	{name: "blend.run_ms_p50", unit: "ms"},
	{name: "core.plan_overhead_ms_p50", unit: "ms"},
	{name: "core.seeker_ms_share", unit: "ratio"},
	{name: "core.rewritten_share", unit: "ratio"},
	{name: "core.cache_hit_share", unit: "ratio"},
	{name: "core.cache_invalidations", unit: "count"},
	{name: "core.publish_ms_p50", unit: "ms"},
	{name: "core.generations_published", unit: "count"},
	{name: "core.compact_ms", unit: "ms"},
	{name: "core.read_p50_during_compact_ms", unit: "ms"},
	{name: "storage.wal_bytes_per_user_byte", unit: "ratio"},
	{name: "storage.wal_replay_ms", unit: "ms"},
	{name: "table.parse_csv_mb_per_s", unit: "MB/s"},
	// cold_open.
	{name: "storage.open_ms_p50", unit: "ms"},
	{name: "storage.first_touch_ms_p50", unit: "ms"},
	{name: "storage.close_ms_p50", unit: "ms"},
	{name: "storage.resident_shards_after_first", unit: "count"},
	{name: "storage.mapped_bytes", unit: "B"},
}
