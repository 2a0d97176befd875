//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names, units, directions
//! and bounds, and a unit test holds the two equal.

/// `(name, unit, better, bound)`: metrics a user of the fabric would see.
/// `bound` is the share of the parent's median by which the metric may
/// worsen before a change is a regression; the calibration behind each
/// value is in the README.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("throughput_txn_s", "txn/s", "higher", 0.25),
    ("cpu_us_per_txn", "us", "lower", 0.25),
    ("commit_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("rss_first_50ktxn_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)`: metrics of single layers; the module names of
/// the workspace are the layers.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // rdb-crypto (replay)
    ("crypto.sha256_ns_per_byte", "ns", "lower"),
    ("crypto.sign_ns", "ns", "lower"),
    ("crypto.verify_ns", "ns", "lower"),
    ("crypto.hmac_ns", "ns", "lower"),
    // rdb-consensus (replay)
    ("codec.encode_ns_per_kb", "ns", "lower"),
    ("codec.decode_ns_per_kb", "ns", "lower"),
    ("codec.frame_bytes_per_txn", "bytes", "lower"),
    ("stage.verify_ns_per_msg", "ns", "lower"),
    ("consensus.order_ns_per_decision.geobft", "ns", "lower"),
    ("consensus.order_ns_per_decision.pbft", "ns", "lower"),
    ("consensus.msgs_per_decision.geobft", "count", "lower"),
    ("consensus.msgs_per_decision.pbft", "count", "lower"),
    (
        "consensus.global_bytes_per_decision.geobft",
        "bytes",
        "lower",
    ),
    // rdb-store (replay)
    ("store.execute_batch_ns_per_txn", "ns", "lower"),
    ("store.read_ns", "ns", "lower"),
    ("store.write_ns", "ns", "lower"),
    ("store.state_digest_ns", "ns", "lower"),
    // rdb-ledger (replay)
    ("ledger.append_ns_per_block", "ns", "lower"),
    ("ledger.block_hash_ns", "ns", "lower"),
    ("ledger.verify_ns_per_block", "ns", "lower"),
    // rdb-storage (replay)
    ("storage.apply_ns_per_batch", "ns", "lower"),
    ("storage.block_json_encode_ns", "ns", "lower"),
    ("storage.wal_bytes_per_batch", "bytes", "lower"),
    ("storage.write_amp", "ratio", "lower"),
    ("storage.flushes_per_kbatch", "count", "lower"),
    ("storage.compactions_per_kbatch", "count", "lower"),
    ("storage.flush_ms", "ms", "lower"),
    ("storage.reopen_ms", "ms", "lower"),
    ("storage.get_ns", "ns", "lower"),
    // resilientdb (the fabric run's DeploymentReport + client-side timings)
    ("pipeline.verify.busy_us_per_txn", "us", "lower"),
    ("pipeline.order.busy_us_per_txn", "us", "lower"),
    ("pipeline.execute.busy_us_per_txn", "us", "lower"),
    ("pipeline.order.blocked_us_per_txn", "us", "lower"),
    ("pipeline.execute.blocked_us_per_txn", "us", "lower"),
    ("pipeline.output.blocked_us_per_txn", "us", "lower"),
    ("pipeline.input.shed_per_ktxn", "count", "lower"),
    ("pipeline.msgs_per_txn", "count", "lower"),
    ("pipeline.blocks_per_batch", "ratio", "lower"),
    ("pipeline.replica_lag_blocks", "count", "lower"),
    ("socket.bytes_per_txn", "bytes", "lower"),
    ("socket.wan_bytes_per_txn", "bytes", "lower"),
    ("socket.frames_per_txn", "count", "lower"),
    ("socket.reconnects", "count", "lower"),
    ("core_storage.wal_bytes_per_txn", "bytes", "lower"),
    ("core_storage.run_bytes_per_txn", "bytes", "lower"),
    ("core_storage.write_amp", "ratio", "lower"),
    ("core_storage.flushes", "count", "lower"),
    ("core_storage.compactions", "count", "lower"),
    ("core_storage.restart_recover_s", "s", "lower"),
    ("service.submit_us_p50", "us", "lower"),
    ("service.wait_us_p50", "us", "lower"),
    ("service.commit_p99_ms", "ms", "lower"),
    ("service.commit_p999_ms", "ms", "lower"),
    ("service.commit_max_ms", "ms", "lower"),
    ("service.samples", "count", "higher"),
    ("service.session_open_us", "us", "lower"),
    ("service.shutdown_s", "s", "lower"),
    ("service.generator_late_ms_max", "ms", "lower"),
    ("service.peak_rss_mb", "MB", "lower"),
    ("transport.inproc_roundtrip_us", "us", "lower"),
    ("transport.tcp_roundtrip_us", "us", "lower"),
    // rdb-simnet
    ("simnet.modeled_txn_s", "txn/s", "higher"),
    ("simnet.wall_ms_per_kdecision", "ms", "lower"),
    ("simnet.modeled_over_measured", "ratio", "lower"),
    // rdb-workload
    ("workload.gen_ns_per_txn", "ns", "lower"),
    // the benchmark's own tracing
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}
