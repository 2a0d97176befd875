//! Wire transport: run the same PBFT deployment twice — once over the
//! default in-process channel mesh and once over real loopback TCP
//! connections — and verify that serialization changed the *bytes
//! moved*, never the *chain committed*. Every message crosses the socket
//! as a length-prefixed `rdb_consensus::codec` frame, padded to the
//! paper's §4 wire-size model, so the per-link byte counters line up
//! with the bandwidth model the WAN scale claims are built on.
//!
//! ```bash
//! cargo run --release --example wire_transport
//! ```

use rdb_common::ids::ReplicaId;
use rdb_consensus::config::ProtocolKind;
use resilientdb::{DeploymentBuilder, DeploymentReport, TransportMode};
use std::time::Duration;

fn run(mode: TransportMode) -> DeploymentReport {
    DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(1)
        .records(500)
        .seed(7)
        .transport_mode(mode)
        .duration(Duration::from_millis(900))
        .run()
}

fn main() {
    println!("ResilientDB wire transport: PBFT 1x4, in-process vs loopback TCP\n");

    let inproc = run(TransportMode::InProcess);
    let socket = run(TransportMode::Tcp);

    for (label, report) in [("in-process", &inproc), ("tcp", &socket)] {
        println!(
            "{label:>10}: {:>8.0} txn/s, {} batches, {} decisions, net: {}",
            report.throughput_txn_s,
            report.completed_batches,
            report.decided,
            report.net.summary(),
        );
    }

    // Both runs committed, agreed, and audit clean.
    for (label, report) in [("in-process", &inproc), ("tcp", &socket)] {
        assert!(report.completed_batches > 0, "{label}: no progress");
        report
            .audit_ledgers()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        report
            .audit_execution_stage()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }

    // Same workload, same seed => byte-identical chains over the common
    // prefix. The transport may only change timing, never content.
    let observer = ReplicaId::new(0, 0);
    let prefix = rdb_scenario::harness::assert_identical_prefix(
        &inproc.ledgers[&observer],
        &socket.ledgers[&observer],
        1,
        "in-process vs tcp",
    );
    println!("\nchains byte-identical over {prefix} blocks");

    // Only the socket run moved real bytes, and every loaded link
    // accounted frames behind them.
    assert!(inproc.net.links.is_empty());
    assert!(!socket.net.links.is_empty());
    assert!(socket.net.total_bytes_out() > 0);
    let busiest = socket
        .net
        .links
        .iter()
        .max_by_key(|l| l.bytes_out)
        .expect("links exist");
    println!(
        "busiest link {} -> {}: {} frames, {} bytes out, {} reconnects",
        busiest.from, busiest.to, busiest.frames_out, busiest.bytes_out, busiest.reconnects
    );
    println!("\nwire transport OK");
}
