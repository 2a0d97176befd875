//! Execution lanes: run the same YCSB deployment with the execute stage
//! split into key-sharded lanes and watch the per-lane counters — each
//! key executes on lane `key % lanes`, key-disjoint batches apply in
//! parallel, conflicting batches serialize per shard, and commit-order
//! retirement keeps the committed chain byte-identical at any lane
//! count.
//!
//! ```bash
//! cargo run --release --example exec_lanes
//! ```

use rdb_consensus::config::ProtocolKind;
use rdb_consensus::stage::Stage;
use rdb_crypto::digest::Digest;
use resilientdb::{DeploymentBuilder, DeploymentReport};
use std::time::Duration;

/// A height both runs comfortably reach; with a single closed-loop
/// client the proposal order is deterministic, so the chain below it is
/// the same in both runs.
const COMPARE_HEIGHT: u64 = 10;

fn run(lanes: usize) -> DeploymentReport {
    DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(20)
        .clients(1)
        .records(100_000)
        .seed(42)
        .exec_lanes(lanes)
        .duration(Duration::from_millis(800))
        .run()
}

fn main() {
    println!("ResilientDB execution lanes: PBFT 1x4, 1 lane vs 4 lanes\n");

    let mut digests: Vec<(usize, u64, Digest)> = Vec::new();
    for lanes in [1usize, 4] {
        let report = run(lanes);
        report
            .audit_ledgers()
            .expect("replicas committed divergent chains");
        report
            .audit_execution_stage()
            .expect("materialized tables diverged from ledger heads");

        println!(
            "lanes={lanes}: {:>8.0} txn/s, {} decisions, {} committed blocks",
            report.throughput_txn_s,
            report.decided,
            report.common_prefix_blocks()
        );
        // One row per lane: jobs and operations applied, time spent
        // applying, and how long the commit-order retirement head waited
        // on the lane (conflict-stall: batches serialized on its shards).
        for (lane, occupancy) in report.exec_lane_occupancy() {
            let row = &report.stages.lanes[lane];
            println!(
                "  lane {lane}: {:>5} jobs {:>6} ops  occupancy {:>5.2}%  stalled {:?}",
                row.batches,
                row.ops,
                100.0 * occupancy,
                row.stalled
            );
        }
        // Every decision the execute stage processed is accounted to a
        // lane.
        let lane_jobs: u64 = report.stages.lanes.iter().map(|l| l.batches).sum();
        assert!(
            lane_jobs >= report.stages.row(Stage::Execute).processed,
            "lane accounting lost decisions"
        );

        // Remember the post-execution state at a height both runs reach,
        // to compare across lane counts below.
        assert!(
            report.common_prefix_blocks() >= COMPARE_HEIGHT,
            "run too short to compare (reached {})",
            report.common_prefix_blocks()
        );
        let observer = report.ledgers.values().next().expect("a ledger");
        let digest = observer
            .block(COMPARE_HEIGHT)
            .map(|b| b.state_digest)
            .unwrap_or(Digest::ZERO);
        digests.push((lanes, report.common_prefix_blocks(), digest));
        println!();
    }

    // Lanes change timing, never content: both runs replay the same
    // seeded workload through the same consensus order, so the chain —
    // and with it the post-execution state digest at any shared height —
    // is identical whatever the lane count.
    for (lanes, height, digest) in &digests {
        println!(
            "lanes={lanes}: committed {height} blocks, state at height {COMPARE_HEIGHT} = {}",
            digest.short_hex()
        );
    }
    let first = digests[0].2;
    assert!(
        digests.iter().all(|(_, _, d)| *d == first),
        "lane count changed the executed state"
    );
    println!("\nthe committed chain is lane-count invariant; only the lane occupancy shifts");
}
