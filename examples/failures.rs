//! Failure handling walkthrough: GeoBFT's remote view-change protocol
//! (§2.3, Figure 7 of the paper) in action.
//!
//! We make the primary of the Oregon cluster *Byzantine*: it participates
//! in local replication but never shares commit certificates with the
//! other clusters (case (1) of Example 2.4 — indistinguishable, from a
//! single message, from a faulty receiver). The other clusters detect the
//! missing certificates, agree locally via DRVC, send signed RVC requests
//! to their same-index peers in Oregon, and force Oregon through a local
//! view change; the new primary resumes sharing.
//!
//! ```bash
//! cargo run --release --example failures
//! ```

use rdb_common::ids::ReplicaId;
use rdb_common::time::SimDuration;
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::AdversarySpec;
use rdb_simnet::{FaultSpec, Scenario};

fn run(label: &str, faults: Vec<FaultSpec>, adversaries: Vec<(ReplicaId, AdversarySpec)>) {
    let mut s = Scenario::paper(ProtocolKind::GeoBft, 3, 4).quick();
    s.logical_clients = 30_000;
    s.cfg.remote_timeout = SimDuration::from_millis(250);
    s.cfg.progress_timeout = SimDuration::from_millis(400);
    s.cfg.client_retry = SimDuration::from_millis(800);
    s.faults = faults;
    s.adversaries = adversaries;
    let m = s.run();
    println!(
        "{label:<42} {:>9.0} txn/s   latency {:>6.3}s",
        m.throughput_txn_s, m.avg_latency_s
    );
}

fn main() {
    println!("GeoBFT, 3 clusters x 4 replicas (f = 1 per cluster):\n");
    run("healthy deployment", vec![], vec![]);
    run(
        "Byzantine Oregon primary (withholds certs)",
        vec![],
        vec![(ReplicaId::new(0, 0), AdversarySpec::SuppressGlobalShare)],
    );
    run(
        "crashed backup in every cluster (f each)",
        (0..3u16)
            .map(|c| FaultSpec::crash_at_secs(ReplicaId::new(c, 3), 0.0))
            .collect(),
        vec![],
    );
    run(
        "Oregon primary crashes mid-run",
        vec![FaultSpec::crash_at_secs(ReplicaId::new(0, 0), 1.0)],
        vec![],
    );
    println!("\nIn all faulty runs the system keeps committing: the remote");
    println!("view-change protocol replaces the withholding/crashed primary and");
    println!("the new primary resumes certificate sharing (Theorem 2.7).");
}
