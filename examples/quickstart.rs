//! Quickstart: spin up a real, in-process ResilientDB deployment running
//! GeoBFT — two clusters of four replicas on OS threads, real ED25519-style
//! signatures, real YCSB execution — drive it through the client service
//! API, and inspect the resulting blockchain.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use rdb_common::ids::ClusterId;
use rdb_consensus::config::ProtocolKind;
use rdb_store::{ExecOutcome, Operation, Value};
use resilientdb::DeploymentBuilder;
use std::time::Duration;

fn main() {
    println!("ResilientDB quickstart: GeoBFT, 2 clusters x 4 replicas, in-process\n");

    // `start()` returns a live fabric: replicas are up, serving, and
    // waiting for clients.
    let fabric = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(10)
        .records(10_000)
        .start();

    // One write and one read-back through an open-loop session — the
    // programmatic surface (see examples/kv_service.rs for more).
    let session = fabric.session(ClusterId(0));
    let write = session
        .submit_one(Operation::Write {
            key: 99,
            value: Value::from_u64(4242),
        })
        .wait();
    println!(
        "write committed: seq {}, block {}, {} attestations",
        write.seq,
        write.block_height,
        write.quorum_size()
    );
    let read = session.submit_one(Operation::Read { key: 99 }).wait();
    let ExecOutcome::ReadValue(Some(v)) = &read.results.outcomes[0] else {
        panic!("read returns the committed value");
    };
    println!(
        "read back:       counter {} (with f+1 proof)\n",
        v.counter()
    );

    // The paper's closed-loop YCSB benchmark, riding the same API: attach
    // workload clients, let them hammer the fabric, then shut down and
    // collect the report.
    fabric.spawn_ycsb_clients(4);
    std::thread::sleep(Duration::from_secs(2));
    let report = fabric.shutdown();

    println!("throughput:        {:>10.0} txn/s", report.throughput_txn_s);
    println!("completed batches: {:>10}", report.completed_batches);
    println!("mean latency:      {:>10.2?}", report.avg_latency);
    println!("p50 latency:       {:>10.2?}", report.p50_latency);
    println!("p99 latency:       {:>10.2?}", report.p99_latency);
    println!("p999 latency:      {:>10.2?}", report.p999_latency);

    // Every replica independently maintains the full blockchain (§3 of the
    // paper). Verify integrity and agreement.
    let common = report
        .audit_ledgers()
        .expect("ledger audit must pass on a healthy deployment");
    println!("\nledger audit: all replicas agree on {common} blocks");

    // Walk the first few blocks of one replica's chain.
    let (rid, ledger) = report.ledgers.iter().next().expect("at least one replica");
    println!("\nblockchain of replica {rid} (first blocks):");
    for block in ledger.blocks().iter().take(5) {
        println!(
            "  height {:>3}  hash {}  parent {}  txns {:>3}  client {}",
            block.height,
            block.hash(),
            block.parent,
            block.batch.batch.len(),
            block.batch.batch.client,
        );
    }
    println!("  ... ({} blocks total)", ledger.len());
}
