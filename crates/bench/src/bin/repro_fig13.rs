//! Figure 13 reproduction: throughput as a function of the batch size;
//! z = 4 regions, n = 7 replicas per cluster.
//!
//! Paper setup (§4.4): batch size in {10, 50, 100, 200, 300}, 160 k
//! clients.
//!
//! Expected shape: the single-primary protocols (Pbft, Zyzzyva, Steward)
//! plateau early — "bottlenecked by the bandwidth of the single primary" —
//! while GeoBFT (primaries in each region) and HotStuff (rotating
//! primaries) keep scaling with the batch size. GeoBFT reaches up to 6x
//! Pbft and up to 1.6x HotStuff.

#![forbid(unsafe_code)]

use rdb_bench::{ratio, Report, ReproArgs};
use rdb_consensus::config::ProtocolKind;
use rdb_simnet::Scenario;

fn main() {
    let args = ReproArgs::parse();
    let mut report = Report::new("Figure 13: throughput vs batch size (z = 4, n = 7)");

    let batches: Vec<usize> = if args.quick {
        vec![10, 100, 300]
    } else {
        vec![10, 50, 100, 200, 300]
    };
    for kind in ProtocolKind::ALL {
        for &b in &batches {
            let mut s = Scenario::paper(kind, 4, 7).with_batch_size(b);
            if args.quick {
                s = s.quick();
                s.logical_clients = 40_000;
            }
            report.push(s.run());
        }
    }

    let xs: Vec<String> = batches.iter().map(|b| b.to_string()).collect();
    report.matrix(
        "batch size",
        &xs,
        |m| m.batch.to_string(),
        |m| m.throughput_txn_s,
        "throughput (txn/s)",
    );

    let max_b = *batches.last().expect("non-empty");
    let get = |proto: &str| {
        report
            .points()
            .iter()
            .find(|m| m.protocol == proto && m.batch == max_b)
            .map(|m| m.throughput_txn_s)
            .unwrap_or(0.0)
    };
    println!();
    println!(
        "at batch {max_b}: GeoBFT/Pbft = {:.2}x (paper: up to 6.0x), GeoBFT/HotStuff = {:.2}x (paper: up to 1.6x)",
        ratio(get("GeoBFT"), get("Pbft")),
        ratio(get("GeoBFT"), get("HotStuff")),
    );
    report.write_json(&args);
}
