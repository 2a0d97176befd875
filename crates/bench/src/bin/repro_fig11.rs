//! Figure 11 reproduction: throughput and latency as a function of the
//! number of replicas per cluster, with `z = 4` regions (Oregon, Iowa,
//! Montreal, Belgium).
//!
//! Paper setup (§4.2): n in {4, 7, 10, 12, 15}; batch size 100.
//!
//! Expected shape: PBFT/Zyzzyva/Steward barely react to n (their
//! bottleneck is the primary's WAN communication); HotStuff loses
//! throughput and especially latency as n grows (quorum certificates grow
//! with N); GeoBFT degrades mildly (certificate size and sharing fanout
//! are functions of f) but stays on top — still ~2.9x PBFT and ~1.2x
//! HotStuff at n = 15.

#![forbid(unsafe_code)]

use rdb_bench::{ratio, Report, ReproArgs};
use rdb_consensus::config::ProtocolKind;
use rdb_simnet::Scenario;

fn main() {
    let args = ReproArgs::parse();
    let mut report = Report::new("Figure 11: throughput/latency vs replicas per cluster (z = 4)");

    let ns: Vec<usize> = if args.quick {
        vec![4, 7]
    } else {
        vec![4, 7, 10, 12, 15]
    };
    for kind in ProtocolKind::ALL {
        for &n in &ns {
            let mut s = Scenario::paper(kind, 4, n);
            if args.quick {
                s = s.quick();
                s.logical_clients = 40_000;
            }
            report.push(s.run());
        }
    }

    let xs: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
    report.matrix(
        "replicas per cluster",
        &xs,
        |m| m.n.to_string(),
        |m| m.throughput_txn_s,
        "throughput (txn/s)",
    );
    report.matrix(
        "replicas per cluster",
        &xs,
        |m| m.n.to_string(),
        |m| m.avg_latency_s,
        "latency (s)",
    );

    let max_n = *ns.last().expect("non-empty");
    let get = |proto: &str| {
        report
            .points()
            .iter()
            .find(|m| m.protocol == proto && m.n == max_n)
            .map(|m| m.throughput_txn_s)
            .unwrap_or(0.0)
    };
    println!();
    println!(
        "at n = {max_n}: GeoBFT/Pbft = {:.2}x (paper: 2.9x), GeoBFT/HotStuff = {:.2}x (paper: 1.2x)",
        ratio(get("GeoBFT"), get("Pbft")),
        ratio(get("GeoBFT"), get("HotStuff")),
    );
    report.write_json(&args);
}
