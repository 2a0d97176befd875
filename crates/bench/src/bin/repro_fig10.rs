//! Figure 10 reproduction: throughput and latency as a function of the
//! number of clusters (regions), with `z * n = 60` replicas total.
//!
//! Paper setup (§4.1): 60 replicas evenly distributed over 1..6 regions
//! in the order Oregon, Iowa, Montreal, Belgium, Taiwan, Sydney; YCSB
//! write-only, batch size 100, 160 k clients.
//!
//! Expected shape: GeoBFT is the only protocol that *gains* throughput
//! from added regions (decentralized parallel consensus, minimal global
//! communication); PBFT/Zyzzyva fall off sharply once WAN links join;
//! HotStuff declines mildly but pays 4-phase latency; Steward stays low.
//! GeoBFT outperforms PBFT by up to ~3.1x and HotStuff by up to ~1.3x.

#![forbid(unsafe_code)]

use rdb_bench::{ratio, Report, ReproArgs};
use rdb_consensus::config::ProtocolKind;
use rdb_simnet::Scenario;

fn main() {
    let args = ReproArgs::parse();
    let mut report = Report::new("Figure 10: throughput/latency vs number of clusters (zn = 60)");

    let zs: Vec<usize> = if args.quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 3, 4, 5, 6]
    };
    for kind in ProtocolKind::ALL {
        for &z in &zs {
            let n = 60 / z;
            let mut s = Scenario::paper(kind, z, n);
            if args.quick {
                s = s.quick();
                s.logical_clients = 40_000;
            }
            report.push(s.run());
        }
    }

    let xs: Vec<String> = zs.iter().map(|z| z.to_string()).collect();
    report.matrix(
        "clusters",
        &xs,
        |m| m.z.to_string(),
        |m| m.throughput_txn_s,
        "throughput (txn/s)",
    );
    report.matrix(
        "clusters",
        &xs,
        |m| m.z.to_string(),
        |m| m.avg_latency_s,
        "latency (s)",
    );

    // Headline factors at the largest deployment.
    let max_z = *zs.last().expect("non-empty");
    let get = |proto: &str| {
        report
            .points()
            .iter()
            .find(|m| m.protocol == proto && m.z == max_z)
            .map(|m| m.throughput_txn_s)
            .unwrap_or(0.0)
    };
    println!();
    println!(
        "at z = {max_z}: GeoBFT/Pbft = {:.2}x (paper: up to 3.1x), GeoBFT/HotStuff = {:.2}x (paper: up to 1.3x)",
        ratio(get("GeoBFT"), get("Pbft")),
        ratio(get("GeoBFT"), get("HotStuff")),
    );
    report.write_json(&args);
}
