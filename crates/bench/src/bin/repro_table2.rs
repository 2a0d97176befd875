//! Table 2 reproduction: normal-case decision and communication metrics
//! of the five protocols.
//!
//! The paper states asymptotic message complexity per consensus decision
//! for a system of `z` clusters with `n` replicas each (`f` faulty per
//! cluster):
//!
//! | protocol  | decisions | local       | global   | centralized |
//! |-----------|-----------|-------------|----------|-------------|
//! | GeoBFT    | z         | O(2 z n^2)  | O(f z^2) | no          |
//! | Steward   | 1         | O(2 z n^2)  | O(z^2)   | yes         |
//! | Zyzzyva   | 1         | O(z n)      |          | yes         |
//! | Pbft      | 1         | O(2 (zn)^2) |          | yes         |
//! | HotStuff  | 1         | O(8 zn)     |          | partly      |
//!
//! This binary measures actual messages per decision in the simulator and
//! prints them next to the formula's value. GeoBFT rows are per *round*
//! (`z` decisions), matching the table's framing.

#![forbid(unsafe_code)]

use rdb_bench::{Report, ReproArgs};
use rdb_consensus::config::ProtocolKind;
use rdb_simnet::Scenario;

fn formula(kind: ProtocolKind, z: f64, n: f64, f: f64) -> (f64, Option<f64>) {
    match kind {
        ProtocolKind::GeoBft => (2.0 * z * n * n, Some(f * z * z)),
        ProtocolKind::Steward => (2.0 * z * n * n, Some(z * z)),
        ProtocolKind::Zyzzyva => (z * n, None),
        ProtocolKind::Pbft => (2.0 * (z * n) * (z * n), None),
        ProtocolKind::HotStuff => (8.0 * z * n, None),
    }
}

fn main() {
    let args = ReproArgs::parse();
    let (z, n) = (4usize, 4usize);
    let f = (n - 1) / 3;
    let mut report = Report::new(format!(
        "Table 2: normal-case communication per decision (z={z}, n={n}, f={f})"
    ));

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>10}  centralized",
        "protocol", "decisions", "meas.local", "meas.global", "formula", "f.global"
    );
    for kind in ProtocolKind::ALL {
        let mut s = Scenario::paper(kind, z, n).quick();
        s.logical_clients = 20_000;
        let m = s.run();
        let (local, global) = (m.msgs_local_per_decision, m.msgs_global_per_decision);
        let (f_total, f_global) = formula(kind, z as f64, n as f64, f as f64);
        let decisions = if kind == ProtocolKind::GeoBft {
            format!("{z} (round)")
        } else {
            "1".to_string()
        };
        let centralized = match kind {
            ProtocolKind::GeoBft => "no",
            ProtocolKind::HotStuff => "partly",
            _ => "yes",
        };
        println!(
            "{:<10} {:>10} {:>12.1} {:>12.1} {:>12.0} {:>10}  {}",
            kind.name(),
            decisions,
            local,
            global,
            f_total,
            f_global.map_or("-".to_string(), |v| format!("{v:.0}")),
            centralized,
        );
        report.push(m);
    }

    println!();
    println!("Notes: measured counts include client requests, replies and");
    println!("checkpoints, which the asymptotic formulas omit. The key check is");
    println!("GeoBFT's global column: (z-1)*z*(f+1) certificate messages per round");
    println!("= O(f z^2), the lowest global cost of any protocol, while only");
    println!("GeoBFT and Steward keep the quadratic term local.");
    report.write_json(&args);
}
