//! Scenario-suite runner: SmallBank transfers, multi-key token RMWs, a
//! healing network partition, and one equivocating primary per protocol
//! (PBFT, GeoBFT, Zyzzyva, HotStuff).
//!
//! `--quick` runs the deterministic simulator only: two invocations of
//! `repro_scenarios --quick --json <path>` must produce byte-identical
//! output (the CI `scenarios` job diffs exactly that). Without `--quick`
//! every scenario *additionally* runs on the threaded fabric and the
//! cross-runtime assertions fire: byte-identical committed ledgers for
//! the fault-free scenarios, honest-replica agreement plus a progress
//! floor for the fault scripts.

#![forbid(unsafe_code)]

use rdb_bench::ReproArgs;
use rdb_scenario::{run_all, Mode};
use std::fs::File;
use std::io::Write as _;

fn main() {
    let args = ReproArgs::parse();
    let mode = if args.quick { Mode::Quick } else { Mode::Full };
    println!("==== Scenario suite: transaction programs under faults ====");
    let outcomes = run_all(mode);

    println!(
        "{:<26} {:>9} {:>8} {:>9} {:>7} {:>8}  state digest",
        "scenario", "protocol", "blocks", "programs", "aborts", "abort%"
    );
    for o in &outcomes {
        let pct = if o.programs > 0 {
            100.0 * o.aborts as f64 / o.programs as f64
        } else {
            0.0
        };
        println!(
            "{:<26} {:>9} {:>8} {:>9} {:>7} {:>7.1}%  {}..",
            o.scenario,
            o.protocol,
            o.blocks,
            o.programs,
            o.aborts,
            pct,
            &o.state_digest[..16.min(o.state_digest.len())]
        );
    }
    if mode == Mode::Full {
        println!("(fabric cross-runtime assertions passed for every scenario)");
    }

    if let Some(path) = &args.json {
        let mut f = File::create(path).expect("create json output");
        for o in &outcomes {
            let line = serde_json::to_string(o).expect("serialize outcome");
            writeln!(f, "{line}").expect("write json line");
        }
        println!("(wrote {} scenario outcomes to {path})", outcomes.len());
    }
}
