//! Ablation: GeoBFT's inter-cluster sharing fanout.
//!
//! §2.3 of the paper argues that sending a *single* message per remote
//! cluster is not enough (Example 2.4: the receivers cannot distinguish a
//! Byzantine sending primary from a Byzantine receiving relay), while
//! `f + 1` messages guarantee at least one non-faulty receiver. This
//! ablation measures the cost/benefit directly:
//!
//! * with fanout `f + 1` (the protocol), a crashed relay costs nothing:
//!   another receiver performs the local phase;
//! * with fanout 1, the same crash stalls rounds until the remote
//!   view-change machinery (or DRVC-based recovery) kicks in — visible as
//!   a throughput collapse;
//! * with fanout `n`, reliability is identical to `f + 1` but the WAN
//!   bytes per round grow by `n / (f + 1)`.

use rdb_bench::{Report, ReproArgs};
use rdb_common::ids::ReplicaId;
use rdb_common::time::SimTime;
use rdb_consensus::config::ProtocolKind;
use rdb_simnet::{FaultSpec, Scenario};

fn scenario(fanout: Option<usize>, drop_first_receiver: bool, quick: bool) -> Scenario {
    let mut s = Scenario::paper(ProtocolKind::GeoBft, 4, 7);
    if quick {
        s = s.quick();
        s.logical_clients = 40_000;
    }
    s.cfg.fanout_override = fanout;
    if drop_first_receiver {
        // Every link from a remote primary to a cluster's receiver 0 goes
        // dark: with fanout 1 that is the *only* path certificates take
        // (Example 2.4: receivers cannot tell which side failed); with
        // fanout f+1, receivers 1 and 2 still carry the local phase.
        let z = 4u16;
        s.faults = (0..z)
            .flat_map(|src| {
                (0..z).filter(move |dst| *dst != src).map(move |dst| {
                    FaultSpec::drop_link(
                        ReplicaId::new(src, 0),
                        ReplicaId::new(dst, 0),
                        SimTime::ZERO,
                    )
                })
            })
            .collect();
    }
    s
}

fn main() {
    let args = ReproArgs::parse();
    let mut report = Report::new("Ablation: GeoBFT global-sharing fanout (z = 4, n = 7, f = 2)");

    let configs: Vec<(&str, Option<usize>, bool)> = vec![
        ("fanout f+1 (protocol)", None, false),
        ("fanout 1", Some(1), false),
        ("fanout n", Some(7), false),
        ("fanout f+1 + dead relay links", None, true),
        ("fanout 1 + dead relay links", Some(1), true),
    ];

    println!(
        "{:<28} {:>12} {:>12} {:>14}",
        "configuration", "txn/s", "latency(s)", "WAN MB/s"
    );
    for (label, fanout, crash) in configs {
        let m = scenario(fanout, crash, args.quick).run();
        println!(
            "{:<28} {:>12.0} {:>12.3} {:>14.2}",
            label, m.throughput_txn_s, m.avg_latency_s, m.global_mb_per_s
        );
        report.push(m);
    }

    println!();
    println!("Expected: fanout 1 is cheapest when nothing fails (fewer certificate");
    println!("copies to verify, least WAN traffic) but has zero slack — when its");
    println!("single delivery path per cluster dies, rounds stop; fanout f+1 rides");
    println!("through the same link failures; fanout n buys nothing over f+1 while");
    println!("multiplying WAN bytes and verification work — exactly the paper's");
    println!("argument for the optimistic f+1 protocol (Figure 5, Prop. 2.5).");
    report.write_json(&args);
}
