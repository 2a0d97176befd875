//! Figure 12 reproduction: throughput under failures, `z = 4` regions,
//! n in {4, 7, 10, 12} replicas per cluster.
//!
//! Three scenarios (§4.3):
//!
//! * **left** — a single non-primary replica failure: small impact on all
//!   protocols except Zyzzyva, whose throughput plummets (the fast path
//!   requires all `n` responses; clients fall back to their conservative
//!   timeout + commit phase);
//! * **middle** — `f` non-primary failures in *every* cluster (the worst
//!   case GeoBFT/Steward are designed for): moderate impact — quorums now
//!   need the slowest remaining replicas;
//! * **right** — a single primary failure (GeoBFT's Oregon cluster
//!   primary / PBFT's primary), forcing a view change; checkpoints every
//!   600 transactions, failure after 900 transactions. The paper runs
//!   this for GeoBFT and PBFT only (Zyzzyva cannot survive it, HotStuff
//!   has no fixed primary, Steward lacks a view-change implementation).

#![forbid(unsafe_code)]

use rdb_bench::{Report, ReproArgs};
use rdb_common::ids::ReplicaId;
use rdb_common::time::SimDuration;
use rdb_consensus::config::ProtocolKind;
use rdb_simnet::{FaultSpec, Scenario};

fn base(kind: ProtocolKind, n: usize, quick: bool) -> Scenario {
    let mut s = Scenario::paper(kind, 4, n);
    if quick {
        s = s.quick();
        s.logical_clients = 40_000;
    }
    // Failure runs use faster detection and a longer warm-up so the
    // one-off failure-discovery phase (timer per dead leader) resolves
    // before measurement; the paper's 180 s runs amortize it instead.
    s.cfg.progress_timeout = SimDuration::from_millis(300);
    s.warmup = if quick {
        SimDuration::from_millis(3_000)
    } else {
        SimDuration::from_millis(5_000)
    };
    s
}

fn main() {
    let args = ReproArgs::parse();
    let ns: Vec<usize> = if args.quick {
        vec![4, 7]
    } else {
        vec![4, 7, 10, 12]
    };
    let xs: Vec<String> = ns.iter().map(|n| n.to_string()).collect();

    // ---------------- left: one non-primary failure --------------------
    let mut left = Report::new("Figure 12 (left): one non-primary replica failure");
    for kind in ProtocolKind::ALL {
        for &n in &ns {
            let mut s = base(kind, n, args.quick);
            // Crash the last replica of cluster 0 from the start: never a
            // primary/representative under any protocol here.
            s.faults = vec![FaultSpec::crash_at_secs(
                ReplicaId::new(0, (n - 1) as u16),
                0.0,
            )];
            left.push(s.run());
        }
    }
    left.matrix(
        "replicas per cluster",
        &xs,
        |m| m.n.to_string(),
        |m| m.throughput_txn_s,
        "throughput (txn/s), one failure",
    );

    // ---------------- middle: f failures per cluster --------------------
    let mut middle = Report::new("Figure 12 (middle): f non-primary failures in every cluster");
    for kind in ProtocolKind::ALL {
        for &n in &ns {
            let f = (n - 1) / 3;
            let mut s = base(kind, n, args.quick);
            s.faults = (0..4u16)
                .flat_map(|c| {
                    (0..f as u16).map(move |i| {
                        FaultSpec::crash_at_secs(ReplicaId::new(c, (n as u16) - 1 - i), 0.0)
                    })
                })
                .collect();
            middle.push(s.run());
        }
    }
    middle.matrix(
        "replicas per cluster",
        &xs,
        |m| m.n.to_string(),
        |m| m.throughput_txn_s,
        "throughput (txn/s), f failures per cluster",
    );

    // ---------------- right: single primary failure ---------------------
    let mut right = Report::new(
        "Figure 12 (right): single primary failure (GeoBFT: Oregon primary; Pbft: the primary)",
    );
    for kind in [ProtocolKind::GeoBft, ProtocolKind::Pbft] {
        for &n in &ns {
            let mut s = base(kind, n, args.quick);
            // Faster detection so the view change resolves within the
            // window (the paper's runs are 180 s; ours are seconds).
            s.cfg.progress_timeout = SimDuration::from_millis(600);
            s.cfg.client_retry = SimDuration::from_millis(900);
            s.cfg.remote_timeout = SimDuration::from_millis(500);
            // Checkpoint every 600 transactions (6 batches of 100), crash
            // the primary mid-measurement ("after 900 client transactions"
            // scaled to our shorter run).
            s.cfg.checkpoint_interval = 6;
            let crash_at = (s.warmup + s.measure / 3).as_secs_f64();
            s.faults = vec![FaultSpec::crash_at_secs(ReplicaId::new(0, 0), crash_at)];
            if !args.quick {
                s.measure = SimDuration::from_secs(6);
            }
            right.push(s.run());
        }
    }
    right.matrix(
        "replicas per cluster",
        &xs,
        |m| m.n.to_string(),
        |m| m.throughput_txn_s,
        "throughput (txn/s), primary failure mid-run",
    );

    println!();
    println!("Expected shapes (paper): Zyzzyva collapses under any failure; the");
    println!("other protocols lose a moderate fraction under f failures; GeoBFT");
    println!("and Pbft both recover from a primary failure via (remote + local)");
    println!("view changes, at a small overall throughput cost.");
    left.write_json(&args);
}
