//! The named scenario catalog.
//!
//! Each scenario is a function that *runs and asserts*: it drives the
//! deterministic simulator (always), optionally the threaded fabric
//! ([`Mode::Full`]), checks the scenario-specific invariants, and
//! returns a deterministic [`ScenarioOutcome`] derived from the
//! simulator run — the record the `repro_scenarios --quick --json`
//! binary serializes and the CI determinism job diffs across two
//! invocations.
//!
//! | scenario            | workload            | faults                      | cross-runtime assertion |
//! |---------------------|---------------------|-----------------------------|-------------------------|
//! | `smallbank`         | hot-account transfers | none                      | byte-identical ledgers |
//! | `token_rmw`         | multi-key mints/transfers | none                  | byte-identical ledgers |
//! | `healing_partition` | hot-account transfers | 2+2 partition, heals      | honest agreement + post-heal progress |
//! | `byzantine_primary` | hot-account transfers | equivocating primary      | honest agreement + progress |

use crate::harness::{
    assert_agreement, assert_identical_prefix, replay_ledger, run_fabric, run_simnet, ReplayAudit,
    ScenarioOutcome, ScenarioSpec,
};
use crate::workloads::{smallbank_factory, token_factory, TOKEN_SUPPLY_KEY};
use rdb_common::ids::ReplicaId;
use rdb_common::time::{SimDuration, SimTime};
use rdb_consensus::adversary::AdversarySpec;
use rdb_consensus::config::ProtocolKind;
use rdb_ledger::Ledger;
use rdb_simnet::FaultSpec;
use std::time::Duration;

/// How much of a scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Simulator only — deterministic, fast, what `--quick` reports.
    Quick,
    /// Simulator *and* threaded fabric, with cross-runtime assertions.
    Full,
}

/// The observer whose ledger is replayed; for fault scenarios the
/// scenario picks an honest observer instead.
const OBSERVER: ReplicaId = ReplicaId {
    cluster: rdb_common::ids::ClusterId(0),
    index: 0,
};

fn r(cluster: u16, index: u16) -> ReplicaId {
    ReplicaId::new(cluster, index)
}

/// Replay `ledger` and require program traffic to have actually flowed.
fn audited_replay(ledger: &Ledger, records: u64, label: &str) -> ReplayAudit {
    let audit = replay_ledger(ledger, records)
        .unwrap_or_else(|e| panic!("{label}: replay audit failed: {e}"));
    assert!(audit.programs > 0, "{label}: no programs committed");
    audit
}

/// SmallBank transfers with hot-account conflicts on PBFT (1×4).
///
/// Asserts in the simulator: progress, all-replica agreement, and — via
/// the replay audit — that the workload surfaced *both* committed and
/// aborted transfers (the underflow rule at work). In [`Mode::Full`] the
/// same spec runs on the fabric and its committed chain must be
/// byte-identical to the simulator's over a non-trivial prefix.
pub fn smallbank(mode: Mode) -> ScenarioOutcome {
    let mut spec = ScenarioSpec::new(ProtocolKind::Pbft, 1, 4);
    spec.factory = Some(smallbank_factory(spec.records, spec.batch));
    let (metrics, ledgers) = run_simnet(&spec);
    assert!(metrics.completed_batches > 0, "smallbank: no progress");
    assert_agreement(&ledgers, &[], 3, "smallbank/simnet");
    let sim = &ledgers[&OBSERVER];
    let audit = audited_replay(sim, spec.records, "smallbank/simnet");
    assert!(audit.aborts > 0, "smallbank: no transfer ever aborted");
    assert!(
        audit.aborts < audit.programs,
        "smallbank: every transfer aborted"
    );

    if mode == Mode::Full {
        let label = "smallbank/fabric";
        let report = run_fabric(&spec, Duration::from_millis(900));
        assert!(
            report.completed_batches > 0,
            "{label}: {}",
            report.summary()
        );
        report
            .audit_ledgers()
            .unwrap_or_else(|e| panic!("{label}: ledgers inconsistent: {e}"));
        report
            .audit_execution_stage()
            .unwrap_or_else(|e| panic!("{label}: execution audit failed: {e}"));
        let fabric = &report.ledgers[&OBSERVER];
        assert_identical_prefix(sim, fabric, 3, label);
        // The fabric chain independently replays too, aborts and all.
        let fa = audited_replay(fabric, spec.records, label);
        assert!(fa.aborts > 0, "{label}: no aborts reached the chain");
    }
    ScenarioOutcome::from_replay("smallbank", spec.kind, sim, &audit)
}

/// Multi-key token mints and transfers on PBFT (1×4): every mint is a
/// 5-key read-modify-write.
///
/// Asserts the token conservation invariant on the replayed final state
/// (`minted supply == total balance growth`), plus the same byte-identity
/// check as [`smallbank`] in [`Mode::Full`].
pub fn token_rmw(mode: Mode) -> ScenarioOutcome {
    const ACCOUNTS: u64 = 64;
    let mut spec = ScenarioSpec::new(ProtocolKind::Pbft, 1, 4);
    spec.factory = Some(token_factory(ACCOUNTS, spec.batch));
    let (metrics, ledgers) = run_simnet(&spec);
    assert!(metrics.completed_batches > 0, "token_rmw: no progress");
    assert_agreement(&ledgers, &[], 3, "token_rmw/simnet");
    let sim = &ledgers[&OBSERVER];
    let audit = audited_replay(sim, spec.records, "token_rmw/simnet");
    check_conservation(&audit, ACCOUNTS, "token_rmw/simnet");

    if mode == Mode::Full {
        let label = "token_rmw/fabric";
        let report = run_fabric(&spec, Duration::from_millis(900));
        assert!(
            report.completed_batches > 0,
            "{label}: {}",
            report.summary()
        );
        report
            .audit_ledgers()
            .unwrap_or_else(|e| panic!("{label}: ledgers inconsistent: {e}"));
        report
            .audit_execution_stage()
            .unwrap_or_else(|e| panic!("{label}: execution audit failed: {e}"));
        let fabric = &report.ledgers[&OBSERVER];
        assert_identical_prefix(sim, fabric, 3, label);
        let fa = audited_replay(fabric, spec.records, label);
        check_conservation(&fa, ACCOUNTS, label);
    }
    ScenarioOutcome::from_replay("token_rmw", spec.kind, sim, &audit)
}

/// `sum(balances) - sum(preload) == supply`: transfers conserve, mints
/// grow both sides equally, aborted programs touch nothing.
fn check_conservation(audit: &ReplayAudit, accounts: u64, label: &str) {
    let initial: u64 = (1..=accounts).sum();
    let total: u64 = (1..=accounts)
        .map(|k| audit.store.get(k).map(|v| v.counter()).unwrap_or(0))
        .sum();
    let supply = audit
        .store
        .get(TOKEN_SUPPLY_KEY)
        .map(|v| v.counter())
        .unwrap_or(0);
    assert!(supply > 0, "{label}: no mint ever committed");
    assert_eq!(total - initial, supply, "{label}: conservation violated");
}

/// A 2+2 network partition from deployment start that heals mid-run,
/// under SmallBank load on PBFT (1×4) with recovery timeouts.
///
/// With the cluster split 2/2 no side holds a prepare quorum (3), so
/// **nothing can commit while the cut is up** — every committed block is
/// therefore proof of post-heal recovery (client retransmissions and
/// view changes re-establishing progress). Asserts agreement across all
/// four replicas afterwards, in both runtimes, which read the one cut
/// declared here.
pub fn healing_partition(mode: Mode) -> ScenarioOutcome {
    let mut spec = ScenarioSpec::new(ProtocolKind::Pbft, 1, 4);
    spec.factory = Some(smallbank_factory(spec.records, spec.batch));
    spec.fast_timeouts = true;
    spec.faults = FaultSpec::partition(
        &[r(0, 0), r(0, 1)],
        &[r(0, 2), r(0, 3)],
        SimTime::ZERO,
        SimTime(SimDuration::from_millis(1_000).as_nanos()),
    );
    // Leave ~2 s of healed virtual time for retransmission-driven
    // recovery and fresh commits.
    spec.measure = Some(SimDuration::from_millis(2_500));
    let (metrics, ledgers) = run_simnet(&spec);
    assert!(
        metrics.completed_batches > 0,
        "healing_partition: nothing committed after the heal: {}",
        metrics.summary()
    );
    assert_agreement(&ledgers, &[], 2, "healing_partition/simnet");
    let sim = &ledgers[&OBSERVER];
    let audit = audited_replay(sim, spec.records, "healing_partition/simnet");

    if mode == Mode::Full {
        let label = "healing_partition/fabric";
        let report = run_fabric(&spec, Duration::from_millis(2_400));
        assert!(
            report.completed_batches > 0,
            "{label}: nothing committed after the heal: {}",
            report.summary()
        );
        report
            .audit_ledgers()
            .unwrap_or_else(|e| panic!("{label}: ledgers inconsistent: {e}"));
        let fabric = &report.ledgers[&OBSERVER];
        audited_replay(fabric, spec.records, label);
        assert!(
            fabric.head_height() >= 2,
            "{label}: too little post-heal progress"
        );
    }
    ScenarioOutcome::from_replay("healing_partition", spec.kind, sim, &audit)
}

/// An equivocating primary per protocol, under SmallBank load.
///
/// The view-0 leader is wrapped in
/// [`AdversarySpec::EquivocatePrimary`]: victims receive well-formed
/// conflicting proposals in place of the honest ones. Victim counts are
/// chosen per protocol so the attack actually bites:
///
/// * **PBFT / GeoBFT** — 2 victims of 4: neither digest reaches a
///   prepare quorum, the progress timer fires, and a view change elects
///   an honest primary. Progress *implies* the view change worked.
/// * **HotStuff** — 1 victim: the honest `n − f` quorum (leader plus two
///   non-victims) still forms every QC, so commits continue; the victim
///   voted Prepare for the forged digest and must refuse the honest QC
///   (prepare- and skip-quorums may never both form), so it freezes at
///   the first equivocated slot — excluded from the agreement check.
/// * **Zyzzyva** — 1 victim: it speculatively executes the forged
///   history and its ledger legitimately diverges (excluded from the
///   agreement check); clients fall back to the `2f + 1` commit
///   certificate over the honest majority. No view change — the attack
///   is confined to the victim.
///
/// In every case the assertion is the paper's safety property: no two
/// honest replicas commit divergent blocks.
pub fn byzantine_primary(kind: ProtocolKind, mode: Mode) -> ScenarioOutcome {
    let (z, n, clients, victims): (usize, usize, usize, Vec<ReplicaId>) = match kind {
        ProtocolKind::Pbft => (1, 4, 2, vec![r(0, 1), r(0, 2)]),
        ProtocolKind::GeoBft => (2, 4, 2, vec![r(0, 1), r(0, 2)]),
        ProtocolKind::HotStuff => (1, 4, 4, vec![r(0, 1)]),
        ProtocolKind::Zyzzyva => (1, 4, 2, vec![r(0, 1)]),
        other => panic!("byzantine_primary: unsupported protocol {other:?}"),
    };
    // Zyzzyva victims speculatively execute the forged history, and a
    // HotStuff victim stalls at the first equivocated slot (it voted for
    // the forged digest and must refuse the honest QC): in both cases the
    // victim's frozen/forked chain is the *expected* blast radius, not a
    // safety violation.
    let exclude: Vec<ReplicaId> = match kind {
        ProtocolKind::Zyzzyva | ProtocolKind::HotStuff => victims.clone(),
        _ => Vec::new(),
    };
    // An honest, non-victim observer for the replay audit. (The wrapped
    // leader itself stays honest internally, but picking a third party
    // keeps the audit independent of the attacker.)
    let observer = if z > 1 { r(1, 0) } else { r(0, 3) };

    let mut spec = ScenarioSpec::new(kind, z, n);
    spec.clients = clients;
    spec.factory = Some(smallbank_factory(spec.records, spec.batch));
    spec.fast_timeouts = true;
    spec.adversaries = vec![(
        r(0, 0),
        AdversarySpec::EquivocatePrimary {
            victims: victims.clone(),
        },
    )];
    // View changes / slot skips take a few timeout rounds.
    spec.measure = Some(SimDuration::from_millis(3_000));

    let name = format!("byzantine_primary_{}", protocol_slug(kind));
    let (metrics, ledgers) = run_simnet(&spec);
    assert!(
        metrics.completed_batches > 0,
        "{name}/simnet: attack killed liveness: {}",
        metrics.summary()
    );
    assert_agreement(&ledgers, &exclude, 1, &format!("{name}/simnet"));
    let sim = &ledgers[&observer];
    let audit = audited_replay(sim, spec.records, &format!("{name}/simnet"));

    if mode == Mode::Full {
        let label = format!("{name}/fabric");
        let report = run_fabric(&spec, Duration::from_millis(2_000));
        assert!(
            report.completed_batches > 0,
            "{label}: attack killed liveness: {}",
            report.summary()
        );
        // `audit_ledgers` insists *all* replicas agree; under Zyzzyva the
        // victim is allowed to diverge, so audit the honest set directly.
        assert_agreement(report.ledgers.iter(), &exclude, 1, &label);
        audited_replay(&report.ledgers[&observer], spec.records, &label);
    }
    ScenarioOutcome::from_replay(&name, kind, sim, &audit)
}

fn protocol_slug(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Pbft => "pbft",
        ProtocolKind::GeoBft => "geobft",
        ProtocolKind::Zyzzyva => "zyzzyva",
        ProtocolKind::HotStuff => "hotstuff",
        ProtocolKind::Steward => "steward",
    }
}

/// Run the whole catalog in [`Mode::Quick`] (simulator only) and return
/// the deterministic outcome list — what `repro_scenarios --quick --json`
/// serializes.
pub fn quick_all() -> Vec<ScenarioOutcome> {
    run_all(Mode::Quick)
}

/// Run the whole catalog in `mode`.
pub fn run_all(mode: Mode) -> Vec<ScenarioOutcome> {
    let mut out = vec![smallbank(mode), token_rmw(mode), healing_partition(mode)];
    for kind in [
        ProtocolKind::Pbft,
        ProtocolKind::GeoBft,
        ProtocolKind::Zyzzyva,
        ProtocolKind::HotStuff,
    ] {
        out.push(byzantine_primary(kind, mode));
    }
    out
}
