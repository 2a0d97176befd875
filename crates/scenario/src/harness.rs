//! Scenario runners and runtime-independent audits.
//!
//! One [`ScenarioSpec`] describes a deployment — protocol, topology,
//! workload factory, fault script — and can be executed on either
//! runtime: [`run_simnet`] drives the discrete-event simulator (virtual
//! time, deterministic), [`run_fabric`] boots the threaded fabric (OS
//! threads, wall-clock). Both install the *same* source factory, the
//! *same* adversary wrappers and the *same* [`FaultSpec`] values — the
//! fabric's transport applies them where the simulator does, timed from
//! deployment start — which is what makes cross-runtime assertions
//! meaningful.

use crate::workloads::SourceFactory;
use rdb_common::ids::ReplicaId;
use rdb_common::time::SimDuration;
use rdb_consensus::adversary::AdversarySpec;
use rdb_consensus::config::{ExecMode, ProtocolKind};
use rdb_ledger::Ledger;
use rdb_simnet::{FaultSpec, RunMetrics, Scenario};
use rdb_store::KvStore;
use rdb_workload::ycsb::YcsbConfig;
use resilientdb::{DeploymentBuilder, DeploymentReport};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// A deployment + workload + fault script, runnable on either runtime.
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Consensus protocol under test.
    pub kind: ProtocolKind,
    /// Clusters.
    pub z: usize,
    /// Replicas per cluster.
    pub n: usize,
    /// Closed-loop batch clients (must be ≥ `z`; the simulator refuses to
    /// run with fewer than one client per cluster).
    pub clients: usize,
    /// Preloaded YCSB records (account space for program workloads).
    pub records: u64,
    /// Transactions per client batch.
    pub batch: usize,
    /// Workload seed, shared by both runtimes.
    pub seed: u64,
    /// Program workload; `None` falls back to the YCSB generator.
    pub factory: Option<SourceFactory>,
    /// Fault script (crashes, link drops, partitions), read by both
    /// runtimes.
    pub faults: Vec<FaultSpec>,
    /// Byzantine wrappers, installed identically in both runtimes.
    pub adversaries: Vec<(ReplicaId, AdversarySpec)>,
    /// Shorten protocol timeouts (recovery scenarios).
    pub fast_timeouts: bool,
    /// Override the simulator's measurement window.
    pub measure: Option<SimDuration>,
}

impl ScenarioSpec {
    /// A fault-free single-client spec with the equivalence-suite
    /// constants (500 records, batch 5, seed 7).
    pub fn new(kind: ProtocolKind, z: usize, n: usize) -> ScenarioSpec {
        ScenarioSpec {
            kind,
            z,
            n,
            clients: z.max(1),
            records: 500,
            batch: 5,
            seed: 7,
            factory: None,
            faults: Vec::new(),
            adversaries: Vec::new(),
            fast_timeouts: false,
            measure: None,
        }
    }
}

/// Run the spec on the simulator, returning the metrics and every
/// replica's committed ledger. Deterministic: equal specs produce equal
/// ledgers on every invocation.
pub fn run_simnet(spec: &ScenarioSpec) -> (RunMetrics, BTreeMap<ReplicaId, Ledger>) {
    let mut s = Scenario::paper(spec.kind, spec.z, spec.n).quick();
    s.cfg.exec_mode = ExecMode::Real;
    s.cfg.batch_size = spec.batch;
    s.real_exec_records = spec.records;
    s.track_ledgers = true;
    s.seed = spec.seed;
    // `clients` physical batch clients (each stands for `batch` logical
    // clients in the paper's accounting).
    s.logical_clients = spec.clients * spec.batch;
    s.ycsb = YcsbConfig {
        record_count: spec.records,
        batch_size: spec.batch,
        ..YcsbConfig::default()
    };
    s.faults = spec.faults.clone();
    s.adversaries = spec.adversaries.clone();
    s.source_factory = spec.factory.clone();
    if spec.fast_timeouts {
        s.cfg.progress_timeout = SimDuration::from_millis(350);
        s.cfg.client_retry = SimDuration::from_millis(700);
        // Zyzzyva's conservative all-`n` wait would eat the whole quick
        // window under a faulty replica; the fabric default (150 ms) is
        // the recovery-scenario setting in both runtimes.
        s.cfg.spec_window = SimDuration::from_millis(150);
    }
    if let Some(m) = spec.measure {
        s.measure = m;
    }
    let (metrics, ledgers) = s.run_full();
    (metrics, ledgers.expect("ledgers tracked"))
}

/// Run the spec on the threaded fabric for `duration` of wall-clock load.
pub fn run_fabric(spec: &ScenarioSpec, duration: Duration) -> DeploymentReport {
    let mut builder = DeploymentBuilder::new(spec.kind, spec.z, spec.n)
        .batch_size(spec.batch)
        .records(spec.records)
        .seed(spec.seed)
        .faults(spec.faults.clone());
    if spec.fast_timeouts {
        builder = builder.fast_timeouts();
    }
    for (rid, adv) in &spec.adversaries {
        builder = builder.adversary(*rid, adv.clone());
    }
    let fabric = builder.start();
    match &spec.factory {
        Some(factory) => {
            let f = factory.clone();
            fabric.spawn_source_clients(spec.clients, move |cid, seed| f(cid, seed));
        }
        None => fabric.spawn_ycsb_clients(spec.clients),
    }
    std::thread::sleep(duration);
    fabric.shutdown()
}

/// What an independent replay of one committed ledger found.
#[derive(Debug)]
pub struct ReplayAudit {
    /// Blocks replayed (the ledger's head height).
    pub blocks: u64,
    /// Transaction programs executed (committed or aborted).
    pub programs: u64,
    /// Programs that aborted (underflow, overflow, explicit, invalid).
    pub aborts: u64,
    /// The replayed store after the last block (for invariant checks).
    pub store: KvStore,
}

/// Re-execute a committed ledger against a fresh preloaded store of
/// `records` records; see [`replay_over`].
pub fn replay_ledger(ledger: &Ledger, records: u64) -> Result<ReplayAudit, String> {
    replay_over(ledger, &KvStore::with_ycsb_records(records))
}

/// Re-execute a committed ledger against a clone of the untouched
/// `preload` (build it once and audit every ledger over it; the clones
/// share it) with [`rdb_ledger::replay`], which checks the recorded
/// post-execution state digest at every round end. This re-derives the
/// execution result from the chain alone — independent of which runtime
/// produced it — and is where scenario program/abort counts come from.
pub fn replay_over(ledger: &Ledger, preload: &KvStore) -> Result<ReplayAudit, String> {
    let store = rdb_ledger::replay(ledger, 0, preload.clone()).map_err(|e| e.to_string())?;
    let stats = store.stats();
    Ok(ReplayAudit {
        blocks: ledger.head_height(),
        programs: stats.programs,
        aborts: stats.aborts,
        store,
    })
}

/// Assert two ledgers verify and are byte-identical over the heights
/// both retain ([`rdb_ledger::agreement`]), and that their common prefix
/// is at least `min_blocks` long. Returns the prefix length.
pub fn assert_identical_prefix(a: &Ledger, b: &Ledger, min_blocks: u64, label: &str) -> u64 {
    assert_agreed([("a", a), ("b", b)], min_blocks, label)
}

/// Assert the paper's non-divergence property across a replica set:
/// every ledger not in `exclude` verifies internally and agrees with the
/// others over the heights both retain ([`rdb_ledger::agreement`]), and
/// their common prefix is at least `min_blocks`. Returns the prefix
/// length.
pub fn assert_agreement<'a>(
    ledgers: impl IntoIterator<Item = (&'a ReplicaId, &'a Ledger)>,
    exclude: &[ReplicaId],
    min_blocks: u64,
    label: &str,
) -> u64 {
    let mut honest: Vec<(&ReplicaId, &Ledger)> = ledgers
        .into_iter()
        .filter(|(rid, _)| !exclude.contains(rid))
        .collect();
    honest.sort_by_key(|(rid, _)| **rid);
    assert!(!honest.is_empty(), "{label}: no honest replicas to audit");
    assert_agreed(honest, min_blocks, label)
}

fn assert_agreed<'a, L: std::fmt::Display>(
    ledgers: impl IntoIterator<Item = (L, &'a Ledger)>,
    min_blocks: u64,
    label: &str,
) -> u64 {
    let common = rdb_ledger::agreement(ledgers).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        common >= min_blocks,
        "{label}: common prefix too short ({common} < {min_blocks})"
    );
    common
}

/// The deterministic, serializable result of one scenario: everything in
/// here is derived from the *simulator* run (virtual time), so two
/// invocations of the same scenario produce byte-identical JSON — the
/// property the CI determinism job diffs.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    /// Scenario name from the catalog.
    pub scenario: String,
    /// Protocol under test.
    pub protocol: String,
    /// Committed blocks on the observer replica.
    pub blocks: u64,
    /// Transaction programs found by the replay audit.
    pub programs: u64,
    /// Aborted programs found by the replay audit.
    pub aborts: u64,
    /// Head block hash of the observer replica (hex).
    pub head_hash: String,
    /// Post-execution state digest at the head (hex).
    pub state_digest: String,
}

impl ScenarioOutcome {
    /// Build an outcome from the observer's ledger and its replay audit.
    pub fn from_replay(
        scenario: &str,
        kind: ProtocolKind,
        ledger: &Ledger,
        audit: &ReplayAudit,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: scenario.to_string(),
            protocol: format!("{kind:?}"),
            blocks: audit.blocks,
            programs: audit.programs,
            aborts: audit.aborts,
            head_hash: ledger.head_hash().to_hex(),
            state_digest: ledger
                .block(ledger.head_height())
                .map(|b| b.state_digest.to_hex())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::ClusterId;
    use rdb_consensus::types::SignedBatch;
    use rdb_crypto::digest::Digest;

    /// Ten blocks; the one at `fork` (if any) carries another batch.
    fn history(fork: Option<u64>) -> Ledger {
        let mut l = Ledger::new();
        for h in 1..=10 {
            let round = if Some(h) == fork { 99 } else { h };
            l.append(
                SignedBatch::noop(ClusterId(0), round),
                None,
                Digest::of(&h.to_le_bytes()),
            );
        }
        l
    }

    fn compacted(mut l: Ledger, base: u64) -> Ledger {
        l.compact(base);
        l
    }

    #[test]
    fn ledgers_compacted_to_different_bases_agree_over_their_overlap() {
        let a = compacted(history(None), 3);
        let b = compacted(history(None), 6);
        let ids = [ReplicaId::new(0, 0), ReplicaId::new(0, 1)];
        let common = assert_agreement([(&ids[0], &a), (&ids[1], &b)], &[], 10, "compacted");
        assert_eq!(common, 10);
        assert_eq!(assert_identical_prefix(&a, &b, 10, "compacted"), 10);
    }

    #[test]
    #[should_panic(expected = "R1.1 and R1.2 diverge at height 8 (batch)")]
    fn a_fork_inside_the_compacted_overlap_is_reported_at_its_height() {
        let a = compacted(history(None), 3);
        let b = compacted(history(Some(8)), 6);
        let ids = [ReplicaId::new(0, 0), ReplicaId::new(0, 1)];
        assert_agreement([(&ids[0], &a), (&ids[1], &b)], &[], 1, "compacted");
    }
}
