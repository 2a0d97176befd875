//! The versioned key-value table.

use crate::ops::{ExecOutcome, Operation, TxnEffect};
use rdb_crypto::digest::Digest;
use rdb_crypto::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A fixed-size record value. YCSB records carry ten 100-byte fields; the
/// paper batches 100 transactions into 5.4 kB pre-prepares, implying ~52 B
/// of payload per transaction on the wire, so we model a compact 24-byte
/// field update as the stored value (see `rdb_common::wire::TXN_BYTES`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Value(pub [u8; 24]);

impl Value {
    /// Deterministically derive a value from a u64 (used by the workload
    /// generator and tests).
    pub fn from_u64(x: u64) -> Value {
        let mut out = [0u8; 24];
        out[..8].copy_from_slice(&x.to_le_bytes());
        out[8..16].copy_from_slice(&x.wrapping_mul(0x9e3779b97f4a7c15).to_le_bytes());
        out[16..24].copy_from_slice(&x.rotate_left(17).to_le_bytes());
        Value(out)
    }

    /// Interpret the first 8 bytes as a little-endian counter.
    pub fn counter(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Replace the embedded counter.
    pub fn with_counter(mut self, c: u64) -> Value {
        self.0[..8].copy_from_slice(&c.to_le_bytes());
        self
    }
}

/// Execution statistics maintained by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Operations applied, by class.
    pub writes: u64,
    /// Read operations served.
    pub reads: u64,
    /// Read-modify-writes served.
    pub rmws: u64,
    /// Inserts applied.
    pub inserts: u64,
    /// Scans served.
    pub scans: u64,
    /// No-ops executed.
    pub noops: u64,
    /// Transaction programs executed (committed or aborted).
    pub programs: u64,
    /// Transaction programs that aborted (subset of `programs`).
    pub aborts: u64,
}

impl StoreStats {
    /// Total operations executed (a program counts once, aborted or not).
    pub fn total(&self) -> u64 {
        self.writes
            + self.reads
            + self.rmws
            + self.inserts
            + self.scans
            + self.noops
            + self.programs
    }
}

/// Number of internal fingerprint shards per [`KvStore`]. Power of two so
/// shard selection is a mask. Each shard keeps its own XOR accumulator and
/// a dirty bit, so [`KvStore::rebuild_fingerprint`] after a run of
/// unfingerprinted execution only rescans the shards that were touched
/// instead of the whole table.
pub const STORE_SHARDS: usize = 16;
const SHARD_MASK: u64 = STORE_SHARDS as u64 - 1;

#[inline]
fn shard_of(key: u64) -> usize {
    (key & SHARD_MASK) as usize
}

#[inline]
fn xor_into(acc: &mut [u8; 32], d: &[u8; 32]) {
    for (a, b) in acc.iter_mut().zip(d.iter()) {
        *a ^= b;
    }
}

/// One fingerprint shard: a slice of the record map plus the XOR fold of
/// its records' digests. The table-wide accumulator is the XOR of every
/// shard's `accum` (XOR is associative and commutative, so the partition
/// is digest-preserving).
#[derive(Debug, Clone, Default)]
struct Shard {
    records: HashMap<u64, (Value, u64)>,
    accum: [u8; 32],
    /// Set when an unfingerprinted write lands here; cleared by rebuild.
    dirty: bool,
}

impl Shard {
    fn compute_accum(&self) -> [u8; 32] {
        let mut acc = [0u8; 32];
        for (key, (value, version)) in &self.records {
            let d = KvStore::record_digest(*key, value, *version);
            xor_into(&mut acc, &d);
        }
        acc
    }
}

/// The in-memory YCSB table: a map from `u64` record keys to [`Value`]s
/// plus a monotone version counter per record.
///
/// The store maintains an *incremental* state fingerprint: a running XOR of
/// per-record digests, decomposed over [`STORE_SHARDS`] internal shards.
/// XOR-accumulation makes `state_digest` O(1) while still changing whenever
/// any record differs — two stores have equal digests iff they hold the
/// same records at the same versions (up to hash collisions, which SHA-256
/// makes negligible). The shard decomposition additionally makes
/// [`KvStore::rebuild_fingerprint`] proportional to the *touched* shards
/// rather than the whole table.
#[derive(Debug, Clone)]
pub struct KvStore {
    shards: Vec<Shard>,
    /// Cached total record count across shards.
    len: usize,
    stats: StoreStats,
    /// Number of transactions applied (batch items), used for checkpoints.
    applied_txns: u64,
    /// When present, every record write is appended here as
    /// `(key, value, new_version)` — the durable-storage hook: the executor
    /// drains this buffer into one WAL batch per committed decision.
    captured: Option<Vec<(u64, Value, u64)>>,
}

impl KvStore {
    /// Create an empty store.
    pub fn new() -> KvStore {
        KvStore {
            shards: (0..STORE_SHARDS).map(|_| Shard::default()).collect(),
            len: 0,
            stats: StoreStats::default(),
            applied_txns: 0,
            captured: None,
        }
    }

    /// Create a store preloaded with `record_count` records, mirroring the
    /// paper's initialization ("each replica is initialized with an
    /// identical copy of the YCSB table" with 600 k active records).
    pub fn with_ycsb_records(record_count: u64) -> KvStore {
        let mut store = KvStore::new();
        let per_shard = (record_count as usize / STORE_SHARDS) + 1;
        for shard in &mut store.shards {
            shard.records.reserve(per_shard);
        }
        for key in 0..record_count {
            store.insert_raw(key, Value::from_u64(key));
        }
        store
    }

    pub(crate) fn record_digest(key: u64, value: &Value, version: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&key.to_le_bytes());
        h.update(&value.0);
        h.update(&version.to_le_bytes());
        h.finalize()
    }

    fn insert_raw(&mut self, key: u64, value: Value) {
        self.insert_inner(key, value, true);
    }

    fn insert_inner(&mut self, key: u64, value: Value, fingerprint: bool) {
        let shard = &mut self.shards[shard_of(key)];
        let new_ver;
        if let Some((old_v, old_ver)) = shard.records.get(&key).copied() {
            new_ver = old_ver + 1;
            if fingerprint {
                let old_d = Self::record_digest(key, &old_v, old_ver);
                xor_into(&mut shard.accum, &old_d);
                let new_d = Self::record_digest(key, &value, new_ver);
                xor_into(&mut shard.accum, &new_d);
            } else {
                shard.dirty = true;
            }
            shard.records.insert(key, (value, new_ver));
        } else {
            new_ver = 1;
            if fingerprint {
                let new_d = Self::record_digest(key, &value, 1);
                xor_into(&mut shard.accum, &new_d);
            } else {
                shard.dirty = true;
            }
            shard.records.insert(key, (value, 1));
            self.len += 1;
        }
        if let Some(buf) = &mut self.captured {
            buf.push((key, value, new_ver));
        }
    }

    /// Start recording every record write (key, value, new version) for
    /// durable logging; see [`KvStore::take_captured`]. Idempotent.
    pub fn enable_capture(&mut self) {
        if self.captured.is_none() {
            self.captured = Some(Vec::new());
        }
    }

    /// Drain the writes captured since the last call (capture stays
    /// enabled). Overwrites of the same key appear once per write, in
    /// application order, so replaying the *last* entry per key restores
    /// the record exactly — value and version.
    pub fn take_captured(&mut self) -> Vec<(u64, Value, u64)> {
        self.captured
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Install a record recovered from durable storage at its persisted
    /// version, maintaining the fingerprint. The key must not already be
    /// present: recovery always starts from an empty table.
    pub fn restore_record(&mut self, key: u64, value: Value, version: u64) {
        let shard = &mut self.shards[shard_of(key)];
        let d = Self::record_digest(key, &value, version);
        xor_into(&mut shard.accum, &d);
        let prev = shard.records.insert(key, (value, version));
        debug_assert!(prev.is_none(), "restore_record over existing key");
        self.len += 1;
    }

    /// Every record as `(key, value, version)`, in unspecified order (the
    /// durable bulk-dump path; the storage engine sorts by key itself).
    pub fn records(&self) -> impl Iterator<Item = (u64, Value, u64)> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.records.iter().map(|(k, (v, ver))| (*k, *v, *ver)))
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read a record.
    pub fn get(&self, key: u64) -> Option<Value> {
        self.shards[shard_of(key)]
            .records
            .get(&key)
            .map(|(v, _)| *v)
    }

    /// Version of a record (1 on first write; None if absent).
    pub fn version(&self, key: u64) -> Option<u64> {
        self.shards[shard_of(key)]
            .records
            .get(&key)
            .map(|(_, ver)| *ver)
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Total transactions applied via [`KvStore::execute`].
    pub fn applied_txns(&self) -> u64 {
        self.applied_txns
    }

    /// O(1) fingerprint of the full store state. Identical sequences of
    /// [`KvStore::execute`] calls from identical initial states yield
    /// identical digests.
    pub fn state_digest(&self) -> Digest {
        // Mix in the record count so an empty store and a store whose
        // accumulated digests cancelled out (impossible in practice) differ.
        let mut h = Sha256::new();
        h.update(&self.fold_accum());
        h.update(&(self.len as u64).to_le_bytes());
        Digest(h.finalize())
    }

    /// XOR of all shard accumulators — the table-wide accumulator.
    fn fold_accum(&self) -> [u8; 32] {
        let mut acc = [0u8; 32];
        for shard in &self.shards {
            xor_into(&mut acc, &shard.accum);
        }
        acc
    }

    /// Execute one operation, returning its outcome.
    pub fn execute(&mut self, op: &Operation) -> ExecOutcome {
        self.execute_inner(op, true)
    }

    /// Execute one operation *without* maintaining the incremental state
    /// fingerprint — two SHA-256 invocations saved per write. For bulk or
    /// off-critical-path appliers (the fabric's execution stage, whose
    /// authoritative digest already arrived inside the `Decision`); the
    /// fingerprint is stale afterwards until
    /// [`KvStore::rebuild_fingerprint`] runs.
    pub fn execute_unfingerprinted(&mut self, op: &Operation) -> ExecOutcome {
        self.execute_inner(op, false)
    }

    /// Audit the incremental fingerprint against a from-scratch rebuild:
    /// `true` iff [`KvStore::state_digest`] currently reflects the full
    /// table. O(records); used to validate checkpoint snapshots before
    /// they become recovery anchors (a snapshot taken after
    /// [`KvStore::execute_unfingerprinted`] without a rebuild would
    /// certify a stale digest).
    pub fn verify_fingerprint(&self) -> bool {
        self.shards.iter().all(|s| s.compute_accum() == s.accum)
    }

    /// Recompute the state fingerprint, restoring
    /// [`KvStore::state_digest`] correctness after a run of
    /// [`KvStore::execute_unfingerprinted`]. Only shards marked dirty by a
    /// deferred write are rescanned, so the cost is proportional to the
    /// touched fraction of the table, not its full size (compare
    /// [`KvStore::rebuild_fingerprint_full`]).
    pub fn rebuild_fingerprint(&mut self) {
        for shard in &mut self.shards {
            if shard.dirty {
                shard.accum = shard.compute_accum();
                shard.dirty = false;
            }
        }
    }

    /// Recompute every shard's fingerprint unconditionally — the
    /// pre-sharding O(records) behaviour, kept as the baseline for the
    /// `store-exec` bench and as a belt-and-braces repair path.
    pub fn rebuild_fingerprint_full(&mut self) {
        for shard in &mut self.shards {
            shard.accum = shard.compute_accum();
            shard.dirty = false;
        }
    }

    /// Number of shards whose fingerprint is currently stale.
    pub fn dirty_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.dirty).count()
    }

    fn contains(&self, key: u64) -> bool {
        self.shards[shard_of(key)].records.contains_key(&key)
    }

    fn execute_inner(&mut self, op: &Operation, fingerprint: bool) -> ExecOutcome {
        self.applied_txns += 1;
        match op {
            Operation::Write { key, value } => {
                self.insert_inner(*key, *value, fingerprint);
                self.stats.writes += 1;
                ExecOutcome::Done
            }
            Operation::Read { key } => {
                self.stats.reads += 1;
                ExecOutcome::ReadValue(self.get(*key))
            }
            Operation::Rmw { key, delta } => {
                self.stats.rmws += 1;
                let current = self.get(*key).unwrap_or_default();
                let next = current.counter().wrapping_add(*delta);
                self.insert_inner(*key, current.with_counter(next), fingerprint);
                ExecOutcome::Counter(next)
            }
            Operation::Insert { key, value } => {
                self.insert_inner(*key, *value, fingerprint);
                self.stats.inserts += 1;
                ExecOutcome::Done
            }
            Operation::Scan { key, count } => {
                self.stats.scans += 1;
                let mut touched = 0u32;
                for k in *key..key.saturating_add(*count as u64) {
                    if self.contains(k) {
                        touched += 1;
                    }
                }
                ExecOutcome::Scanned(touched)
            }
            Operation::NoOp => {
                self.stats.noops += 1;
                ExecOutcome::Done
            }
            Operation::Txn(prog) => {
                self.stats.programs += 1;
                let (outcome, writes) = prog.eval_values(|k| self.get(k));
                // Aborted programs leave the store untouched; `writes` is
                // empty for them by construction.
                for (key, value) in writes {
                    self.insert_inner(key, value, fingerprint);
                }
                if outcome.is_aborted() {
                    self.stats.aborts += 1;
                }
                ExecOutcome::Txn(outcome)
            }
        }
    }

    /// Execute a batch of operations, producing the combined effect.
    pub fn execute_batch<'a>(&mut self, ops: impl IntoIterator<Item = &'a Operation>) -> TxnEffect {
        TxnEffect {
            outcomes: ops.into_iter().map(|op| self.execute(op)).collect(),
        }
    }
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfingerprinted_execution_matches_after_rebuild() {
        let mut a = KvStore::with_ycsb_records(100);
        let mut b = KvStore::with_ycsb_records(100);
        let ops = [
            Operation::Write {
                key: 3,
                value: Value::from_u64(99),
            },
            Operation::Rmw { key: 4, delta: 7 },
            Operation::Insert {
                key: 200,
                value: Value::from_u64(1),
            },
            Operation::Write {
                key: 3,
                value: Value::from_u64(42),
            },
        ];
        for op in &ops {
            assert_eq!(a.execute(op), b.execute_unfingerprinted(op));
        }
        // Fingerprint is stale until rebuilt, then identical.
        assert_ne!(a.state_digest(), b.state_digest());
        b.rebuild_fingerprint();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.get(3), b.get(3));
        assert_eq!(a.version(3), b.version(3));
        assert_eq!(a.applied_txns(), b.applied_txns());
    }

    #[test]
    fn fingerprint_audit_detects_staleness() {
        let mut s = KvStore::with_ycsb_records(50);
        assert!(s.verify_fingerprint(), "fresh preload is live");
        s.execute(&Operation::Write {
            key: 1,
            value: Value::from_u64(7),
        });
        assert!(s.verify_fingerprint(), "fingerprinted writes stay live");
        s.execute_unfingerprinted(&Operation::Write {
            key: 2,
            value: Value::from_u64(8),
        });
        assert!(!s.verify_fingerprint(), "deferred write left it stale");
        s.rebuild_fingerprint();
        assert!(s.verify_fingerprint());
    }

    #[test]
    fn dirty_rebuild_only_rescans_touched_shards() {
        let mut s = KvStore::with_ycsb_records(64);
        assert_eq!(s.dirty_shards(), 0);
        // Touch two keys in the same shard and one in another.
        s.execute_unfingerprinted(&Operation::Write {
            key: 0,
            value: Value::from_u64(1),
        });
        s.execute_unfingerprinted(&Operation::Write {
            key: STORE_SHARDS as u64,
            value: Value::from_u64(2),
        });
        s.execute_unfingerprinted(&Operation::Write {
            key: 1,
            value: Value::from_u64(3),
        });
        assert_eq!(s.dirty_shards(), 2);
        // Amortized rebuild restores exactly the digest a full rebuild
        // (and a fully fingerprinted twin) would produce.
        let mut full = s.clone();
        full.rebuild_fingerprint_full();
        s.rebuild_fingerprint();
        assert_eq!(s.dirty_shards(), 0);
        assert_eq!(s.state_digest(), full.state_digest());
        assert!(s.verify_fingerprint());
    }

    #[test]
    fn ycsb_initialization_preloads_records() {
        let s = KvStore::with_ycsb_records(1000);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.get(0), Some(Value::from_u64(0)));
        assert_eq!(s.get(999), Some(Value::from_u64(999)));
        assert_eq!(s.get(1000), None);
        assert_eq!(s.version(5), Some(1));
    }

    #[test]
    fn write_bumps_version_and_value() {
        let mut s = KvStore::with_ycsb_records(10);
        s.execute(&Operation::Write {
            key: 3,
            value: Value::from_u64(77),
        });
        assert_eq!(s.get(3), Some(Value::from_u64(77)));
        assert_eq!(s.version(3), Some(2));
        assert_eq!(s.stats().writes, 1);
    }

    #[test]
    fn rmw_increments_counter() {
        let mut s = KvStore::new();
        let out = s.execute(&Operation::Rmw { key: 9, delta: 5 });
        assert_eq!(out, ExecOutcome::Counter(5));
        let out = s.execute(&Operation::Rmw { key: 9, delta: 2 });
        assert_eq!(out, ExecOutcome::Counter(7));
        assert_eq!(s.get(9).unwrap().counter(), 7);
    }

    #[test]
    fn scan_counts_existing_records() {
        let mut s = KvStore::with_ycsb_records(10);
        let out = s.execute(&Operation::Scan { key: 5, count: 10 });
        assert_eq!(out, ExecOutcome::Scanned(5));
    }

    #[test]
    fn read_returns_value_or_none() {
        let mut s = KvStore::with_ycsb_records(2);
        assert_eq!(
            s.execute(&Operation::Read { key: 1 }),
            ExecOutcome::ReadValue(Some(Value::from_u64(1)))
        );
        assert_eq!(
            s.execute(&Operation::Read { key: 5 }),
            ExecOutcome::ReadValue(None)
        );
        assert_eq!(s.stats().reads, 2);
    }

    #[test]
    fn state_digest_tracks_content_not_history_path() {
        // Same final content reached through different write orders on
        // *different keys* must agree (same per-key versions).
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.execute(&Operation::Write {
            key: 1,
            value: Value::from_u64(10),
        });
        a.execute(&Operation::Write {
            key: 2,
            value: Value::from_u64(20),
        });
        b.execute(&Operation::Write {
            key: 2,
            value: Value::from_u64(20),
        });
        b.execute(&Operation::Write {
            key: 1,
            value: Value::from_u64(10),
        });
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn state_digest_detects_divergence() {
        let mut a = KvStore::with_ycsb_records(100);
        let mut b = a.clone();
        assert_eq!(a.state_digest(), b.state_digest());
        a.execute(&Operation::Write {
            key: 1,
            value: Value::from_u64(999),
        });
        assert_ne!(a.state_digest(), b.state_digest());
        // Overwriting with the same value still differs: version moved.
        b.execute(&Operation::Write {
            key: 1,
            value: Value::from_u64(1),
        });
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn noop_only_counts() {
        let mut s = KvStore::new();
        let d = s.state_digest();
        assert_eq!(s.execute(&Operation::NoOp), ExecOutcome::Done);
        assert_eq!(s.state_digest(), d);
        assert_eq!(s.stats().noops, 1);
        assert_eq!(s.applied_txns(), 1);
    }

    #[test]
    fn batch_execution_matches_sequential() {
        let ops = vec![
            Operation::Write {
                key: 1,
                value: Value::from_u64(5),
            },
            Operation::Rmw { key: 1, delta: 3 },
            Operation::Read { key: 1 },
        ];
        let mut batched = KvStore::new();
        let effect = batched.execute_batch(&ops);
        let mut seq = KvStore::new();
        let outcomes: Vec<_> = ops.iter().map(|op| seq.execute(op)).collect();
        assert_eq!(effect.outcomes, outcomes);
        assert_eq!(batched.state_digest(), seq.state_digest());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = Operation> {
            prop_oneof![
                (0u64..64, any::<u64>()).prop_map(|(key, v)| Operation::Write {
                    key,
                    value: Value::from_u64(v)
                }),
                (0u64..64).prop_map(|key| Operation::Read { key }),
                (0u64..64, 0u64..100).prop_map(|(key, delta)| Operation::Rmw { key, delta }),
                Just(Operation::NoOp),
            ]
        }

        proptest! {
            /// Determinism: replaying the same operations on two fresh
            /// stores yields identical outcomes and state digests.
            #[test]
            fn replay_determinism(ops in proptest::collection::vec(arb_op(), 0..200)) {
                let mut a = KvStore::with_ycsb_records(64);
                let mut b = KvStore::with_ycsb_records(64);
                let ra: Vec<_> = ops.iter().map(|o| a.execute(o)).collect();
                let rb: Vec<_> = ops.iter().map(|o| b.execute(o)).collect();
                prop_assert_eq!(ra, rb);
                prop_assert_eq!(a.state_digest(), b.state_digest());
            }

            /// The digest changes on every write to a preloaded store.
            #[test]
            fn digest_moves_on_writes(key in 0u64..64, v in any::<u64>()) {
                let mut s = KvStore::with_ycsb_records(64);
                let before = s.state_digest();
                s.execute(&Operation::Write { key, value: Value::from_u64(v) });
                prop_assert_ne!(s.state_digest(), before);
            }

            /// Amortized dirty-shard rebuild always lands on the digest a
            /// fully fingerprinted execution would have produced.
            #[test]
            fn dirty_rebuild_matches_live_fingerprint(ops in proptest::collection::vec(arb_op(), 0..100)) {
                let mut live = KvStore::with_ycsb_records(64);
                let mut deferred = KvStore::with_ycsb_records(64);
                for op in &ops {
                    live.execute(op);
                    deferred.execute_unfingerprinted(op);
                }
                deferred.rebuild_fingerprint();
                prop_assert_eq!(live.state_digest(), deferred.state_digest());
                prop_assert!(deferred.verify_fingerprint());
            }
        }
    }
}
