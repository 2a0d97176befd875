//! The versioned key-value table.

use crate::ops::{ExecOutcome, Operation, TxnEffect};
use rdb_crypto::digest::Digest;
use rdb_crypto::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

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

/// Version of every preloaded record.
const BASE_VERSION: u64 = 1;

#[inline]
fn xor_into(acc: &mut [u8; 32], d: &[u8; 32]) {
    for (a, b) in acc.iter_mut().zip(d.iter()) {
        *a ^= b;
    }
}

/// The preload every clone of a [`KvStore::with_ycsb_records`] table
/// shares, immutable: record `k` of `0..n` is `values[k]` at version 1
/// (a dense array, since the preload's keys are exactly `0..n`), plus
/// the XOR fold of those records' digests.
#[derive(Debug, Default)]
struct Base {
    values: Vec<Value>,
    accum: [u8; 32],
}

impl Base {
    fn get(&self, key: u64) -> Option<Value> {
        self.values.get(usize::try_from(key).ok()?).copied()
    }
}

/// The YCSB table: a map from `u64` record keys to [`Value`]s plus a
/// monotone version counter per record.
///
/// A table is an immutable preload shared behind one `Arc` — built once
/// by [`KvStore::with_ycsb_records`], shared by every clone — and a
/// private overlay holding only the records this table wrote since: reads
/// look in the overlay first, then in the preload. Every replica of a
/// deployment (and every snapshot a replica retains) therefore holds the
/// preload once between them and pays memory only for what it wrote
/// ([`KvStore::private_records`]). A durable replica persists only its
/// overlay, and recovery lays it back over a clone of the same preload,
/// so restarted replicas share it too. [`KvStore::new`] has an empty
/// preload.
///
/// The store maintains an *incremental* state fingerprint: a running XOR of
/// the digests of every record it holds, preload and overlay, starting
/// from the preload's fold. XOR-accumulation makes `state_digest` O(1)
/// while still changing whenever any record differs — two stores have
/// equal digests iff they hold the same records at the same versions (up
/// to hash collisions, which SHA-256 makes negligible), however their
/// records divide between preload and overlay.
#[derive(Debug, Clone)]
pub struct KvStore {
    base: Arc<Base>,
    /// The records written since the table was built.
    overlay: HashMap<u64, (Value, u64)>,
    /// XOR of the digests of every record, preload and overlay.
    accum: [u8; 32],
    /// Cached total record count, preload and overlay.
    len: usize,
    stats: StoreStats,
    /// Number of transactions applied (batch items), used for checkpoints.
    applied_txns: u64,
    /// When present, every record write is appended here as
    /// `(key, value, new_version)`: the commit tail drains this buffer into
    /// each decision's `writes`, which the execute stage persists as one
    /// WAL batch and applies to its retained-snapshot mirror.
    captured: Option<Vec<(u64, Value, u64)>>,
}

impl KvStore {
    /// Create an empty store.
    pub fn new() -> KvStore {
        KvStore::over(Arc::default())
    }

    fn over(base: Arc<Base>) -> KvStore {
        KvStore {
            overlay: HashMap::new(),
            accum: base.accum,
            len: base.values.len(),
            base,
            stats: StoreStats::default(),
            applied_txns: 0,
            captured: None,
        }
    }

    /// Create a store preloaded with `record_count` records, mirroring the
    /// paper's initialization ("each replica is initialized with an
    /// identical copy of the YCSB table" with 600 k active records). Build
    /// it once and clone it: the clones share the preload.
    pub fn with_ycsb_records(record_count: u64) -> KvStore {
        let mut base = Base {
            values: (0..record_count).map(Value::from_u64).collect(),
            accum: [0u8; 32],
        };
        for (key, value) in (0..record_count).zip(&base.values) {
            let d = Self::record_digest(key, value, BASE_VERSION);
            xor_into(&mut base.accum, &d);
        }
        KvStore::over(Arc::new(base))
    }

    /// True when `a` and `b` share one preload allocation (clones of one
    /// table do).
    pub fn shares_base(a: &KvStore, b: &KvStore) -> bool {
        Arc::ptr_eq(&a.base, &b.base)
    }

    /// Number of records in this table's private overlay: those written
    /// since it was built (a preloaded record counts once it is
    /// rewritten). What the table holds beyond its shared preload.
    pub fn private_records(&self) -> usize {
        self.overlay.len()
    }

    pub(crate) fn record_digest(key: u64, value: &Value, version: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&key.to_le_bytes());
        h.update(&value.0);
        h.update(&version.to_le_bytes());
        h.finalize()
    }

    /// The record at `key`, overlay first, then the preload.
    fn record(&self, key: u64) -> Option<(Value, u64)> {
        match self.overlay.get(&key) {
            Some(&record) => Some(record),
            None => self.base.get(key).map(|v| (v, BASE_VERSION)),
        }
    }

    fn insert_raw(&mut self, key: u64, value: Value) {
        let new_ver = self.set(key, value, |old| old.map_or(1, |ver| ver + 1));
        if let Some(buf) = &mut self.captured {
            buf.push((key, value, new_ver));
        }
    }

    /// Write `value` at `key` in the overlay, at the version `version`
    /// gives the record it replaces (`None` if absent), maintaining the
    /// fingerprint and the length; returns the version written. One
    /// lookup in the overlay: the preload is read only when the overlay
    /// does not hold the key yet.
    fn set(&mut self, key: u64, value: Value, version: impl FnOnce(Option<u64>) -> u64) -> u64 {
        let slot = self.overlay.entry(key);
        let old = match &slot {
            Entry::Occupied(record) => Some(*record.get()),
            Entry::Vacant(_) => self.base.get(key).map(|v| (v, BASE_VERSION)),
        };
        let version = version(old.map(|(_, ver)| ver));
        slot.insert_entry((value, version));
        xor_into(&mut self.accum, &Self::record_digest(key, &value, version));
        match old {
            Some((old_v, old_ver)) => {
                xor_into(&mut self.accum, &Self::record_digest(key, &old_v, old_ver));
            }
            None => self.len += 1,
        }
        version
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

    /// Set `key` to the absolute image `(value, version)`, present or
    /// not, maintaining the fingerprint: the one write primitive. Durable
    /// recovery installs persisted records with it, and the execute
    /// stage's snapshot mirror applies each decision's captured images
    /// with it, executing nothing. Not captured.
    pub fn restore_record(&mut self, key: u64, value: Value, version: u64) {
        self.set(key, value, |_| version);
    }

    /// Every record as `(key, value, version)`, in unspecified order.
    pub fn records(&self) -> impl Iterator<Item = (u64, Value, u64)> + '_ {
        let overlay = self.overlay.iter().map(|(k, (v, ver))| (*k, *v, *ver));
        let base = (0u64..)
            .zip(&self.base.values)
            .filter(|(k, _)| !self.overlay.contains_key(k))
            .map(|(k, v)| (k, *v, BASE_VERSION));
        overlay.chain(base)
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
        self.record(key).map(|(v, _)| v)
    }

    /// Version of a record (1 on first write; None if absent).
    pub fn version(&self, key: u64) -> Option<u64> {
        self.record(key).map(|(_, ver)| ver)
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
        h.update(&self.accum);
        h.update(&(self.len as u64).to_le_bytes());
        Digest(h.finalize())
    }

    /// Audit the incremental fingerprint against a from-scratch rebuild:
    /// `true` iff [`KvStore::state_digest`] currently reflects the full
    /// table. O(records); used to validate checkpoint snapshots before
    /// they become recovery anchors.
    pub fn verify_fingerprint(&self) -> bool {
        let mut acc = [0u8; 32];
        for (key, value, version) in self.records() {
            xor_into(&mut acc, &Self::record_digest(key, &value, version));
        }
        acc == self.accum
    }

    fn contains(&self, key: u64) -> bool {
        self.record(key).is_some()
    }

    /// Execute one operation, returning its outcome.
    pub fn execute(&mut self, op: &Operation) -> ExecOutcome {
        self.applied_txns += 1;
        match op {
            Operation::Write { key, value } => {
                self.insert_raw(*key, *value);
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
                self.insert_raw(*key, current.with_counter(next));
                ExecOutcome::Counter(next)
            }
            Operation::Insert { key, value } => {
                self.insert_raw(*key, *value);
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
                    self.insert_raw(key, value);
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
    fn fingerprint_audit_detects_staleness() {
        let mut s = KvStore::with_ycsb_records(50);
        assert!(s.verify_fingerprint(), "fresh preload is live");
        s.execute(&Operation::Write {
            key: 1,
            value: Value::from_u64(7),
        });
        assert!(s.verify_fingerprint(), "fingerprinted writes stay live");
        // A record changed behind the fingerprint's back.
        s.overlay.insert(2, (Value::from_u64(8), 2));
        assert!(!s.verify_fingerprint(), "unhashed write left it stale");
    }

    #[test]
    fn restore_record_overwrites_a_present_key_keeping_the_fingerprint() {
        let mut executed = KvStore::with_ycsb_records(8);
        let mut mirror = executed.clone();
        executed.enable_capture();
        executed.execute(&Operation::Rmw { key: 3, delta: 5 });
        executed.execute(&Operation::Insert {
            key: 9,
            value: Value::from_u64(9),
        });
        for (key, value, version) in executed.take_captured() {
            mirror.restore_record(key, value, version);
        }
        assert_eq!(mirror.len(), 9);
        assert_eq!(mirror.version(3), Some(2));
        assert_eq!(mirror.state_digest(), executed.state_digest());
        assert!(mirror.verify_fingerprint());
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
        }
    }
}
