//! Property test: the write-capture contract the fabric's execute stage
//! rests on, for random YCSB-style batches and SmallBank-shaped
//! transaction programs. The captured `(key, value, version)` images of
//! each batch reproduce the executed table's records and digest two ways:
//! laid last-write-wins over the preload and installed with
//! `restore_record` into an empty table (WAL recovery), and applied in
//! order with `restore_record` onto the preloaded table itself (the
//! execute stage's snapshot mirror). And the overlay contract: a table
//! over the shared preload behaves, write for write, like a flat table
//! holding the same records.

use proptest::prelude::*;
use rdb_store::txn::TxnProgram;
use rdb_store::{KvStore, Operation, Value};
use std::collections::BTreeMap;

const RECORDS: u64 = 96;

fn arb_op() -> impl Strategy<Value = Operation> {
    prop_oneof![
        (0u64..128, any::<u64>()).prop_map(|(key, v)| Operation::Write {
            key,
            value: Value::from_u64(v)
        }),
        (0u64..128).prop_map(|key| Operation::Read { key }),
        (0u64..128, 0u64..1000).prop_map(|(key, delta)| Operation::Rmw { key, delta }),
        (96u64..160, any::<u64>()).prop_map(|(key, v)| Operation::Insert {
            key,
            value: Value::from_u64(v)
        }),
        (0u64..128, 0u32..32).prop_map(|(key, count)| Operation::Scan { key, count }),
        Just(Operation::NoOp),
    ]
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Operation>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 0..12), 0..20)
}

/// An account pick heavily biased towards a tiny hot set, so programs in
/// the same batch conflict on purpose (the chronically-underfunded hot
/// accounts also make underflow aborts routine, exercising the
/// abort-touches-nothing path).
fn arb_account() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4, // hot, conflicting, underfunded
        0u64..4,
        0u64..4,
        0u64..RECORDS, // anywhere in the preload
    ]
}

/// SmallBank-shaped transaction programs: transfers (plain and
/// branch-guarded) between conflicting accounts, plus multi-key mints.
fn arb_program() -> impl Strategy<Value = Operation> {
    prop_oneof![
        (arb_account(), arb_account(), 1u64..200)
            .prop_map(|(f, t, a)| Operation::Txn(TxnProgram::transfer(f, t, a))),
        (arb_account(), arb_account(), 1u64..200)
            .prop_map(|(f, t, a)| Operation::Txn(TxnProgram::transfer_checked(f, t, a))),
        (1u64..RECORDS - 3, 1u64..16).prop_map(|(base, amt)| {
            Operation::Txn(TxnProgram::mint(0, &[base, base + 1, base + 2], amt))
        }),
    ]
}

fn arb_program_batches() -> impl Strategy<Value = Vec<Vec<Operation>>> {
    proptest::collection::vec(proptest::collection::vec(arb_program(), 1..8), 1..12)
}

/// Every record of `store`, ordered by key.
fn sorted_records(store: &KvStore) -> BTreeMap<u64, (Value, u64)> {
    store.records().map(|(k, v, ver)| (k, (v, ver))).collect()
}

/// `a` and `b` hold the same records and say so through every reader:
/// `get`, `version`, `len`, sorted `records()`, `state_digest`, and a
/// live fingerprint.
fn same_table(a: &KvStore, b: &KvStore) {
    for key in 0..170 {
        prop_assert_eq!(a.get(key), b.get(key), "get({})", key);
        prop_assert_eq!(a.version(key), b.version(key), "version({})", key);
    }
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(sorted_records(a), sorted_records(b));
    prop_assert_eq!(a.state_digest(), b.state_digest());
    prop_assert!(a.verify_fingerprint() && b.verify_fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The overlay contract: a clone of the shared preload, run through
    /// writes, reads, read-modify-writes, inserts past the preload, scans
    /// across its edge and programs, agrees on every outcome and every
    /// reader with a flat table — the preload's records installed with
    /// `restore_record` into `KvStore::new()` — and keeps in its overlay
    /// exactly the records that differ from the preload. A write through
    /// one clone never shows in another, and a clone taken mid-stream
    /// (the checkpoint snapshot path) equals its source and stays as it
    /// was.
    #[test]
    fn an_overlaid_table_matches_a_flat_one(
        ops in proptest::collection::vec(prop_oneof![arb_op(), arb_program()], 0..160),
        snap_at in 0usize..160,
    ) {
        let preload = KvStore::with_ycsb_records(RECORDS);
        let mut flat = KvStore::new();
        for (key, value, version) in preload.records() {
            flat.restore_record(key, value, version);
        }
        same_table(&preload, &flat);
        let untouched = flat.clone();
        let mut table = preload.clone();
        let sibling = preload.clone();
        let mut snapshot = None;
        for (i, op) in ops.iter().enumerate() {
            if i == snap_at {
                let snap = table.clone();
                same_table(&snap, &table);
                prop_assert!(KvStore::shares_base(&snap, &table));
                snapshot = Some((snap, flat.clone()));
            }
            prop_assert_eq!(table.execute(op), flat.execute(op));
        }
        same_table(&table, &flat);
        let written = sorted_records(&table)
            .iter()
            .filter(|(&key, &(_, version))| key >= RECORDS || version > 1)
            .count();
        prop_assert_eq!(table.private_records(), written);

        prop_assert!(KvStore::shares_base(&table, &sibling));
        prop_assert_eq!(sibling.private_records(), 0);
        same_table(&sibling, &untouched);
        same_table(&preload, &untouched);
        if let Some((snap, flat_then)) = snapshot {
            same_table(&snap, &flat_then);
        }
    }

    /// The WAL recovery contract: the preload's records, overlaid batch
    /// by batch with the captured `(key, value, version)` images (last
    /// write wins per key, as the storage engine keeps them), restore
    /// into an empty table that holds exactly the executed table's
    /// records at their versions and reports its digest. The mirror
    /// contract: the same images, applied in order onto a copy of the
    /// preloaded, non-empty table, reach that digest too. Fails if a
    /// capture drops the version bump (records the old version) or
    /// misses a program's writes, or if `restore_record` over a present
    /// key loses the old record's fingerprint.
    #[test]
    fn captured_images_restore_the_table(
        plain in arb_batches(),
        programs in arb_program_batches(),
    ) {
        let mut table = KvStore::with_ycsb_records(RECORDS);
        let mut on_disk = sorted_records(&table);
        let mut mirror = table.clone();
        table.enable_capture();
        for batch in plain.iter().chain(&programs) {
            table.execute_batch(batch);
            for (key, value, version) in table.take_captured() {
                on_disk.insert(key, (value, version));
                mirror.restore_record(key, value, version);
            }
        }
        let mut recovered = KvStore::new();
        for (&key, &(value, version)) in &on_disk {
            recovered.restore_record(key, value, version);
        }
        prop_assert_eq!(sorted_records(&recovered), sorted_records(&table));
        prop_assert_eq!(recovered.len(), table.len());
        prop_assert_eq!(recovered.state_digest(), table.state_digest());
        prop_assert!(recovered.verify_fingerprint());
        prop_assert_eq!(sorted_records(&mirror), sorted_records(&table));
        prop_assert_eq!(mirror.state_digest(), table.state_digest());
        prop_assert!(mirror.verify_fingerprint());
    }
}
