//! Property tests: the two one-table contracts the fabric's execute stage
//! rests on, for random YCSB-style batches and SmallBank-shaped
//! transaction programs.
//!
//! * Deferred fingerprinting is invisible: `execute_unfingerprinted`
//!   followed by `rebuild_fingerprint` yields the outcomes and the
//!   `state_digest` that fingerprinted `execute` yields.
//! * Write capture is the WAL recovery contract: the captured
//!   `(key, value, version)` images of each batch, laid last-write-wins
//!   over the preload and installed with `restore_record` into an empty
//!   table, reproduce the executed table's records and digest.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The execute stage's fast path when checkpointing is off: applying
    /// every batch unfingerprinted and rebuilding the dirty shards once
    /// at the end gives the per-operation outcomes, statistics and state
    /// digest of fingerprinted execution — program writes included.
    /// Fails if a program write does not mark its shard dirty (the
    /// rebuild then skips it and the digest goes stale).
    #[test]
    fn unfingerprinted_execution_rebuilds_to_live_digest(
        plain in arb_batches(),
        programs in arb_program_batches(),
    ) {
        let mut live = KvStore::with_ycsb_records(RECORDS);
        let mut deferred = KvStore::with_ycsb_records(RECORDS);
        for (i, batch) in plain.iter().chain(&programs).enumerate() {
            let expect = live.execute_batch(batch);
            let got: Vec<_> = batch.iter().map(|op| deferred.execute_unfingerprinted(op)).collect();
            prop_assert_eq!(&expect.outcomes, &got, "batch {} diverged", i);
        }
        deferred.rebuild_fingerprint();
        prop_assert_eq!(deferred.state_digest(), live.state_digest());
        prop_assert!(deferred.verify_fingerprint());
        prop_assert_eq!(deferred.stats(), live.stats());
        prop_assert_eq!(deferred.applied_txns(), live.applied_txns());
    }

    /// The WAL recovery contract: the preload's records, overlaid batch
    /// by batch with the captured `(key, value, version)` images (last
    /// write wins per key, as the storage engine keeps them), restore
    /// into an empty table that holds exactly the executed table's
    /// records at their versions and reports its digest. Fails if a
    /// capture drops the version bump (records the old version) or
    /// misses a program's writes.
    #[test]
    fn captured_images_restore_the_table(
        plain in arb_batches(),
        programs in arb_program_batches(),
    ) {
        let mut table = KvStore::with_ycsb_records(RECORDS);
        let mut on_disk = sorted_records(&table);
        table.enable_capture();
        for batch in plain.iter().chain(&programs) {
            table.execute_batch(batch);
            for (key, value, version) in table.take_captured() {
                on_disk.insert(key, (value, version));
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
    }
}
