//! Property test: key-sharded lane execution is indistinguishable from
//! sequential execution — for random YCSB-style batches and any lane
//! count, the per-transaction `TxnEffect`s, merged statistics, and table
//! digest are byte-identical to `KvStore::execute_batch` on one store.

use proptest::prelude::*;
use rdb_store::lanes::execute_batch_sharded;
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
/// abort-touches-nothing path under sharded execution).
fn arb_account() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4, // hot, conflicting, underfunded
        0u64..4,
        0u64..4,
        0u64..RECORDS, // anywhere in the preload
    ]
}

/// SmallBank-shaped transaction programs: transfers (plain and
/// branch-guarded) between conflicting accounts, plus multi-key mints
/// whose 4-key footprint straddles every lane at small lane counts.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any batch sequence and lane count, sharded execution produces
    /// byte-identical per-txn effects and the same combined state digest
    /// as a single sequential store, and the merged store is
    /// indistinguishable (stats, applied count, live fingerprint).
    #[test]
    fn lanes_equal_sequential(batches in arb_batches(), lanes in 1usize..9) {
        let mut seq = KvStore::with_ycsb_records(RECORDS);
        let mut parts = KvStore::with_ycsb_records(RECORDS).split_lanes(lanes);

        for (i, batch) in batches.iter().enumerate() {
            let expect = seq.execute_batch(batch);
            let got = execute_batch_sharded(&mut parts, batch, true);
            prop_assert_eq!(&expect, &got, "batch {} diverged (lanes={})", i, lanes);
        }

        prop_assert_eq!(KvStore::combined_state_digest(&parts), seq.state_digest());
        let merged = KvStore::merge_lanes(parts);
        prop_assert_eq!(merged.state_digest(), seq.state_digest());
        prop_assert_eq!(merged.stats(), seq.stats());
        prop_assert_eq!(merged.applied_txns(), seq.applied_txns());
        prop_assert_eq!(merged.len(), seq.len());
        prop_assert!(merged.verify_fingerprint());
    }

    /// Register-machine transaction programs are lane-invariant: for
    /// random SmallBank-shaped batches full of hot-key conflicts, every
    /// lane count in {1, 2, 4} produces byte-identical per-transaction
    /// `TxnEffect`s (outcomes, aborts, write sets) and the same state
    /// digest as sequential execution on one store.
    #[test]
    fn txn_programs_lane_invariant(batches in arb_program_batches()) {
        let mut seq = KvStore::with_ycsb_records(RECORDS);
        let mut effects = Vec::new();
        for batch in &batches {
            effects.push(seq.execute_batch(batch));
        }

        for lanes in [1usize, 2, 4] {
            let mut parts = KvStore::with_ycsb_records(RECORDS).split_lanes(lanes);
            for (i, batch) in batches.iter().enumerate() {
                let got = execute_batch_sharded(&mut parts, batch, true);
                prop_assert_eq!(
                    &effects[i], &got,
                    "txn effects diverged at batch {} (lanes={})", i, lanes
                );
            }
            prop_assert_eq!(
                KvStore::combined_state_digest(&parts),
                seq.state_digest(),
                "state digest diverged (lanes={})", lanes
            );
            let merged = KvStore::merge_lanes(parts);
            prop_assert_eq!(merged.state_digest(), seq.state_digest());
            prop_assert_eq!(merged.stats(), seq.stats());
            prop_assert!(merged.verify_fingerprint());
        }
    }

    /// Write capture is lane-invariant: per batch, the union of the
    /// per-lane captured `(key, value, version)` images — last write wins
    /// per key — equals what one sequential store captured, image for
    /// image in count. This is what lets the fabric's executor assemble
    /// one lane-agnostic WAL batch per decision from lane completions.
    /// Split parts inherit the capture flag; one lane is the identity.
    #[test]
    fn captured_images_lane_invariant(
        plain in arb_batches(),
        programs in arb_program_batches(),
        lanes in 1usize..9,
    ) {
        fn last_wins(images: &[(u64, Value, u64)]) -> BTreeMap<u64, (Value, u64)> {
            images.iter().map(|&(k, v, ver)| (k, (v, ver))).collect()
        }
        let mut seq = KvStore::with_ycsb_records(RECORDS);
        seq.enable_capture();
        let mut parts = seq.clone().split_lanes(lanes);
        prop_assert!(parts.iter().all(|p| p.capturing()));

        for batch in plain.iter().chain(&programs) {
            seq.execute_batch(batch);
            execute_batch_sharded(&mut parts, batch, false);
            let expect = seq.take_captured();
            let got: Vec<_> = parts.iter_mut().flat_map(|p| p.take_captured()).collect();
            prop_assert_eq!(got.len(), expect.len(), "image count (lanes={})", lanes);
            prop_assert_eq!(last_wins(&got), last_wins(&expect), "lanes={}", lanes);
        }
    }

    /// The unfingerprinted fast path converges to the same digest once
    /// lane fingerprints are rebuilt (dirty shards only).
    #[test]
    fn unfingerprinted_lanes_rebuild_to_sequential(
        batches in arb_batches(),
        lanes in 1usize..5,
    ) {
        let mut seq = KvStore::with_ycsb_records(RECORDS);
        let mut parts = KvStore::with_ycsb_records(RECORDS).split_lanes(lanes);
        for batch in &batches {
            let expect = seq.execute_batch(batch);
            let got = execute_batch_sharded(&mut parts, batch, false);
            prop_assert_eq!(expect, got);
        }
        for part in &mut parts {
            part.rebuild_fingerprint();
        }
        prop_assert_eq!(KvStore::combined_state_digest(&parts), seq.state_digest());
    }
}
