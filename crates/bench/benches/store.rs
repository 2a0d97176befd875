//! Micro-benchmark of the execution substrate's fingerprint rebuild.
//! Table operations, batch execution and workload generation are
//! `bench_report`'s `store.*` and `workload.*` per-layer rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdb_store::{KvStore, Operation, Value};

/// The fingerprint-rebuild cost an unfingerprinted catch-up pays
/// (recovery replay, lane-pool shutdown): the store tracks which of its
/// internal shards a write dirtied, so `rebuild_fingerprint` rescans
/// only those — against `rebuild_fingerprint_full`'s whole-table rescan,
/// the pre-sharding behavior. A touch set that lands in one shard of a
/// 100k-record table should rebuild roughly [`rdb_store::STORE_SHARDS`]×
/// faster.
fn bench_fingerprint_rebuild(c: &mut Criterion) {
    let mut g = c.benchmark_group("store-exec");
    g.sample_size(20);
    // Each iteration dirties one internal shard (64 writes to keys
    // congruent mod STORE_SHARDS — the sparse-update shape checkpoint
    // intervals produce), then rebuilds; the two variants differ only in
    // the rescan, so their gap is the amortization.
    for records in [10_000u64, 100_000] {
        g.bench_with_input(
            BenchmarkId::new("dirty-rescan", records),
            &records,
            |b, &records| {
                let mut store = KvStore::with_ycsb_records(records);
                let mut i = 0u64;
                b.iter(|| {
                    for _ in 0..64 {
                        i += 1;
                        store.execute_unfingerprinted(&Operation::Write {
                            key: (i * rdb_store::STORE_SHARDS as u64) % records,
                            value: Value::from_u64(i),
                        });
                    }
                    store.rebuild_fingerprint()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("full-rescan", records),
            &records,
            |b, &records| {
                let mut store = KvStore::with_ycsb_records(records);
                let mut i = 0u64;
                b.iter(|| {
                    for _ in 0..64 {
                        i += 1;
                        store.execute_unfingerprinted(&Operation::Write {
                            key: (i * rdb_store::STORE_SHARDS as u64) % records,
                            value: Value::from_u64(i),
                        });
                    }
                    store.rebuild_fingerprint_full()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fingerprint_rebuild);
criterion_main!(benches);
