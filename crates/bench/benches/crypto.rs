//! Micro-benchmark of the Merkle tree (E7). SHA-256, HMAC and
//! signing/verification are `bench_report`'s `crypto.*` per-layer rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdb_crypto::digest::Digest;
use rdb_crypto::merkle::MerkleTree;

fn bench_merkle(c: &mut Criterion) {
    let mut g = c.benchmark_group("merkle");
    for n in [16usize, 128, 1024] {
        let leaves: Vec<Digest> = (0..n as u64)
            .map(|i| Digest::of(&i.to_le_bytes()))
            .collect();
        g.bench_with_input(BenchmarkId::new("build", n), &leaves, |b, l| {
            b.iter(|| MerkleTree::build(std::hint::black_box(l)))
        });
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        let proof = tree.prove(n / 2).expect("proof");
        g.bench_with_input(BenchmarkId::new("verify", n), &proof, |b, p| {
            b.iter(|| MerkleTree::verify(&root, &leaves[n / 2], std::hint::black_box(p)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_merkle);
criterion_main!(benches);
