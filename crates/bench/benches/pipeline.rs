//! Pipeline staging benchmarks (paper Figure 9).
//!
//! Three angles on the staged runtime:
//!
//! * `pipeline-verify-fanout` — fixed verification-heavy work (a queue of
//!   commit certificates, each carrying `n - f` signatures) drained by
//!   1/2/4 verifier threads running the same pure
//!   [`VerifiedMessage::check`] the fabric's verify stage runs. Wall time
//!   dropping as fan-out grows = verification throughput scaling.
//! * `pipeline-fabric-occupancy` — the real threaded fabric under a
//!   verification-heavy closed-loop workload at verifier fan-out 1 vs 4,
//!   reporting completed transactions and worker-thread occupancy (the
//!   per-stage busy counters from `resilientdb::Metrics`).
//! * `pipeline-fabric-batch` — the original fabric macro-benchmark (E8):
//!   wall-clock throughput across batch sizes, the fabric-level analogue
//!   of Figure 13's batching sweep.
//! * `pipeline-checkpoint` — the checkpoint stage off / on / with
//!   snapshot retention: the cost of certified garbage collection, which
//!   runs off the critical path (live fingerprinting in the executor and
//!   the periodic table clone are the only on-path additions).
//! * `pipeline-overload` / `pipeline-simnet-overload` — offered load far
//!   above capacity at verifier fan-out 1/2/4, with deliberately tiny
//!   bounded input queues. The point is the *shape* of the degradation:
//!   throughput flattens near capacity while the input queue depth stays
//!   at its bound (flat memory) and the overflow lands in the
//!   shed/blocked counters — instead of the unbounded-queue collapse the
//!   "Looking Glass" study documents. The simnet variant shows the same
//!   policy deterministically on single-core CI hosts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, ClusterId, NodeId, ReplicaId};
use rdb_consensus::certificate::{commit_payload, CommitCertificate, CommitSig};
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::messages::Message;
use rdb_consensus::stage::Stage;
use rdb_consensus::stage::VerifiedMessage;
use rdb_consensus::types::{ClientBatch, SignedBatch, Transaction};
use rdb_crypto::sign::KeyStore;
use resilientdb::{DeploymentBuilder, QueuePolicy};
use std::sync::Arc;
use std::time::Duration;

/// Build a pool of valid `GlobalShare` messages: 1 client signature +
/// `n - f` commit signatures each — the most verification-heavy message
/// the protocols exchange.
fn cert_workload(count: usize) -> (SystemConfig, CryptoCtx, Vec<(NodeId, Message)>) {
    let system = SystemConfig::geo(1, 4).unwrap();
    let ks = KeyStore::new(0xBE7C);
    let me = ReplicaId::new(0, 0);
    let crypto = CryptoCtx::new(ks.register(me.into()), ks.verifier(), true);
    let client = ClientId::new(0, 0);
    let client_signer = ks.register(client.into());
    let peer_signers: Vec<_> = (1..4)
        .map(|i| {
            (
                ReplicaId::new(0, i),
                ks.register(ReplicaId::new(0, i).into()),
            )
        })
        .collect();

    let msgs = (0..count as u64)
        .map(|round| {
            let batch = ClientBatch {
                client,
                batch_seq: round,
                txns: (0..10)
                    .map(|i| Transaction {
                        client,
                        seq: round * 10 + i,
                        op: rdb_store::Operation::NoOp,
                    })
                    .collect(),
            };
            let digest = batch.digest();
            let sb = SignedBatch {
                batch,
                pubkey: client_signer.public_key(),
                sig: client_signer.sign(digest.as_bytes()),
            };
            let payload = commit_payload(ClusterId(0), round, &digest);
            let commits: Vec<CommitSig> = peer_signers
                .iter()
                .map(|(r, s)| CommitSig {
                    replica: *r,
                    sig: s.sign(&payload),
                })
                .collect();
            let cert = CommitCertificate {
                cluster: ClusterId(0),
                round,
                digest,
                batch: sb,
                commits,
            };
            (
                NodeId::Replica(ReplicaId::new(0, 1)),
                Message::GlobalShare { cert },
            )
        })
        .collect();
    (system, crypto, msgs)
}

/// Drain `msgs` through `fanout` verifier threads (strided batches, no
/// shared queue — pure verification scaling); panics on any drop (the
/// workload is honestly signed, so a drop is a bug).
fn drain_with_fanout(
    system: &SystemConfig,
    crypto: &CryptoCtx,
    msgs: &Arc<Vec<(NodeId, Message)>>,
    fanout: usize,
) -> usize {
    let system = Arc::new(system.clone());
    let handles: Vec<_> = (0..fanout)
        .map(|stripe| {
            let msgs = Arc::clone(msgs);
            let crypto = crypto.clone();
            let system = Arc::clone(&system);
            std::thread::spawn(move || {
                let mut ok = 0usize;
                for (from, msg) in msgs.iter().skip(stripe).step_by(fanout) {
                    if VerifiedMessage::check(&system, &crypto, *from, msg.clone()).is_some() {
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let ok: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(ok, msgs.len(), "verifier dropped honest traffic");
    ok
}

fn bench_verify_fanout(c: &mut Criterion) {
    let (system, crypto, msgs) = cert_workload(256);
    let msgs = Arc::new(msgs);
    let mut g = c.benchmark_group("pipeline-verify-fanout");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements(msgs.len() as u64));
    for fanout in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(fanout),
            &fanout,
            |b, &fanout| b.iter(|| black_box(drain_with_fanout(&system, &crypto, &msgs, fanout))),
        );
    }
    g.finish();
}

/// The modeled pipeline in `rdb-simnet`: deterministic and independent of
/// the host's core count (on a 1-core CI box the thread benches above
/// cannot scale, but the *model* still must). Virtual throughput should
/// rise with verifier fan-out on this verification-bound workload; the
/// numbers are printed per fan-out.
fn bench_simnet_fanout(c: &mut Criterion) {
    use rdb_simnet::{PipelineModel, Scenario};
    let mut g = c.benchmark_group("pipeline-simnet-fanout");
    g.sample_size(2);
    for fanout in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(fanout),
            &fanout,
            |b, &fanout| {
                b.iter(|| {
                    let mut s = Scenario::paper(ProtocolKind::Pbft, 1, 4).quick();
                    s.logical_clients = 4_000;
                    s.compute.pipeline = PipelineModel::with_verifiers(fanout);
                    let m = s.with_batch_size(50).run();
                    eprintln!(
                        "    modeled fanout={fanout}: {:.0} txn/s",
                        m.throughput_txn_s
                    );
                    m.throughput_txn_s as u64
                })
            },
        );
    }
    g.finish();
}

fn bench_fabric_occupancy(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline-fabric-occupancy");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(12));
    for fanout in [1usize, 4] {
        g.throughput(Throughput::Elements(50));
        g.bench_with_input(
            BenchmarkId::from_parameter(fanout),
            &fanout,
            |b, &fanout| {
                b.iter(|| {
                    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
                        .batch_size(50)
                        .clients(8)
                        .records(1_000)
                        .verifier_threads(fanout)
                        .duration(Duration::from_millis(300))
                        .run();
                    eprintln!(
                        "    fanout={fanout}: {} txns, worker occupancy {:.1}%",
                        report.completed_txns,
                        100.0 * report.worker_occupancy()
                    );
                    report.completed_txns
                })
            },
        );
    }
    g.finish();
}

/// The fabric under overload: 24 closed-loop clients against a 4-replica
/// PBFT cluster whose input queues are clamped to 16 envelopes
/// (shed-on-full). Degradation must be graceful: the input depth can
/// never exceed the bound × replicas no matter the offered load, and the
/// overflow is visible as shed droppable traffic plus blocked request
/// admissions rather than as queue growth.
fn bench_overload(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline-overload");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(12));
    for fanout in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(fanout),
            &fanout,
            |b, &fanout| {
                b.iter(|| {
                    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
                        .batch_size(10)
                        .clients(24)
                        .records(1_000)
                        .verifier_threads(fanout)
                        .input_queue(QueuePolicy::shed(16))
                        .duration(Duration::from_millis(300))
                        .run();
                    let input = report.stages.row(Stage::Input);
                    assert!(
                        input.queue_depth <= 16 * 4,
                        "input queue must stay at its bound: {}",
                        report.stages.summary()
                    );
                    eprintln!(
                        "    fanout={fanout}: {} txns, input depth {} (bound 64), shed {}, blocked {:?}",
                        report.completed_txns, input.queue_depth, input.shed, input.blocked,
                    );
                    report.completed_txns
                })
            },
        );
    }
    g.finish();
}

/// The same overload shape in the simulator: offered load (240 batch
/// clients) far above what one modeled primary verifies, with a 64-deep
/// shedding input bound. Shed traffic is recovered by retransmission, so
/// the scenario runs with short retry/progress timers (without them a
/// fully shed instance stays stalled for the whole modeled window) and
/// measures from t=0 so the admission burst's shedding is visible.
/// Deterministic regardless of host cores; numbers are printed per
/// fan-out.
fn bench_simnet_overload(c: &mut Criterion) {
    use rdb_common::time::SimDuration;
    use rdb_simnet::{Overload, PipelineModel, Scenario};
    let mut g = c.benchmark_group("pipeline-simnet-overload");
    g.sample_size(2);
    for fanout in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(fanout),
            &fanout,
            |b, &fanout| {
                b.iter(|| {
                    let mut s = Scenario::paper(ProtocolKind::Pbft, 1, 4).quick();
                    s.logical_clients = 12_000;
                    s.cfg.client_retry = SimDuration::from_millis(250);
                    s.cfg.progress_timeout = SimDuration::from_millis(600);
                    s.warmup = SimDuration::ZERO;
                    s.compute.pipeline =
                        PipelineModel::with_verifiers(fanout).with_input_queue(64, Overload::Shed);
                    let m = s.with_batch_size(50).run();
                    assert!(m.max_input_depth <= 65, "modeled depth past the bound");
                    assert!(
                        m.completed_batches > 0,
                        "modeled overload must degrade gracefully, not stall: {}",
                        m.summary()
                    );
                    eprintln!(
                        "    modeled overload fanout={fanout}: {:.0} txn/s, shed {}, max depth {}",
                        m.throughput_txn_s, m.shed_msgs, m.max_input_depth
                    );
                    m.shed_msgs
                })
            },
        );
    }
    g.finish();
}

/// Checkpointing cost on the fabric: the same closed-loop deployment
/// with the checkpoint stage off, on, and on-with-snapshots. The stage
/// runs off the critical path, so throughput should degrade only by the
/// executor's live fingerprinting plus (with snapshots) the periodic
/// table clone — while exec-to-stable lag stays bounded and the ledger
/// prefix is actually compacted (printed per iteration).
fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline-checkpoint");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(12));
    for (label, interval, snapshots) in [
        ("off", 0u64, false),
        ("on", 8, false),
        ("snapshots", 8, true),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
                    .batch_size(10)
                    .clients(4)
                    .records(1_000)
                    .checkpoint_interval(interval)
                    .checkpoint_snapshots(snapshots)
                    .duration(Duration::from_millis(300))
                    .run();
                let stable = report
                    .checkpoints
                    .values()
                    .map(|ckpt| ckpt.stable_height)
                    .max()
                    .unwrap_or(0);
                let retained = report
                    .ledgers
                    .values()
                    .map(|l| l.len())
                    .max()
                    .unwrap_or(0);
                eprintln!(
                    "    {label}: {} txns, max stable height {stable}, max retained blocks {retained}",
                    report.completed_txns
                );
                black_box(report.completed_txns)
            })
        });
    }
    g.finish();
}

fn bench_fabric_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline-fabric-batch");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(12));
    for batch in [10usize, 50] {
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
                    .batch_size(batch)
                    .clients(4)
                    .records(1_000)
                    .duration(Duration::from_millis(300))
                    .run();
                report.completed_txns
            })
        });
    }
    g.finish();
}

/// Serialization hot path (`pipeline-serialize`): encode a realistic
/// message mix — batched PrePrepares, control messages, certificates,
/// client replies — through the wire codec, comparing a fresh allocation
/// per send against [`rdb_consensus::codec::WireCodec`]'s reused buffer
/// (what every socket link holds). The Looking Glass study calls
/// serialization on the hot path a place real BFT systems win or lose
/// throughput; this pins the win of not allocating there.
fn bench_serialize(c: &mut Criterion) {
    use rdb_consensus::codec::{encode_frame_into, WireCodec};

    let (_system, _crypto, certs) = cert_workload(64);
    let me: NodeId = ReplicaId::new(0, 0).into();
    let peer: NodeId = ReplicaId::new(0, 1).into();
    let client = ClientId::new(0, 0);
    let big_batch = |seq: u64| SignedBatch {
        batch: ClientBatch {
            client,
            batch_seq: seq,
            txns: (0..50)
                .map(|i| Transaction {
                    client,
                    seq: seq * 50 + i,
                    op: rdb_store::Operation::Write {
                        key: i,
                        value: rdb_store::Value::from_u64(i),
                    },
                })
                .collect(),
        },
        pubkey: Default::default(),
        sig: Default::default(),
    };
    // The mix a busy PBFT primary actually sends: one batched
    // PrePrepare, the n² control fan-out, certificates, replies.
    let mut mix: Vec<Message> = Vec::new();
    for (i, (_, cert)) in certs.into_iter().enumerate() {
        let batch = big_batch(i as u64);
        mix.push(Message::PrePrepare {
            scope: rdb_consensus::Scope::Global,
            view: 0,
            seq: i as u64,
            digest: batch.digest(),
            batch,
        });
        for _ in 0..3 {
            mix.push(Message::Prepare {
                scope: rdb_consensus::Scope::Global,
                view: 0,
                seq: i as u64,
                digest: Default::default(),
            });
        }
        mix.push(cert);
    }

    let mut g = c.benchmark_group("pipeline-serialize");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements(mix.len() as u64));
    g.bench_function("alloc-per-send", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for msg in &mix {
                let mut out = Vec::new();
                encode_frame_into(&mut out, me, peer, msg);
                total += black_box(&out).len();
            }
            total
        })
    });
    g.bench_function("reused-buffer", |b| {
        let mut codec = WireCodec::new();
        b.iter(|| {
            let mut total = 0usize;
            for msg in &mix {
                total += black_box(codec.encode_frame(me, peer, msg)).len();
            }
            total
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_verify_fanout,
    bench_simnet_fanout,
    bench_fabric_occupancy,
    bench_overload,
    bench_simnet_overload,
    bench_checkpoint,
    bench_fabric_batch,
    bench_serialize
);
criterion_main!(benches);
