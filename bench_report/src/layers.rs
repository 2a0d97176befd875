//! Single-threaded layer replay: the workload's seeded batch stream fed
//! through each layer's public functions, one span per call, so every
//! layer has its own number next to the end-to-end ones.
//!
//! Replay runs after the traced fabric run, on an otherwise idle process.
//! Timings are medians over per-call spans (robust against steal
//! bursts); operations too short for a span each are timed in bulk.
//! Counts (`consensus.msgs_per_decision.*`, `storage.*` bytes and
//! flushes, `simnet.modeled_txn_s`) come from one client and a FIFO
//! router, so they repeat exactly for a given seed.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Workload, RECORDS};
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_common::time::{SimDuration, SimTime};
use rdb_consensus::api::{Action, Outbox, ReplicaProtocol};
use rdb_consensus::codec::{decode_frame_body, WireCodec};
use rdb_consensus::config::{ExecMode, ProtocolKind};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::stage::VerifiedMessage;
use rdb_consensus::types::SignedBatch;
use rdb_consensus::{registry, Message, ProtocolConfig};
use rdb_crypto::sign::{KeyStore, Signer};
use rdb_ledger::Ledger;
use rdb_storage::{Keyspace, LogBackend, LogConfig, StorageBackend, WriteBatch};
use rdb_store::{KvStore, Operation, Value};
use rdb_workload::ycsb::YcsbWorkload;
use resilientdb::{InProcTransport, SocketKind, SocketTransport, Transport};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// How much of the stream each replay consumes. The per-batch layers
/// take the first `batches` batches; one consensus decision costs every
/// replica a round of signing, executing and replying, so ordering takes
/// the first `decisions` only.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySize {
    pub batches: usize,
    pub decisions: usize,
    pub roundtrips: usize,
    /// Virtual milliseconds the simulator measures (after a third as
    /// much warm-up).
    pub simnet_ms: u64,
}

impl ReplaySize {
    pub const FULL: ReplaySize = ReplaySize {
        batches: 2_000,
        decisions: 200,
        roundtrips: 2_000,
        // `Scenario::quick()`'s own window.
        simnet_ms: 1_500,
    };
    pub const QUICK: ReplaySize = ReplaySize {
        batches: 50,
        decisions: 10,
        roundtrips: 100,
        simnet_ms: 150,
    };
}

type Metrics = Vec<(&'static str, f64)>;

/// ns per call over `iters` back-to-back calls of `f`.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A client that signs the workload's stream into `SignedBatch`es.
struct StreamClient {
    signer: Signer,
    stream: YcsbWorkload,
    next: u64,
}

impl StreamClient {
    fn new(w: &Workload, ks: &KeyStore, id: ClientId, seed: u64) -> StreamClient {
        StreamClient {
            signer: ks.register(id.into()),
            stream: YcsbWorkload::new(w.ycsb(), id, seed),
            next: 0,
        }
    }

    fn next_signed(&mut self) -> SignedBatch {
        let batch = self.stream.next_batch(self.next);
        self.next += 1;
        SignedBatch {
            sig: self.signer.sign(batch.digest().as_bytes()),
            pubkey: self.signer.public_key(),
            batch,
        }
    }
}

/// rdb-workload and rdb-crypto: the generator's own cost, then sign /
/// verify over the batch digests clients sign, HMAC and SHA-256 in bulk.
fn replay_crypto(w: &Workload, seed: u64, size: ReplaySize, t: &Tracer, out: &mut Metrics) {
    let ks = KeyStore::new(seed);
    let verifier = ks.verifier();
    let mut client = StreamClient::new(w, &ks, ClientId::new(0, 0), seed);
    let (mut gen, mut sign, mut verify) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..size.batches as u64 {
        let (batch, ns) = t.timed("workload.next_batch", || client.stream.next_batch(i));
        gen.push(ns / batch.len() as f64);
        let digest = batch.digest();
        let (sig, ns) = t.timed("crypto.sign", || client.signer.sign(digest.as_bytes()));
        sign.push(ns);
        let (ok, ns) = t.timed("crypto.verify", || {
            verifier.verify(&client.signer.public_key(), digest.as_bytes(), &sig)
        });
        verify.push(ns);
        assert!(ok, "a fresh signature verifies");
    }
    let block = vec![0xA5u8; 64 * 1024];
    let sha = ns_per_call(64, |_| {
        black_box(rdb_crypto::sha256::sha256(black_box(&block)));
    });
    let key = [7u8; 32];
    let hmac = ns_per_call(20_000, |i| {
        let at = i % 1024;
        black_box(rdb_crypto::hmac::hmac_sha256(&key, &block[at..at + 64]));
    });
    out.extend([
        ("workload.gen_ns_per_txn", median(&gen)),
        ("crypto.sign_ns", median(&sign)),
        ("crypto.verify_ns", median(&verify)),
        ("crypto.sha256_ns_per_byte", sha / block.len() as f64),
        ("crypto.hmac_ns", hmac),
    ]);
}

/// Decisions whose traffic `route` keeps as the codec / verify corpus.
const CORPUS_DECISIONS: usize = 4;

/// What routing one protocol, decision after decision, produced.
struct Routed {
    order_ns_per_decision: f64,
    msgs_per_decision: f64,
    global_bytes_per_decision: f64,
    /// Everything sent during the first [`CORPUS_DECISIONS`] decisions,
    /// in send order.
    corpus: Vec<(NodeId, NodeId, Message)>,
    system: SystemConfig,
    /// A context that checks signatures for real, as the verify stage's
    /// does (the check does not depend on which replica makes it).
    verify_ctx: CryptoCtx,
}

/// rdb-consensus ordering: `registry::build_replica` state machines on a
/// pre-verified context behind a FIFO router — one thread, no clock, no
/// loss. A decision is one client batch per cluster, routed until no
/// message is left; its cost is the time spent inside `on_message`.
fn route(
    w: &Workload,
    kind: ProtocolKind,
    z: usize,
    seed: u64,
    decisions: usize,
    t: &Tracer,
) -> Routed {
    let system = SystemConfig::geo(z, w.n).expect("valid system");
    let mut cfg = ProtocolConfig::new(system.clone());
    cfg.batch_size = w.batch;
    cfg.exec_mode = ExecMode::Real;
    let ks = KeyStore::new(seed);
    let mut verify_ctx = None;
    let mut replicas: Vec<Box<dyn ReplicaProtocol>> = system
        .all_replicas()
        .map(|rid| {
            let crypto = CryptoCtx::new(ks.register(rid.into()), ks.verifier(), true);
            verify_ctx.get_or_insert_with(|| crypto.clone());
            let store = KvStore::with_ycsb_records(RECORDS);
            registry::build_replica(kind, cfg.clone(), rid, crypto.preverified(), store)
        })
        .collect();
    let mut clients: Vec<(ClientId, StreamClient)> = (0..z as u16)
        .map(|c| ClientId::new(c, 0))
        .map(|id| (id, StreamClient::new(w, &ks, id, seed)))
        .collect();

    let mut out = Outbox::new();
    for r in replicas.iter_mut() {
        r.on_start(SimTime::ZERO, &mut out);
    }
    out.take(); // timers only, and the router has no clock

    let mut queue: VecDeque<(NodeId, NodeId, Message)> = VecDeque::new();
    let (mut msgs, mut global_bytes, mut decided) = (0u64, 0u64, 0usize);
    let mut corpus = Vec::new();
    let mut order_ns = Vec::with_capacity(decisions);
    for d in 0..decisions {
        for (id, client) in clients.iter_mut() {
            let primary = system.primary_of(id.cluster, 0);
            queue.push_back((
                (*id).into(),
                primary.into(),
                Message::Request(client.next_signed()),
            ));
        }
        let mut busy = 0.0;
        while let Some((from, to, msg)) = queue.pop_front() {
            let NodeId::Replica(rid) = to else {
                continue; // replies leave the replica mesh
            };
            let replica = &mut replicas[rid.global_index(w.n)];
            let ((), ns) = t.timed("consensus.order", || {
                replica.on_message(SimTime::ZERO, from, msg, &mut out)
            });
            busy += ns;
            for action in out.take() {
                match action {
                    Action::Send { to: dest, msg } => {
                        // A replica's vote for itself never reaches a wire.
                        if dest != to {
                            msgs += 1;
                            if dest.is_replica() && dest.cluster() != to.cluster() {
                                global_bytes += msg.wire_size() as u64;
                            }
                            if d < CORPUS_DECISIONS {
                                corpus.push((to, dest, msg.clone()));
                            }
                        }
                        queue.push_back((to, dest, msg));
                    }
                    Action::Decided(_) => decided += 1,
                    _ => {}
                }
            }
        }
        order_ns.push(busy);
    }
    assert_eq!(
        decided,
        decisions * replicas.len(),
        "every replica decides every routed round"
    );
    Routed {
        order_ns_per_decision: median(&order_ns),
        msgs_per_decision: msgs as f64 / decisions as f64,
        global_bytes_per_decision: global_bytes as f64 / decisions as f64,
        corpus,
        system,
        verify_ctx: verify_ctx.expect("a system has replicas"),
    }
}

/// rdb-consensus: ordering for both protocols, then the codec and the
/// verify stage over the messages GeoBFT's first decisions sent. Returns
/// a PBFT `Commit` for the transport ping-pong.
fn replay_consensus(
    w: &Workload,
    seed: u64,
    size: ReplaySize,
    t: &Tracer,
    out: &mut Metrics,
) -> Message {
    let geo = route(w, ProtocolKind::GeoBft, 2, seed, size.decisions, t);
    let pbft = route(w, ProtocolKind::Pbft, 1, seed, size.decisions, t);
    out.extend([
        (
            "consensus.order_ns_per_decision.geobft",
            geo.order_ns_per_decision,
        ),
        (
            "consensus.order_ns_per_decision.pbft",
            pbft.order_ns_per_decision,
        ),
        ("consensus.msgs_per_decision.geobft", geo.msgs_per_decision),
        ("consensus.msgs_per_decision.pbft", pbft.msgs_per_decision),
        (
            "consensus.global_bytes_per_decision.geobft",
            geo.global_bytes_per_decision,
        ),
    ]);

    let mut codec = WireCodec::new();
    let (mut frame_bytes, mut encode_ns, mut decode_ns) = (0usize, 0.0, 0.0);
    let mut verify_ns = Vec::new();
    for (from, to, msg) in &geo.corpus {
        let (frame, ns) = t.timed("codec.encode_frame", || {
            codec.encode_frame(*from, *to, msg).to_vec()
        });
        encode_ns += ns;
        frame_bytes += frame.len();
        // The socket reader strips the 4-byte length prefix first.
        let (decoded, ns) = t.timed("codec.decode_frame", || decode_frame_body(&frame[4..]));
        decode_ns += ns;
        assert_eq!(decoded.as_ref().map(|d| &d.2), Ok(msg), "frames round-trip");
        if to.is_replica() {
            let (checked, ns) = t.timed("stage.verify_check", || {
                VerifiedMessage::check(&geo.system, &geo.verify_ctx, *from, msg.clone())
            });
            verify_ns.push(ns);
            assert!(checked.is_some(), "honest traffic passes the verify stage");
        }
    }
    let kb = frame_bytes as f64 / 1024.0;
    let corpus_txns = CORPUS_DECISIONS.min(size.decisions) * 2 * w.batch;
    out.extend([
        ("codec.encode_ns_per_kb", encode_ns / kb),
        ("codec.decode_ns_per_kb", decode_ns / kb),
        (
            "codec.frame_bytes_per_txn",
            frame_bytes as f64 / corpus_txns as f64,
        ),
        ("stage.verify_ns_per_msg", median(&verify_ns)),
    ]);
    pbft.corpus
        .into_iter()
        .map(|(_, _, msg)| msg)
        .find(|m| matches!(m, Message::Commit { .. }))
        .expect("PBFT decisions send Commit votes")
}

/// The table writes one batch made: `(key, value, version)` images.
type RecordImages = Vec<(u64, Value, u64)>;

/// rdb-store and rdb-ledger: execute every batch, digest the state,
/// append the block; then hash and verify the chain, and time point
/// reads and writes in bulk.
fn replay_store_ledger(
    batches: &[SignedBatch],
    t: &Tracer,
    out: &mut Metrics,
) -> (Ledger, Vec<RecordImages>) {
    let mut store = KvStore::with_ycsb_records(RECORDS);
    store.enable_capture();
    let mut ledger = Ledger::new();
    let mut writes = Vec::with_capacity(batches.len());
    let (mut execute, mut digest, mut append) = (Vec::new(), Vec::new(), Vec::new());
    for sb in batches {
        let ops: Vec<Operation> = sb.batch.operations().cloned().collect();
        let (_, ns) = t.timed("store.execute_batch", || {
            black_box(store.execute_batch(&ops))
        });
        execute.push(ns / ops.len() as f64);
        let (state, ns) = t.timed("store.state_digest", || store.state_digest());
        digest.push(ns);
        writes.push(store.take_captured());
        let ((), ns) = t.timed("ledger.append", || {
            ledger.append(sb.clone(), None, state);
        });
        append.push(ns);
    }
    let keys: Vec<u64> = batches
        .iter()
        .flat_map(|sb| sb.batch.operations().filter_map(Operation::primary_key))
        .collect();
    let read = ns_per_call(keys.len(), |i| {
        black_box(store.get(keys[i]));
    });
    let write = ns_per_call(keys.len(), |i| {
        let value = Value::from_u64(i as u64);
        black_box(store.execute(&Operation::Write {
            key: keys[i],
            value,
        }));
    });
    let head = ledger.block(ledger.head_height()).expect("head present");
    let hash = ns_per_call(200, |_| {
        black_box(black_box(head).hash());
    });
    let (verified, verify_ns) = t.timed("ledger.verify", || ledger.verify(None));
    verified.expect("a freshly appended chain verifies");
    out.extend([
        ("store.execute_batch_ns_per_txn", median(&execute)),
        ("store.read_ns", read),
        ("store.write_ns", write),
        ("store.state_digest_ns", median(&digest)),
        ("ledger.append_ns_per_block", median(&append)),
        ("ledger.block_hash_ns", hash),
        (
            "ledger.verify_ns_per_block",
            verify_ns / batches.len() as f64,
        ),
    ]);
    (ledger, writes)
}

/// rdb-storage: executor-shaped `WriteBatch`es — one JSON block, the
/// batch's record images, the applied watermark, as
/// `resilientdb::storage` persists a decision — through
/// `LogBackend::apply`; then flush, reopen and point reads.
fn replay_storage(
    ledger: &Ledger,
    writes: &[RecordImages],
    dir: &Path,
    t: &Tracer,
    out: &mut Metrics,
) {
    let _ = std::fs::remove_dir_all(dir);
    let mut engine = LogBackend::open(dir, LogConfig::default()).expect("open replay engine");
    let (mut json_ns, mut apply_ns) = (Vec::new(), Vec::new());
    let mut user_bytes = 0usize;
    for (block, images) in ledger.blocks()[1..].iter().zip(writes) {
        let (json, ns) = t.timed("storage.block_json_encode", || {
            serde_json::to_string(block).expect("blocks serialize")
        });
        json_ns.push(ns);
        let mut batch = WriteBatch::new();
        batch.put(
            Keyspace::Blocks,
            block.height.to_be_bytes(),
            json.into_bytes(),
        );
        for (key, value, version) in images {
            let mut image = [0u8; 32];
            image[..24].copy_from_slice(&value.0);
            image[24..].copy_from_slice(&version.to_le_bytes());
            batch.put(Keyspace::Table, key.to_be_bytes(), image);
        }
        user_bytes += 32 * images.len();
        batch.put(Keyspace::Meta, &b"applied"[..], block.height.to_le_bytes());
        let (applied, ns) = t.timed("storage.apply", || engine.apply(batch));
        applied.expect("apply replay batch");
        apply_ns.push(ns);
    }
    let applied = engine.stats();
    let (flushed, flush_ns) = t.timed("storage.flush", || engine.flush());
    flushed.expect("flush replay engine");
    let sealed = engine.stats();
    drop(engine);
    let (engine, reopen_ns) = t.timed("storage.reopen", || {
        LogBackend::open(dir, LogConfig::default())
    });
    let engine = engine.expect("reopen replay engine");
    let keys: Vec<[u8; 8]> = writes
        .iter()
        .flatten()
        .take(20_000)
        .map(|(k, _, _)| k.to_be_bytes())
        .collect();
    let get = ns_per_call(keys.len(), |i| {
        black_box(engine.get(Keyspace::Table, &keys[i]));
    });
    drop(engine);
    std::fs::remove_dir_all(dir).expect("remove replay engine directory");
    let kbatches = writes.len() as f64 / 1e3;
    out.extend([
        ("storage.apply_ns_per_batch", median(&apply_ns)),
        ("storage.block_json_encode_ns", median(&json_ns)),
        (
            "storage.wal_bytes_per_batch",
            applied.wal_bytes as f64 / writes.len() as f64,
        ),
        // Everything the engine wrote, final flush included, per byte of
        // record image (8-byte key + 24-byte value) it was asked to keep.
        (
            "storage.write_amp",
            (sealed.wal_bytes + sealed.run_bytes) as f64 / user_bytes as f64,
        ),
        (
            "storage.flushes_per_kbatch",
            applied.flushes as f64 / kbatches,
        ),
        (
            "storage.compactions_per_kbatch",
            applied.compactions as f64 / kbatches,
        ),
        ("storage.flush_ms", flush_ns / 1e6),
        ("storage.reopen_ms", reopen_ns / 1e6),
        ("storage.get_ns", get),
    ]);
}

/// resilientdb transports: two registered nodes ping-ponging one
/// `Commit`; the median round trip in µs.
fn roundtrip_us(transport: Transport, msg: &Message, n: usize, t: &Tracer) -> f64 {
    let a: NodeId = ReplicaId::new(0, 0).into();
    let b: NodeId = ReplicaId::new(0, 1).into();
    let ha = transport.register(a);
    let hb = transport.register(b);
    let rtts = std::thread::scope(|s| {
        let echo = s.spawn(move || {
            for _ in 0..n {
                let env = hb.inbox.recv().expect("ping arrives");
                hb.send(env.from, env.msg);
            }
        });
        let rtts: Vec<f64> = (0..n)
            .map(|_| {
                t.timed("transport.roundtrip", || {
                    ha.send(b, msg.clone());
                    ha.inbox.recv().expect("pong arrives");
                })
                .1 / 1e3
            })
            .collect();
        echo.join().expect("echo thread panicked");
        rtts
    });
    transport.shutdown();
    median(&rtts)
}

/// rdb-simnet: the deterministic model of the headline configuration,
/// and how fast the engine itself runs.
fn replay_simnet(measured_txn_s: f64, size: ReplaySize, t: &Tracer, out: &mut Metrics) {
    let mut scenario = rdb_simnet::Scenario::paper(ProtocolKind::GeoBft, 2, 4);
    scenario.warmup = SimDuration::from_millis(size.simnet_ms / 3);
    scenario.measure = SimDuration::from_millis(size.simnet_ms);
    let virtual_s = size.simnet_ms as f64 / 1e3;
    let (m, wall_ns) = t.timed("simnet.run", || scenario.run());
    let kdecisions = m.decisions_per_s * virtual_s / 1e3;
    out.extend([
        ("simnet.modeled_txn_s", m.throughput_txn_s),
        ("simnet.wall_ms_per_kdecision", wall_ns / 1e6 / kdecisions),
        (
            "simnet.modeled_over_measured",
            m.throughput_txn_s / measured_txn_s,
        ),
    ]);
}

/// Replay every layer over `w`'s stream. `measured_txn_s` is the fabric
/// run's throughput (for the modeled-over-measured ratio); `scratch` is a
/// directory the storage replay may create an engine under.
pub fn replay(
    w: &Workload,
    seed: u64,
    size: ReplaySize,
    measured_txn_s: f64,
    scratch: &Path,
    t: &Tracer,
) -> Metrics {
    let mut out = Metrics::new();
    replay_crypto(w, seed, size, t, &mut out);
    let commit = replay_consensus(w, seed, size, t, &mut out);

    let ks = KeyStore::new(seed);
    let mut client = StreamClient::new(w, &ks, ClientId::new(0, 0), seed);
    let batches: Vec<SignedBatch> = (0..size.batches).map(|_| client.next_signed()).collect();
    let (ledger, writes) = replay_store_ledger(&batches, t, &mut out);
    let engine_dir = scratch.join(format!("replay-engine-{}", std::process::id()));
    replay_storage(&ledger, &writes, &engine_dir, t, &mut out);

    let inproc = Transport::InProc(InProcTransport::new(None));
    let tcp = Transport::Socket(SocketTransport::new(SocketKind::Tcp, None));
    out.extend([
        (
            "transport.inproc_roundtrip_us",
            roundtrip_us(inproc, &commit, size.roundtrips, t),
        ),
        (
            "transport.tcp_roundtrip_us",
            roundtrip_us(tcp, &commit, size.roundtrips, t),
        ),
    ]);
    replay_simnet(measured_txn_s, size, t, &mut out);
    out
}
