//! One benchmark run against the live fabric, through its public surface
//! only: `DeploymentBuilder::start → Fabric::session →
//! ClientSession::submit → Ticket::wait_timeout → Fabric::shutdown →
//! DeploymentReport`.
//!
//! A run is: boot (timed as set-up) → warm-up → measured window cut into
//! slices → shutdown → correctness gate → (untraced runs) further boots
//! so `setup_s` is a median. End-to-end metrics come from what the
//! client threads observed; the `pipeline.*`, `socket.*`,
//! `core_storage.*` and `service.*` layer metrics come from the
//! `DeploymentReport` and the client-side timings of the same run.

use crate::stats::{
    host_steal, median, percentile_sorted, process_cpu, process_peak_rss_mb, process_rss_mb,
    steal_pct,
};
use crate::trace::Tracer;
use crate::workloads::{Load, Workload, RECORDS, TICKET_TIMEOUT};
use rdb_common::ids::{ClientId, ClusterId, NodeId, ReplicaId};
use rdb_consensus::exec::result_digest;
use rdb_consensus::registry::reply_quorum;
use rdb_consensus::stage::Stage;
use rdb_consensus::ProtocolConfig;
use rdb_crypto::digest::Digest;
use rdb_ledger::Ledger;
use rdb_store::Operation;
use rdb_workload::ycsb::YcsbWorkload;
use resilientdb::{
    ClientSession, CommitProof, DeploymentBuilder, DeploymentReport, Fabric, QueuePolicy,
    StorageMode,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Batches attempted and settled so far, shared with the watchdog so a
/// stalled run can still say how many operations it lost.
#[derive(Default)]
pub struct Counters {
    pub attempted: AtomicU64,
    pub succeeded: AtomicU64,
    /// Resident set in MiB, sampled at every tenth of the way to the
    /// `RSS_MARK_TXNS`-th committed transaction.
    rss_samples: Mutex<Vec<f64>>,
}

impl Counters {
    /// Attempted batches without a valid proof: timed out, aborted,
    /// failing a proof check, or still unfinished when asked.
    pub fn failed(&self) -> u64 {
        // Relaxed: statistics only.
        self.attempted.load(Ordering::Relaxed) - self.succeeded.load(Ordering::Relaxed)
    }
}

/// Memory is sampled `RSS_SAMPLES` times on the way to this many committed
/// transactions, not at points in time: a faster fabric holds a longer
/// ledger at any given second, and must not read as a memory regression
/// for it. `rss_first_50ktxn_mb` is the median of the samples.
const RSS_MARK_TXNS: u64 = 50_000;
const RSS_SAMPLES: u64 = 10;

/// What one run is asked to do.
pub struct RunSpec<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// Boots timed for `setup_s` (the first one serves the measured run).
    pub setups: usize,
    /// Alternate span recording on and off by slice and emit layer metrics.
    pub traced: bool,
    /// Scratch directory inside the checkout (durable data lives here).
    pub out_dir: &'a Path,
}

/// What one run found.
#[derive(Default)]
pub struct RunResult {
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Correctness-gate violations; empty means every check passed.
    pub violations: Vec<String>,
}

/// One batch as its client saw it.
struct Sample {
    /// Latency origin: submit start (closed loop) or due time (open loop).
    origin: Instant,
    submit: Duration,
    wait: Duration,
    done: Instant,
}

/// A proof kept for the post-shutdown ledger cross-check.
struct Proven {
    client: ClientId,
    batch_seq: u64,
    proof: CommitProof,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    proofs: Vec<Proven>,
    violations: Vec<String>,
    generator_late: Duration,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.proofs.extend(other.proofs);
        self.violations.extend(other.violations);
        self.generator_late = self.generator_late.max(other.generator_late);
    }
}

/// Shared by every client thread of a run.
struct ClientCtx<'a> {
    tracer: &'a Tracer,
    counters: &'a Counters,
    stop: &'a AtomicBool,
    quorum: usize,
    /// Memory is sampled whenever this many more batches have committed.
    rss_sample_every: u64,
}

impl ClientCtx<'_> {
    /// Submit one batch and await its proof, inside a `request` span.
    fn request(
        &self,
        session: &ClientSession,
        stream: &mut YcsbWorkload,
        request_id: u64,
        log: &mut ClientLog,
    ) {
        self.tracer.scope("request", None, Some(request_id), |req| {
            let pending = self.submit(session, stream, request_id, req);
            self.settle(session.id(), pending, log);
        });
    }

    /// Generate and submit one batch; latency counts from submit start.
    fn submit(
        &self,
        session: &ClientSession,
        stream: &mut YcsbWorkload,
        request_id: u64,
        parent: Option<u64>,
    ) -> Pending {
        let rid = Some(request_id);
        let ops: Vec<Operation> = self.tracer.scope("gen_ops", parent, rid, |_| {
            stream
                .next_batch(request_id)
                .txns
                .into_iter()
                .map(|t| t.op)
                .collect()
        });
        let n_ops = ops.len();
        self.counters.attempted.fetch_add(1, Ordering::Relaxed);
        let origin = Instant::now();
        let ticket = self
            .tracer
            .scope("submit", parent, rid, |_| session.submit(ops));
        Pending {
            ticket,
            n_ops,
            origin,
            submit: origin.elapsed(),
            request_id,
            parent,
        }
    }

    /// Await one ticket (never `wait()`: a lost batch must become a
    /// number, not a hang) and check its proof.
    fn settle(&self, client: ClientId, p: Pending, log: &mut ClientLog) {
        let waited = Instant::now();
        let proof = self
            .tracer
            .scope("commit_wait", p.parent, Some(p.request_id), |_| {
                p.ticket.wait_timeout(TICKET_TIMEOUT)
            });
        let done = Instant::now();
        let Some(proof) = proof else {
            log.violations.push(format!(
                "batch {} of {client}: no proof within {TICKET_TIMEOUT:?} ({})",
                p.ticket.batch_seq(),
                p.ticket.aborted().unwrap_or("timed out"),
            ));
            return;
        };
        let attestors: HashSet<ReplicaId> = proof.attesting_replicas.iter().copied().collect();
        if attestors.len() < self.quorum || proof.results.outcomes.len() != p.n_ops {
            log.violations.push(format!(
                "batch {} of {client}: proof has {} distinct attestors (need {}) and {} outcomes for {} ops",
                p.ticket.batch_seq(),
                attestors.len(),
                self.quorum,
                proof.results.outcomes.len(),
                p.n_ops,
            ));
            return;
        }
        let committed = self.counters.succeeded.fetch_add(1, Ordering::Relaxed) + 1;
        if committed.is_multiple_of(self.rss_sample_every)
            && committed <= RSS_SAMPLES * self.rss_sample_every
        {
            let mut samples = self
                .counters
                .rss_samples
                .lock()
                .expect("no panic under this lock");
            samples.push(process_rss_mb());
        }
        log.samples.push(Sample {
            origin: p.origin,
            submit: p.submit,
            wait: done - waited,
            done,
        });
        log.proofs.push(Proven {
            client,
            batch_seq: p.ticket.batch_seq(),
            proof,
        });
    }
}

/// A submitted batch on its way from the generator to the collector.
struct Pending {
    ticket: resilientdb::Ticket,
    n_ops: usize,
    origin: Instant,
    submit: Duration,
    request_id: u64,
    /// The `request` span, when submit and wait share a thread.
    parent: Option<u64>,
}

/// A booted fabric with one session per cluster, each with its own
/// seeded YCSB stream.
struct Live {
    fabric: Fabric,
    clients: Vec<(ClientSession, YcsbWorkload)>,
    setup: Duration,
    session_open: Duration,
}

fn boot(spec: &RunSpec, data_dir: Option<&Path>, ctx: &ClientCtx, log: &mut ClientLog) -> Live {
    let w = spec.workload;
    let t = ctx.tracer;
    let started = Instant::now();
    t.scope("setup", None, None, |setup| {
        let fabric = t.scope("fabric_start", setup, None, |_| {
            let mut b = DeploymentBuilder::new(w.kind, w.z, w.n)
                .batch_size(w.batch)
                .records(RECORDS)
                .seed(spec.seed)
                .transport_mode(w.transport);
            if let Some(capacity) = w.input_queue {
                b = b.input_queue(QueuePolicy::shed(capacity));
            }
            if let Some(dir) = data_dir {
                b = b.storage(StorageMode::Durable(dir.to_path_buf()));
            }
            b.start()
        });
        let opened = Instant::now();
        let mut clients: Vec<(ClientSession, YcsbWorkload)> =
            t.scope("session_open", setup, None, |_| {
                (0..w.z)
                    .map(|c| {
                        let session = fabric.session(ClusterId(c as u16));
                        let stream = YcsbWorkload::new(w.ycsb(), session.id(), spec.seed);
                        (session, stream)
                    })
                    .collect()
            });
        let session_open = opened.elapsed() / w.z as u32;
        // Ready means every cluster has committed once. All sessions
        // submit before any waits: a GeoBFT round needs every cluster's
        // batch, or it waits out the no-op timer.
        t.scope("first_commit", setup, None, |_| {
            let pending: Vec<Pending> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, (session, stream))| ctx.submit(session, stream, request_id(i, 0), None))
                .collect();
            for (p, (session, _)) in pending.into_iter().zip(&clients) {
                ctx.settle(session.id(), p, log);
            }
        });
        Live {
            fabric,
            clients,
            setup: started.elapsed(),
            session_open,
        }
    })
}

/// Request ids are unique per run: client thread in the high half.
fn request_id(client: usize, i: u64) -> u64 {
    (client as u64) << 32 | i
}

/// Closed loop: one batch outstanding, the next one sent when it settles.
fn closed_loop(
    ctx: &ClientCtx,
    idx: usize,
    session: &ClientSession,
    stream: &mut YcsbWorkload,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut i = 1;
    while !ctx.stop.load(Ordering::Relaxed) {
        ctx.request(session, stream, request_id(idx, i), &mut log);
        i += 1;
    }
    log
}

/// When the `i`-th batch of an open loop is due.
pub fn due_time(start: Instant, i: u64, batches_per_s: u32) -> Instant {
    start + Duration::from_nanos(i * 1_000_000_000 / batches_per_s as u64)
}

/// Open-loop generator: submit batch `i` at its due time whatever the
/// fabric does (a blocked `submit` makes later batches late, which their
/// latency then includes, because latency counts from the due time).
fn open_loop_generator(
    ctx: &ClientCtx,
    session: &ClientSession,
    stream: &mut YcsbWorkload,
    batches_per_s: u32,
    to_collector: mpsc::Sender<Pending>,
) -> Duration {
    let start = Instant::now();
    let mut latest = Duration::ZERO;
    let mut i = 0;
    while !ctx.stop.load(Ordering::Relaxed) {
        let due = due_time(start, i, batches_per_s);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        latest = latest.max(Instant::now().saturating_duration_since(due));
        let mut pending = ctx.submit(session, stream, request_id(0, i + 1), None);
        pending.origin = due;
        let sent = to_collector.send(pending);
        if sent.is_err() {
            break; // collector gone: the run is being torn down
        }
        i += 1;
    }
    latest
}

/// Slice edges of the measured window with the process CPU time and the
/// host's steal counters at each.
struct Window {
    edges: Vec<Instant>,
    cpu: Vec<Duration>,
    steal: Vec<(u64, u64)>,
}

/// A slice in which the hypervisor withheld more than this share of the
/// host's CPU time is not a measurement of the fabric: on the calibration
/// host 30 % steal cost a closed loop 65 % of its throughput for as long as
/// it lasted. End-to-end metrics come from the other, quiet slices.
const QUIET_STEAL_PCT: f64 = 2.0;
/// When fewer slices than this are quiet, the least-stolen ones stand in.
const MIN_QUIET_SLICES: usize = 3;

impl Window {
    fn slices(&self) -> usize {
        self.edges.len() - 1
    }

    /// Which slices count towards the end-to-end metrics.
    fn quiet(&self) -> Vec<bool> {
        let stolen: Vec<f64> = (0..self.slices())
            .map(|k| steal_pct(self.steal[k], self.steal[k + 1]))
            .collect();
        let mut ranked = stolen.clone();
        ranked.sort_by(f64::total_cmp);
        let stand_in = ranked[MIN_QUIET_SLICES.min(ranked.len()) - 1];
        let limit = QUIET_STEAL_PCT.max(stand_in);
        stolen.iter().map(|s| *s <= limit).collect()
    }
}

/// Sleep through warm-up, then through the window, reading the clock and
/// the process CPU time at every slice edge. Traced runs record spans in
/// even slices only, so one run yields traced and untraced CPU per txn.
fn pace(spec: &RunSpec, tracer: &Tracer) -> Window {
    let slices = (spec.window.as_secs() as u32).max(2);
    let slice = spec.window / slices;
    std::thread::sleep(spec.warmup);
    let start = Instant::now();
    let mut w = Window {
        edges: Vec::new(),
        cpu: Vec::new(),
        steal: Vec::new(),
    };
    for k in 0..=slices {
        std::thread::sleep((start + slice * k).saturating_duration_since(Instant::now()));
        w.edges.push(Instant::now());
        w.cpu.push(process_cpu());
        w.steal.push(host_steal());
        if spec.traced {
            tracer.set_enabled(k % 2 == 0 || k == slices);
        }
    }
    w
}

/// Offer the workload's load to a live fabric for warm-up + window.
fn drive(spec: &RunSpec, live: &mut Live, ctx: &ClientCtx) -> (Window, ClientLog) {
    let mut log = ClientLog::default();
    let window = std::thread::scope(|s| match spec.workload.load {
        Load::Closed => {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, (session, stream))| s.spawn(move || closed_loop(ctx, i, session, stream)))
                .collect();
            let window = pace(spec, ctx.tracer);
            ctx.stop.store(true, Ordering::Relaxed);
            for h in handles {
                log.absorb(h.join().expect("client thread panicked"));
            }
            window
        }
        Load::Open { batches_per_s } => {
            let (session, stream) = &mut live.clients[0];
            let client = session.id();
            let (tx, rx) = mpsc::channel::<Pending>();
            let session = &*session;
            let generator =
                s.spawn(move || open_loop_generator(ctx, session, stream, batches_per_s, tx));
            let collector = s.spawn(move || {
                let mut log = ClientLog::default();
                for pending in rx {
                    ctx.settle(client, pending, &mut log);
                }
                log
            });
            let window = pace(spec, ctx.tracer);
            ctx.stop.store(true, Ordering::Relaxed);
            log.generator_late = generator.join().expect("generator thread panicked");
            log.absorb(collector.join().expect("collector thread panicked"));
            window
        }
    });
    (window, log)
}

/// Client-observed numbers over the measured window: rates, CPU per txn
/// and latencies over its quiet slices, `txns` over all of it.
struct Observed {
    throughput_txn_s: f64,
    txns: u64,
    cpu_us_per_txn: f64,
    /// CPU per txn in recording / non-recording slices (traced runs).
    cpu_us_per_txn_traced: f64,
    cpu_us_per_txn_untraced: f64,
    latencies_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
}

fn observe(window: &Window, samples: &[Sample], batch: usize) -> Observed {
    let slices = window.slices();
    let quiet = window.quiet();
    let left_out = quiet.iter().filter(|q| !**q).count();
    if left_out > 0 {
        eprintln!(
            "bench_report: note: host steal above {QUIET_STEAL_PCT} % in {left_out} of {slices} slices; they are left out"
        );
    }
    let mut txns = vec![0u64; slices];
    let (mut latencies_ms, mut submit_us, mut wait_us) = (Vec::new(), Vec::new(), Vec::new());
    for s in samples {
        // Slice k holds completions in [edge k, edge k+1).
        let k = window.edges.partition_point(|e| *e <= s.done);
        if k == 0 || k > slices {
            continue; // warm-up or drain
        }
        txns[k - 1] += batch as u64;
        if !quiet[k - 1] {
            continue;
        }
        latencies_ms.push((s.done - s.origin).as_secs_f64() * 1e3);
        submit_us.push(s.submit.as_secs_f64() * 1e6);
        wait_us.push(s.wait.as_secs_f64() * 1e6);
    }
    for v in [&mut latencies_ms, &mut submit_us, &mut wait_us] {
        v.sort_by(f64::total_cmp);
    }
    let cpu_per_txn = |pick: &dyn Fn(usize) -> bool| {
        let (mut cpu, mut n) = (0.0, 0u64);
        for k in (0..slices).filter(|k| pick(*k)) {
            cpu += (window.cpu[k + 1] - window.cpu[k]).as_secs_f64() * 1e6;
            n += txns[k];
        }
        cpu / n as f64
    };
    let (mut quiet_txns, mut quiet_len) = (0u64, Duration::ZERO);
    for k in (0..slices).filter(|k| quiet[*k]) {
        quiet_txns += txns[k];
        quiet_len += window.edges[k + 1] - window.edges[k];
    }
    Observed {
        // The mean over the quiet slices: what noise is left is spread
        // over all of them, and a median of slices proved the noisier
        // estimate (IQR over 14 runs 10.4 % against 7.0 %).
        throughput_txn_s: quiet_txns as f64 / quiet_len.as_secs_f64(),
        txns: txns.iter().sum(),
        cpu_us_per_txn: cpu_per_txn(&|k| quiet[k]),
        cpu_us_per_txn_traced: cpu_per_txn(&|k| k % 2 == 0),
        cpu_us_per_txn_untraced: cpu_per_txn(&|k| k % 2 == 1),
        latencies_ms,
        submit_us,
        wait_us,
    }
}

/// The replica ledger with the highest head.
fn longest_ledger(report: &DeploymentReport) -> &Ledger {
    report
        .ledgers
        .values()
        .max_by_key(|l| l.head_height())
        .expect("a deployment has replicas")
}

/// The correctness gate of one fabric run. Every failed check is one
/// line in the result; the benchmark exits non-zero if there is any.
fn audit(report: &DeploymentReport, proofs: &[Proven]) -> Vec<String> {
    let mut violations = Vec::new();
    if let Err(e) = report.audit_ledgers() {
        violations.push(format!("audit_ledgers: {e}"));
    }
    if let Err(e) = report.audit_execution_stage() {
        violations.push(format!("audit_execution_stage: {e}"));
    }
    let ledger = longest_ledger(report);
    if let Err(e) = rdb_scenario::replay_ledger(ledger, RECORDS) {
        violations.push(format!("replay_ledger: {e}"));
    }
    // Every proof must name the block that carries its batch, and its
    // result digest must be the one that block's batch and the returned
    // results hash to.
    let mut mismatched = 0u64;
    for p in proofs {
        let matches = ledger.block(p.proof.block_height).is_some_and(|b| {
            b.batch.batch.client == p.client
                && b.batch.batch.batch_seq == p.batch_seq
                && result_digest(&b.batch.digest(), &p.proof.results) == p.proof.result_digest
        });
        if !matches {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        violations.push(format!(
            "{mismatched} of {} proofs disagree with the ledger on (block_height, result_digest)",
            proofs.len()
        ));
    }
    violations
}

/// Reboot a durable deployment from its directory without offering
/// traffic: every replica must recover exactly the head it shut down at.
/// Returns the time `restart_from` took.
fn restart_check(
    dir: &Path,
    heads: &HashMap<ReplicaId, Digest>,
    violations: &mut Vec<String>,
) -> Duration {
    let started = Instant::now();
    let fabric = match Fabric::restart_from(dir) {
        Ok(f) => f,
        Err(e) => {
            violations.push(format!("restart_from: {e}"));
            return started.elapsed();
        }
    };
    let recover = started.elapsed();
    let report = fabric.shutdown();
    for (rid, head) in heads {
        let recovered = report.ledgers.get(rid).map(Ledger::head_hash);
        if recovered != Some(*head) {
            violations.push(format!(
                "replica {rid} recovered head {recovered:?}, shut down at {head:?}"
            ));
        }
    }
    recover
}

/// Layer metrics read off the run's `DeploymentReport`.
fn report_layers(
    w: &Workload,
    report: &DeploymentReport,
    txns: u64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let per_txn = |x: f64| x / txns as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let row = |s: Stage| report.stages.row(s);
    out.extend([
        (
            "pipeline.verify.busy_us_per_txn",
            per_txn(us(row(Stage::Verify).busy)),
        ),
        (
            "pipeline.order.busy_us_per_txn",
            per_txn(us(row(Stage::Order).busy)),
        ),
        (
            "pipeline.execute.busy_us_per_txn",
            per_txn(us(row(Stage::Execute).busy)),
        ),
        (
            "pipeline.order.blocked_us_per_txn",
            per_txn(us(row(Stage::Order).blocked)),
        ),
        (
            "pipeline.execute.blocked_us_per_txn",
            per_txn(us(row(Stage::Execute).blocked)),
        ),
        (
            "pipeline.output.blocked_us_per_txn",
            per_txn(us(row(Stage::Output).blocked)),
        ),
        (
            "pipeline.input.shed_per_ktxn",
            per_txn(row(Stage::Input).shed as f64 * 1e3),
        ),
        (
            "pipeline.msgs_per_txn",
            per_txn(report.messages_sent as f64),
        ),
    ]);
    let heads: Vec<u64> = report.ledgers.values().map(Ledger::head_height).collect();
    let (max, min) = (
        heads.iter().copied().max().unwrap_or(0),
        heads.iter().copied().min().unwrap_or(0),
    );
    out.extend([
        // Above 1 when GeoBFT clusters fill rounds with no-op batches.
        (
            "pipeline.blocks_per_batch",
            max as f64 / report.completed_batches as f64,
        ),
        ("pipeline.replica_lag_blocks", (max - min) as f64),
    ]);

    let crosses_clusters = |from: NodeId, to: NodeId| {
        from.is_replica() && to.is_replica() && from.cluster() != to.cluster()
    };
    let wan_bytes: u64 = report
        .net
        .links
        .iter()
        .filter(|l| crosses_clusters(l.from, l.to))
        .map(|l| l.bytes_out)
        .sum();
    out.extend([
        (
            "socket.bytes_per_txn",
            per_txn(report.net.total_bytes_out() as f64),
        ),
        ("socket.wan_bytes_per_txn", per_txn(wan_bytes as f64)),
        (
            "socket.frames_per_txn",
            per_txn(report.net.total_frames_out() as f64),
        ),
        ("socket.reconnects", report.net.total_reconnects() as f64),
    ]);

    let st = report.storage.stats;
    // What one engine was asked to keep: an 8-byte key and a 24-byte
    // value per write. The engines' totals include the preload dump.
    let user_bytes = (txns * 32 * report.storage.engines.max(1)) as f64;
    let written = (st.wal_bytes + st.run_bytes) as f64;
    out.extend([
        (
            "core_storage.wal_bytes_per_txn",
            per_txn(st.wal_bytes as f64),
        ),
        (
            "core_storage.run_bytes_per_txn",
            per_txn(st.run_bytes as f64),
        ),
        (
            "core_storage.write_amp",
            if w.durable { written / user_bytes } else { 0.0 },
        ),
        ("core_storage.flushes", st.flushes as f64),
        ("core_storage.compactions", st.compactions as f64),
    ]);
}

/// The memory metric, read while the fabric is still up. A window too
/// short to commit `RSS_MARK_TXNS` transactions is not a failed run: the
/// metric then rests on the samples taken so far (or on one taken now) and
/// is not comparable with a full-length run's.
fn rss_first_txns_mb(counters: &Counters) -> f64 {
    let mut samples = counters
        .rss_samples
        .lock()
        .expect("no panic under this lock");
    if samples.len() < RSS_SAMPLES as usize {
        eprintln!(
            "bench_report: note: fewer than {RSS_MARK_TXNS} transactions committed \
             ({} of {RSS_SAMPLES} memory samples): rss_first_50ktxn_mb is not comparable",
            samples.len()
        );
    }
    if samples.is_empty() {
        samples.push(process_rss_mb());
    }
    median(&samples)
}

fn data_dir(spec: &RunSpec, boot: usize) -> Option<PathBuf> {
    spec.workload.durable.then(|| {
        spec.out_dir.join(format!(
            "data-{}-{}-{boot}",
            spec.workload.name,
            std::process::id()
        ))
    })
}

/// Best effort, for a run the watchdog is about to end: remove every
/// data directory this process created under `out_dir`.
pub fn remove_data_dirs(out_dir: &Path) {
    let mine = format!("-{}-", std::process::id());
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("data-") && name.contains(&mine) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn remove_data_dir(dir: Option<&Path>, violations: &mut Vec<String>) {
    if let Some(dir) = dir {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            violations.push(format!("remove data directory {}: {e}", dir.display()));
        }
    }
}

/// Run one workload once. See the module docs for the protocol.
pub fn run(spec: &RunSpec, tracer: &Tracer, counters: &Counters) -> RunResult {
    let w = spec.workload;
    let stop = AtomicBool::new(false);
    let cfg = ProtocolConfig::new(
        rdb_common::config::SystemConfig::geo(w.z, w.n).expect("workload shapes are valid"),
    );
    let ctx = ClientCtx {
        tracer,
        counters,
        stop: &stop,
        quorum: reply_quorum(w.kind, &cfg),
        rss_sample_every: RSS_MARK_TXNS / (w.batch as u64 * RSS_SAMPLES),
    };
    let mut result = RunResult::default();
    let mut log = ClientLog::default();

    let dir = data_dir(spec, 0);
    let mut live = boot(spec, dir.as_deref(), &ctx, &mut log);
    let mut setups = vec![live.setup.as_secs_f64()];
    let session_open = live.session_open;

    let (window, driven) = drive(spec, &mut live, &ctx);
    log.absorb(driven);
    let seen = observe(&window, &log.samples, w.batch);
    let rss_mb = rss_first_txns_mb(counters);

    let stopping = Instant::now();
    let report = tracer.scope("shutdown", None, None, |_| live.fabric.shutdown());
    let shutdown = stopping.elapsed();
    result.violations = std::mem::take(&mut log.violations);
    tracer.scope("audit", None, None, |_| {
        result.violations.extend(audit(&report, &log.proofs));
    });
    let mut restart_recover = Duration::ZERO;
    if let Some(dir) = &dir {
        let heads = report
            .ledgers
            .iter()
            .map(|(rid, l)| (*rid, l.head_hash()))
            .collect();
        restart_recover = restart_check(dir, &heads, &mut result.violations);
    }
    remove_data_dir(dir.as_deref(), &mut result.violations);

    if spec.traced {
        report_layers(w, &report, report.completed_txns, &mut result.layers);
        let l = &seen.latencies_ms;
        result.layers.extend([
            (
                "core_storage.restart_recover_s",
                restart_recover.as_secs_f64(),
            ),
            (
                "service.submit_us_p50",
                percentile_sorted(&seen.submit_us, 0.5),
            ),
            ("service.wait_us_p50", percentile_sorted(&seen.wait_us, 0.5)),
            ("service.commit_p99_ms", percentile_sorted(l, 0.99)),
            ("service.commit_p999_ms", percentile_sorted(l, 0.999)),
            (
                "service.commit_max_ms",
                l.last().copied().unwrap_or(f64::NAN),
            ),
            ("service.samples", l.len() as f64),
            ("service.session_open_us", session_open.as_secs_f64() * 1e6),
            ("service.shutdown_s", shutdown.as_secs_f64()),
            (
                "service.generator_late_ms_max",
                log.generator_late.as_secs_f64() * 1e3,
            ),
            ("service.peak_rss_mb", process_peak_rss_mb()),
            (
                "trace.overhead_pct",
                100.0 * (seen.cpu_us_per_txn_traced / seen.cpu_us_per_txn_untraced - 1.0),
            ),
        ]);
    }
    drop(report);

    // Further boots, so that `setup_s` is a median and not one sample.
    for i in 1..spec.setups {
        let dir = data_dir(spec, i);
        let extra = boot(spec, dir.as_deref(), &ctx, &mut log);
        setups.push(extra.setup.as_secs_f64());
        drop(extra.fabric.shutdown());
        remove_data_dir(dir.as_deref(), &mut result.violations);
    }
    result.violations.append(&mut log.violations);

    if seen.txns == 0 {
        result
            .violations
            .push("no batch committed inside the measured window".to_string());
    }
    result.end_to_end = vec![
        ("throughput_txn_s", seen.throughput_txn_s),
        ("cpu_us_per_txn", seen.cpu_us_per_txn),
        ("commit_p50_ms", percentile_sorted(&seen.latencies_ms, 0.5)),
        ("setup_s", median(&setups)),
        ("rss_first_50ktxn_mb", rss_mb),
    ];
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_evenly_spaced_and_drift_free() {
        let t0 = Instant::now();
        assert_eq!(due_time(t0, 0, 500), t0);
        assert_eq!(due_time(t0, 1, 500), t0 + Duration::from_millis(2));
        // Computed from the start, not accumulated: no rounding drift.
        assert_eq!(due_time(t0, 3, 3) - t0, Duration::from_secs(1));
        assert_eq!(
            due_time(t0, 500 * 3600, 500) - t0,
            Duration::from_secs(3600)
        );
    }

    #[test]
    fn lateness_is_counted_from_the_due_time() {
        // A batch due at 10 ms whose proof arrives at 25 ms waited 15 ms,
        // however late the generator got to it.
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let window = Window {
            edges: vec![t0, t0 + ms(50), t0 + ms(100)],
            cpu: vec![ms(0), ms(40), ms(60)],
            steal: vec![(0, 0), (0, 10), (0, 20)],
        };
        let sample = |origin, done| Sample {
            origin: t0 + ms(origin),
            submit: ms(1),
            wait: ms(2),
            done: t0 + ms(done),
        };
        let samples = [
            sample(10, 25),
            sample(40, 60),
            sample(70, 99),
            sample(90, 120),
        ];
        let seen = observe(&window, &samples, 10);
        // The last sample completed after the window closed.
        assert_eq!(seen.txns, 30);
        assert_eq!(seen.latencies_ms, vec![15.0, 20.0, 29.0]);
        // 30 transactions in 0.1 s.
        assert_eq!(seen.throughput_txn_s, 300.0);
        assert_eq!(seen.cpu_us_per_txn, 2_000.0);
        assert_eq!(seen.cpu_us_per_txn_traced, 4_000.0);
        assert_eq!(seen.cpu_us_per_txn_untraced, 1_000.0);
    }

    #[test]
    fn slices_the_host_stole_from_are_left_out() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Five 100 ms slices of 200 host jiffies each; the hypervisor took
        // 30 % of the third and 1 % of the fourth.
        let window = Window {
            edges: (0..=5).map(|k| t0 + ms(100 * k)).collect(),
            cpu: (0..=5).map(|k| ms(10 * k)).collect(),
            steal: vec![(0, 0), (0, 200), (0, 400), (60, 600), (62, 800), (62, 1000)],
        };
        assert_eq!(window.quiet(), [true, true, false, true, true]);
        // Two batches of 10 complete in every slice but the stolen one,
        // which manages one, late.
        let sample = |origin: u64, done: u64| Sample {
            origin: t0 + ms(origin),
            submit: ms(1),
            wait: ms(2),
            done: t0 + ms(done),
        };
        let mut samples = Vec::new();
        for k in [0, 1, 3, 4] {
            samples.push(sample(100 * k + 10, 100 * k + 20));
            samples.push(sample(100 * k + 60, 100 * k + 70));
        }
        samples.push(sample(210, 290));
        let seen = observe(&window, &samples, 10);
        assert_eq!(seen.txns, 90);
        assert_eq!(seen.throughput_txn_s, 200.0);
        assert_eq!(seen.cpu_us_per_txn, 500.0);
        assert_eq!(seen.latencies_ms, vec![10.0; 8]);

        // A host that is never quiet: the three least-stolen slices stand in.
        let noisy = Window {
            steal: vec![
                (0, 0),
                (20, 200),
                (30, 400),
                (90, 600),
                (114, 800),
                (126, 1000),
            ],
            ..window
        };
        assert_eq!(noisy.quiet(), [true, true, false, false, true]);
    }
}
