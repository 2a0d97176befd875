//! Shared runtime metrics collected across node and client threads,
//! including per-stage pipeline counters (paper Figure 9).
//!
//! Each pipeline stage ([`Stage`]) gets three queue counters — `enqueued`,
//! `processed`, `dropped` — whose difference is the instantaneous queue
//! depth, plus an accumulated busy time. Occupancy (busy time divided by
//! wall-clock and thread count) is what the `pipeline` bench plots against
//! verifier fan-out.
//!
//! Since the stage queues became bounded ([`crate::queue`]), each stage
//! additionally counts its *overload* behavior, attributed to the stage
//! **fed by** the full queue: `shed` is the number of droppable messages
//! dropped at that stage's full queue, and `blocked` (`blocked_ns`) is the
//! accumulated time producers spent parked on it waiting for room — the
//! backpressure actually applied upstream. Shed items are never counted
//! as `enqueued`, so `queue_depth` stays the live backlog.
//!
//! Client completion latencies go into a fixed log-bucket histogram
//! (`LatencyHistogram`): recording is three relaxed atomic adds, memory
//! does not grow with the number of samples, and a percentile is exact
//! to within one bucket (1/16 of the value).

use crate::sync::MutexExt;
use rdb_common::ids::NodeId;
use rdb_consensus::stage::Stage;
use rdb_storage::StorageStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deployment-wide counters. Cheap to clone (all state shared).
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Inner>,
}

#[derive(Default)]
struct StageCell {
    enqueued: AtomicU64,
    processed: AtomicU64,
    dropped: AtomicU64,
    shed: AtomicU64,
    busy_ns: AtomicU64,
    blocked_ns: AtomicU64,
}

struct StageTable([StageCell; Stage::COUNT]);

impl Default for StageTable {
    fn default() -> Self {
        StageTable(std::array::from_fn(|_| StageCell::default()))
    }
}

/// Sub-buckets per power of two: a bucket spans at most 1/16 of its
/// lower bound, which bounds a percentile's relative error.
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values below 16 ns get one exact bucket each; every octave
/// `[2^e, 2^(e+1))` above gets 16, up to `u64::MAX`.
const LATENCY_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Completion latencies in nanoseconds: per-bucket counts plus the exact
/// sum and count (so the mean stays exact).
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// The bucket holding `ns`: the exponent picks the octave, the next
    /// four bits below the leading one pick the sub-bucket.
    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + ((ns >> shift) as usize & (SUB_BUCKETS - 1))
    }

    /// The value reported for bucket `i`: the middle of its range.
    fn midpoint(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64;
        }
        let shift = (i >> SUB_BITS) - 1;
        let lo = ((SUB_BUCKETS + (i & (SUB_BUCKETS - 1))) as u64) << shift;
        lo + ((1u64 << shift) >> 1)
    }

    fn record(&self, ns: u64) {
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn mean(&self) -> Duration {
        match self.count.load(Ordering::Relaxed) {
            0 => Duration::ZERO,
            n => Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / n),
        }
    }

    /// The bucket midpoint of the sample a sorted list would hold at
    /// index `round((n - 1) · p)`.
    fn percentile(&self, p: f64) -> Duration {
        // One pass, so concurrent recording cannot skew rank against counts.
        let counts: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = (((n - 1) as f64 * p).round() as u64).min(n - 1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Duration::from_nanos(Self::midpoint(i));
            }
        }
        unreachable!("rank < n")
    }
}

/// Wire-level counters of one directed `from -> to` link (socket
/// transport only; the in-process transport moves no bytes).
#[derive(Default)]
struct NetCell {
    bytes_out: u64,
    frames_out: u64,
    bytes_in: u64,
    frames_in: u64,
    reconnects: u64,
}

/// Accumulated durable-engine counters (empty for memory deployments).
#[derive(Default)]
struct StorageCell {
    engines: u64,
    stats: StorageStats,
}

#[derive(Default)]
struct Inner {
    completed_batches: AtomicU64,
    completed_txns: AtomicU64,
    decided: AtomicU64,
    latencies: LatencyHistogram,
    stages: StageTable,
    net: Mutex<BTreeMap<(NodeId, NodeId), NetCell>>,
    storage: Mutex<StorageCell>,
}

impl Inner {
    fn cell(&self, stage: Stage) -> &StageCell {
        &self.stages.0[stage.index()]
    }
}

impl Metrics {
    /// Fresh metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record a completed client batch.
    pub fn record_completion(&self, txns: usize, latency: Duration) {
        self.inner.completed_batches.fetch_add(1, Ordering::Relaxed);
        self.inner
            .completed_txns
            .fetch_add(txns as u64, Ordering::Relaxed);
        self.inner.latencies.record(latency.as_nanos() as u64);
    }

    /// Record a replica decision.
    pub fn record_decision(&self) {
        self.inner.decided.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------- pipeline stages --

    /// An item entered `stage`'s queue.
    pub fn stage_enqueued(&self, stage: Stage) {
        self.stage_enqueued_many(stage, 1);
    }

    /// `n` items entered `stage`'s queue (batched hot-path accounting).
    pub fn stage_enqueued_many(&self, stage: Stage, n: u64) {
        if n > 0 {
            self.inner
                .cell(stage)
                .enqueued
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `stage` finished one item after `busy` of work.
    pub fn stage_processed(&self, stage: Stage, busy: Duration) {
        self.stage_batch(stage, 1, 0, busy);
    }

    /// `stage` dropped one item (e.g. a failed signature check).
    pub fn stage_dropped(&self, stage: Stage) {
        self.stage_batch(stage, 0, 1, Duration::ZERO);
    }

    /// One droppable message was shed at `stage`'s full input queue
    /// (never counted as enqueued — the queue rejected it).
    pub fn stage_shed(&self, stage: Stage) {
        self.inner.cell(stage).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A producer spent `wait` parked on `stage`'s full input queue — the
    /// backpressure the stage applied upstream.
    pub fn stage_blocked(&self, stage: Stage, wait: Duration) {
        let ns = wait.as_nanos() as u64;
        if ns > 0 {
            self.inner
                .cell(stage)
                .blocked_ns
                .fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// `stage` finished a batch: `processed` items passed on, `dropped`
    /// items discarded, `busy` spent on the whole batch.
    pub fn stage_batch(&self, stage: Stage, processed: u64, dropped: u64, busy: Duration) {
        let cell = self.inner.cell(stage);
        if processed > 0 {
            cell.processed.fetch_add(processed, Ordering::Relaxed);
        }
        if dropped > 0 {
            cell.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        let ns = busy.as_nanos() as u64;
        if ns > 0 {
            cell.busy_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    // --------------------------------------------------- wire links --

    /// A frame of `bytes` left on the `from -> to` socket link.
    pub fn net_sent(&self, from: NodeId, to: NodeId, bytes: u64) {
        let mut net = self.inner.net.guard();
        let cell = net.entry((from, to)).or_default();
        cell.bytes_out += bytes;
        cell.frames_out += 1;
    }

    /// A frame of `bytes` arrived on the `from -> to` socket link.
    pub fn net_received(&self, from: NodeId, to: NodeId, bytes: u64) {
        let mut net = self.inner.net.guard();
        let cell = net.entry((from, to)).or_default();
        cell.bytes_in += bytes;
        cell.frames_in += 1;
    }

    /// The `from -> to` link re-established its connection after a drop.
    pub fn net_reconnect(&self, from: NodeId, to: NodeId) {
        self.inner
            .net
            .guard()
            .entry((from, to))
            .or_default()
            .reconnects += 1;
    }

    /// Point-in-time copy of every link's wire counters, in `(from, to)`
    /// order (empty for in-process deployments).
    pub fn net_snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            links: self
                .inner
                .net
                .guard()
                .iter()
                .map(|(&(from, to), cell)| LinkRow {
                    from,
                    to,
                    bytes_out: cell.bytes_out,
                    frames_out: cell.frames_out,
                    bytes_in: cell.bytes_in,
                    frames_in: cell.frames_in,
                    reconnects: cell.reconnects,
                })
                .collect(),
        }
    }

    // ------------------------------------------------ durable storage --

    /// Fold one durable engine's cumulative counters into the deployment
    /// totals (called once per engine at fabric shutdown; memory
    /// deployments never call it, so `storage_snapshot` stays empty).
    pub fn storage_merge(&self, stats: &StorageStats) {
        let mut cell = self.inner.storage.guard();
        cell.engines += 1;
        cell.stats.merge(stats);
    }

    /// Point-in-time copy of the accumulated durable-engine counters.
    pub fn storage_snapshot(&self) -> StorageSnapshot {
        let cell = self.inner.storage.guard();
        StorageSnapshot {
            engines: cell.engines,
            stats: cell.stats,
        }
    }

    /// Items currently queued before `stage` (enqueued minus finished).
    pub fn queue_depth(&self, stage: Stage) -> u64 {
        let cell = self.inner.cell(stage);
        cell.enqueued
            .load(Ordering::Relaxed)
            .saturating_sub(cell.processed.load(Ordering::Relaxed))
            .saturating_sub(cell.dropped.load(Ordering::Relaxed))
    }

    /// Accumulated busy time of `stage` across all threads serving it.
    pub fn stage_busy(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.inner.cell(stage).busy_ns.load(Ordering::Relaxed))
    }

    /// A consistent-enough copy of all per-stage counters.
    pub fn stage_snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            rows: Stage::ALL
                .iter()
                .map(|&stage| {
                    let cell = self.inner.cell(stage);
                    let enqueued = cell.enqueued.load(Ordering::Relaxed);
                    let processed = cell.processed.load(Ordering::Relaxed);
                    let dropped = cell.dropped.load(Ordering::Relaxed);
                    StageRow {
                        stage,
                        enqueued,
                        processed,
                        dropped,
                        shed: cell.shed.load(Ordering::Relaxed),
                        queue_depth: enqueued.saturating_sub(processed).saturating_sub(dropped),
                        busy: Duration::from_nanos(cell.busy_ns.load(Ordering::Relaxed)),
                        blocked: Duration::from_nanos(cell.blocked_ns.load(Ordering::Relaxed)),
                    }
                })
                .collect(),
        }
    }

    // ----------------------------------------------------- aggregates --

    /// Completed client batches.
    pub fn completed_batches(&self) -> u64 {
        self.inner.completed_batches.load(Ordering::Relaxed)
    }

    /// Completed transactions.
    pub fn completed_txns(&self) -> u64 {
        self.inner.completed_txns.load(Ordering::Relaxed)
    }

    /// Replica decisions (across all replicas).
    pub fn decided(&self) -> u64 {
        self.inner.decided.load(Ordering::Relaxed)
    }

    /// Mean completion latency (exact).
    pub fn avg_latency(&self) -> Duration {
        self.inner.latencies.mean()
    }

    /// Latency percentile in [0, 1], within 1/16 of the exact sample.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        self.inner.latencies.percentile(p)
    }
}

/// Point-in-time copy of every stage's counters.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// One row per [`Stage`], in pipeline order.
    pub rows: Vec<StageRow>,
}

impl StageSnapshot {
    /// The row for `stage`.
    pub fn row(&self, stage: Stage) -> &StageRow {
        &self.rows[stage.index()]
    }

    /// One-line summary (stage: processed/dropped/shed/depth busy,
    /// blocked time when any producer actually waited).
    pub fn summary(&self) -> String {
        self.rows
            .iter()
            .map(|r| {
                let mut s = format!(
                    "{}: {}p/{}d/{}s q={} busy={:?}",
                    r.stage.label(),
                    r.processed,
                    r.dropped,
                    r.shed,
                    r.queue_depth,
                    r.busy
                );
                if !r.blocked.is_zero() {
                    s.push_str(&format!(" blocked={:?}", r.blocked));
                }
                s
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// Accumulated durable-storage activity across every engine a deployment
/// ran (one engine per replica). `engines == 0` for memory deployments —
/// the repro paths never pay for, or report, durability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageSnapshot {
    /// Number of durable engines whose counters were folded in.
    pub engines: u64,
    /// Summed [`StorageStats`] over those engines: puts, WAL
    /// records and bytes, flushes, run bytes, compactions, and the
    /// recovery counters (keys recovered, torn WAL bytes truncated).
    pub stats: StorageStats,
}

impl StorageSnapshot {
    /// One-line summary (empty string for memory deployments).
    pub fn summary(&self) -> String {
        if self.engines == 0 {
            return String::new();
        }
        format!(
            "storage: {} engines, {} puts, {} wal records ({} B), {} flushes ({} B runs), {} compactions",
            self.engines,
            self.stats.puts,
            self.stats.wal_records,
            self.stats.wal_bytes,
            self.stats.flushes,
            self.stats.run_bytes,
            self.stats.compactions,
        )
    }
}

/// Point-in-time copy of every socket link's wire counters. Empty for
/// in-process deployments, which move envelopes over channels, not bytes.
#[derive(Debug, Clone, Default)]
pub struct NetSnapshot {
    /// One row per directed link that carried (or attempted) traffic,
    /// sorted by `(from, to)`.
    pub links: Vec<LinkRow>,
}

impl NetSnapshot {
    /// Total bytes written across all links.
    pub fn total_bytes_out(&self) -> u64 {
        self.links.iter().map(|l| l.bytes_out).sum()
    }

    /// Total frames written across all links.
    pub fn total_frames_out(&self) -> u64 {
        self.links.iter().map(|l| l.frames_out).sum()
    }

    /// Total reconnects across all links.
    pub fn total_reconnects(&self) -> u64 {
        self.links.iter().map(|l| l.reconnects).sum()
    }

    /// One-line summary (`links=N out=B/F in=B/F reconnects=R`).
    pub fn summary(&self) -> String {
        let (mut bi, mut fi) = (0u64, 0u64);
        for l in &self.links {
            bi += l.bytes_in;
            fi += l.frames_in;
        }
        format!(
            "links={} out={}B/{}f in={}B/{}f reconnects={}",
            self.links.len(),
            self.total_bytes_out(),
            self.total_frames_out(),
            bi,
            fi,
            self.total_reconnects()
        )
    }
}

/// Wire counters of one directed `from -> to` socket link.
#[derive(Debug, Clone)]
pub struct LinkRow {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Bytes written by the sender (frame bytes, including headers).
    pub bytes_out: u64,
    /// Frames written by the sender.
    pub frames_out: u64,
    /// Bytes decoded by the receiver.
    pub bytes_in: u64,
    /// Frames decoded by the receiver.
    pub frames_in: u64,
    /// Times the sender re-established the connection after a drop.
    pub reconnects: u64,
}

/// Counters of one stage.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Which stage.
    pub stage: Stage,
    /// Items that entered the stage's queue.
    pub enqueued: u64,
    /// Items the stage finished and passed downstream.
    pub processed: u64,
    /// Items the stage discarded (failed verification).
    pub dropped: u64,
    /// Droppable messages shed at this stage's full bounded queue
    /// (overload policy [`crate::queue::Overload::Shed`]); never counted
    /// in `enqueued`.
    pub shed: u64,
    /// Items still queued at snapshot time.
    pub queue_depth: u64,
    /// Accumulated busy time across the stage's threads.
    pub busy: Duration,
    /// Accumulated time producers spent blocked on this stage's full
    /// queue — the backpressure applied upstream.
    pub blocked: Duration,
}

impl StageRow {
    /// Fraction of `elapsed` this stage was busy, per serving thread.
    pub fn occupancy(&self, elapsed: Duration, threads: usize) -> f64 {
        if elapsed.is_zero() || threads == 0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / (elapsed.as_secs_f64() * threads as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_completion(100, Duration::from_millis(10));
        m.record_completion(100, Duration::from_millis(30));
        m.record_decision();
        assert_eq!(m.completed_batches(), 2);
        assert_eq!(m.completed_txns(), 200);
        assert_eq!(m.decided(), 1);
        assert_eq!(m.avg_latency(), Duration::from_millis(20));
        let p100 = m.latency_percentile(1.0);
        assert!(p100.abs_diff(Duration::from_millis(30)) <= Duration::from_millis(30) / 16);
    }

    #[test]
    fn empty_latency_is_zero() {
        let m = Metrics::new();
        assert_eq!(m.avg_latency(), Duration::ZERO);
        assert_eq!(m.latency_percentile(0.5), Duration::ZERO);
    }

    #[test]
    fn latency_buckets_tile_the_range() {
        // Each bucket starts where the previous one ended, is at most
        // 1/16 of its lower bound wide, and its midpoint maps back to it.
        let mut next_lo = 0u64;
        for i in 0..LATENCY_BUCKETS {
            let lo = next_lo;
            assert_eq!(LatencyHistogram::bucket(lo), i);
            let width = if i < 2 * SUB_BUCKETS {
                1
            } else {
                1u64 << ((i >> SUB_BITS) - 1)
            };
            assert!(width == 1 || width * 16 <= lo, "bucket {i}");
            assert_eq!(LatencyHistogram::bucket(LatencyHistogram::midpoint(i)), i);
            next_lo = lo.wrapping_add(width);
        }
        assert_eq!(next_lo, 0, "the last bucket ends at u64::MAX");
        assert_eq!(LatencyHistogram::bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record_decision();
        assert_eq!(m.decided(), 1);
    }

    #[test]
    fn stage_counters_track_depth_and_busy() {
        let m = Metrics::new();
        for _ in 0..5 {
            m.stage_enqueued(Stage::Verify);
        }
        m.stage_processed(Stage::Verify, Duration::from_micros(50));
        m.stage_processed(Stage::Verify, Duration::from_micros(30));
        m.stage_dropped(Stage::Verify);
        assert_eq!(m.queue_depth(Stage::Verify), 2);
        assert_eq!(m.stage_busy(Stage::Verify), Duration::from_micros(80));
        let snap = m.stage_snapshot();
        let row = snap.row(Stage::Verify);
        assert_eq!(row.enqueued, 5);
        assert_eq!(row.processed, 2);
        assert_eq!(row.dropped, 1);
        assert_eq!(row.queue_depth, 2);
        // Untouched stages stay zero.
        assert_eq!(snap.row(Stage::Execute).enqueued, 0);
        assert!(!snap.summary().is_empty());
    }

    #[test]
    fn overload_counters_track_shed_and_blocked() {
        let m = Metrics::new();
        for _ in 0..4 {
            m.stage_shed(Stage::Input);
        }
        m.stage_blocked(Stage::Input, Duration::from_micros(40));
        m.stage_blocked(Stage::Input, Duration::from_micros(60));
        let snap = m.stage_snapshot();
        let row = snap.row(Stage::Input);
        assert_eq!(row.shed, 4);
        assert_eq!(row.blocked, Duration::from_micros(100));
        // Shed items never entered the queue: depth is untouched.
        assert_eq!(row.queue_depth, 0);
        assert!(snap.summary().contains("blocked"));
        // Stages that never overloaded report zero.
        assert_eq!(snap.row(Stage::Order).shed, 0);
        assert_eq!(snap.row(Stage::Order).blocked, Duration::ZERO);
    }

    #[test]
    fn net_counters_aggregate_per_link() {
        use rdb_common::ids::ReplicaId;
        let m = Metrics::new();
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        assert!(m.net_snapshot().links.is_empty());
        m.net_sent(a, b, 100);
        m.net_sent(a, b, 50);
        m.net_received(a, b, 100);
        m.net_reconnect(a, b);
        m.net_sent(b, a, 10);
        let snap = m.net_snapshot();
        assert_eq!(snap.links.len(), 2);
        let ab = snap
            .links
            .iter()
            .find(|l| l.from == a && l.to == b)
            .unwrap();
        assert_eq!(ab.bytes_out, 150);
        assert_eq!(ab.frames_out, 2);
        assert_eq!(ab.bytes_in, 100);
        assert_eq!(ab.frames_in, 1);
        assert_eq!(ab.reconnects, 1);
        assert_eq!(snap.total_bytes_out(), 160);
        assert_eq!(snap.total_frames_out(), 3);
        assert_eq!(snap.total_reconnects(), 1);
        assert!(snap.summary().contains("links=2"));
    }

    #[test]
    fn storage_counters_merge_per_engine() {
        let m = Metrics::new();
        assert_eq!(m.storage_snapshot().engines, 0);
        assert!(m.storage_snapshot().summary().is_empty());
        let a = StorageStats {
            puts: 10,
            wal_records: 2,
            ..StorageStats::default()
        };
        let b = StorageStats {
            puts: 5,
            flushes: 1,
            ..StorageStats::default()
        };
        m.storage_merge(&a);
        m.storage_merge(&b);
        let snap = m.storage_snapshot();
        assert_eq!(snap.engines, 2);
        assert_eq!(snap.stats.puts, 15);
        assert_eq!(snap.stats.wal_records, 2);
        assert_eq!(snap.stats.flushes, 1);
        assert!(snap.summary().contains("2 engines"));
    }

    #[test]
    fn occupancy_normalizes_by_threads() {
        let m = Metrics::new();
        m.stage_batch(Stage::Order, 10, 0, Duration::from_millis(500));
        let row = m.stage_snapshot().row(Stage::Order).clone();
        let one = row.occupancy(Duration::from_secs(1), 1);
        let two = row.occupancy(Duration::from_secs(1), 2);
        assert!((one - 0.5).abs() < 1e-9);
        assert!((two - 0.25).abs() < 1e-9);
        assert_eq!(row.occupancy(Duration::ZERO, 1), 0.0);
    }
}
