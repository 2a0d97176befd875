//! The four benchmark workloads and the constants they share.

use rdb_consensus::config::ProtocolKind;
use rdb_workload::ycsb::{OpMix, YcsbConfig};
use resilientdb::TransportMode;
use std::time::Duration;

/// Records preloaded into every replica (all workloads).
pub const RECORDS: u64 = 100_000;
/// Load applied before the measured window opens, so caches, heaps and
/// socket links are warm and lazy set-up has finished.
pub const WARMUP: Duration = Duration::from_secs(2);
/// A batch with no `f + 1` proof after this long counts as failed.
pub const TICKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// One session per cluster, each on its own thread with one batch
    /// outstanding: a slow fabric receives less load.
    Closed,
    /// One generator thread submits on a fixed schedule whatever the
    /// fabric does; one collector thread awaits the proofs.
    Open { batches_per_s: u32 },
}

/// One benchmark workload: a deployment shape plus the traffic offered.
/// Everything not listed is the same for all four: 100 000 preloaded
/// records, Zipfian θ = 0.99, signatures checked, one execution lane, no
/// checkpointing, `LogConfig::default()` (fsync off).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers this workload stresses.
    pub why: &'static str,
    pub kind: ProtocolKind,
    pub z: usize,
    pub n: usize,
    pub transport: TransportMode,
    pub durable: bool,
    /// Capacity of every replica's input queue, when the one the fabric
    /// derives from the batch size must not be used.
    pub input_queue: Option<usize>,
    pub batch: usize,
    pub mix: OpMix,
    pub load: Load,
}

impl Workload {
    pub fn ycsb(&self) -> YcsbConfig {
        YcsbConfig {
            record_count: RECORDS,
            batch_size: self.batch,
            mix: self.mix,
            ..YcsbConfig::default()
        }
    }
}

const GEOBFT_MEM: Workload = Workload {
    name: "geobft_mem",
    why: "Paper headline: GeoBFT 2x4, in-process, memory, 100-txn writes, closed loop; all time is ordering, crypto, execution and replies",
    kind: ProtocolKind::GeoBft,
    z: 2,
    n: 4,
    transport: TransportMode::InProcess,
    durable: false,
    input_queue: None,
    batch: 100,
    mix: OpMix::WRITE_ONLY,
    load: Load::Closed,
};

pub static WORKLOADS: [Workload; 4] = [
    GEOBFT_MEM,
    Workload {
        name: "geobft_tcp",
        why: "Same over loopback TCP: adds frame encode/decode and socket I/O; a codec or socket change shows here and not on geobft_mem",
        transport: TransportMode::Tcp,
        ..GEOBFT_MEM
    },
    Workload {
        name: "geobft_durable",
        why: "Same with durable storage: WAL append, flush, compaction and JSON block encoding dominate; storage work shows only here",
        durable: true,
        ..GEOBFT_MEM
    },
    Workload {
        name: "pbft_small_open",
        why: "PBFT 1x4, 10-txn 50/50 read/update batches, open loop at 500 batches/s, deep input queue: per-message cost, reads, hand-off latency; no GeoBFT code",
        kind: ProtocolKind::Pbft,
        z: 1,
        n: 4,
        transport: TransportMode::InProcess,
        durable: false,
        // The input queue derived for 10-txn batches holds 72 envelopes
        // and sheds consensus votes when it is full; PBFT never recovers
        // from a shed vote at the commit this benchmark was written
        // against, so a 20 ms scheduling hiccup stalls the fabric for
        // good (3 of 9 calibration runs; 6 of 6 beside a CPU hog). 4 096
        // envelopes absorb a second of traffic: 0 stalls.
        input_queue: Some(4096),
        batch: 10,
        mix: OpMix::YCSB_A,
        // About a quarter of capacity, so latency is hand-off latency,
        // not queueing.
        load: Load::Open { batches_per_s: 500 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
