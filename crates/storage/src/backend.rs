//! The storage interface the fabric writes through.

use std::io;

/// Named keyspaces, in the spirit of RocksDB column families.
///
/// Every key lives in exactly one keyspace; scans and flushes are
/// per-keyspace. The discriminant is the on-disk tag byte, so variants must
/// never be reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Keyspace {
    /// Application records: 8-byte big-endian key → 24-byte value plus
    /// 8-byte little-endian version.
    Table = 0,
    /// Ledger blocks: 8-byte big-endian height → encoded block. Blocks
    /// compacted out of the in-memory ledger are *retained* here (archival
    /// past the recovery anchor instead of dropping them).
    Blocks = 1,
    /// Certified checkpoint records: 8-byte big-endian height → encoded
    /// checkpoint (stable state digest and certificate summary).
    Checkpoints = 2,
    /// Replica markers: short string key → encoded marker (applied height,
    /// stable height, deployment manifest pointer).
    Meta = 3,
}

impl Keyspace {
    /// All keyspaces, in tag order.
    pub const ALL: [Keyspace; 4] = [
        Keyspace::Table,
        Keyspace::Blocks,
        Keyspace::Checkpoints,
        Keyspace::Meta,
    ];

    /// Stable lower-case name, used in run file names and docs.
    pub fn name(self) -> &'static str {
        match self {
            Keyspace::Table => "table",
            Keyspace::Blocks => "blocks",
            Keyspace::Checkpoints => "checkpoints",
            Keyspace::Meta => "meta",
        }
    }

    /// Index into per-keyspace arrays (`0..4`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Keyspace::index`] / the on-disk tag byte.
    pub fn from_tag(tag: u8) -> Option<Keyspace> {
        match tag {
            0 => Some(Keyspace::Table),
            1 => Some(Keyspace::Blocks),
            2 => Some(Keyspace::Checkpoints),
            3 => Some(Keyspace::Meta),
            _ => None,
        }
    }
}

/// One write in a [`WriteBatch`]: insert or overwrite `key` in `ks` with
/// `value`. Puts are the only write: the fabric overwrites what it stores
/// and never removes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Target keyspace.
    pub ks: Keyspace,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes.
    pub value: Vec<u8>,
}

/// An ordered group of writes applied atomically across keyspaces.
///
/// [`LogBackend`](crate::LogBackend) appends the whole batch as a single
/// checksummed WAL record, so crash recovery observes either all of a batch
/// or none of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    /// The writes, in application order.
    pub ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an insert/overwrite of `key` in `ks`.
    pub fn put(&mut self, ks: Keyspace, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        self.ops.push(WriteOp {
            ks,
            key: key.into(),
            value: value.into(),
        });
    }

    /// Whether the batch carries no writes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// Counters an engine maintains about its own activity.
///
/// All counters are cumulative since open; the fabric folds them into its
/// `Metrics` so `DeploymentReport::storage` can report flush/compaction/
/// bytes-written totals per deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Keys put (including overwrites).
    pub puts: u64,
    /// Batches appended to the WAL.
    pub wal_records: u64,
    /// Bytes appended to the WAL (record framing included).
    pub wal_bytes: u64,
    /// Memtable flushes (run files written, summed over keyspaces).
    pub flushes: u64,
    /// Bytes written to run files.
    pub run_bytes: u64,
    /// K-way-merge compactions performed.
    pub compactions: u64,
    /// Keys recovered from disk (runs + WAL replay) at open.
    pub keys_recovered: u64,
    /// Bytes of torn WAL tail truncated during replay at open.
    pub wal_truncated_bytes: u64,
}

impl StorageStats {
    /// Fold `other` into `self` (used when a deployment sums per-replica
    /// engines).
    pub fn merge(&mut self, other: &StorageStats) {
        self.puts += other.puts;
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
        self.flushes += other.flushes;
        self.run_bytes += other.run_bytes;
        self.compactions += other.compactions;
        self.keys_recovered += other.keys_recovered;
        self.wal_truncated_bytes += other.wal_truncated_bytes;
    }
}

/// The narrow storage interface the fabric writes through.
///
/// Implementations must apply a [`WriteBatch`] atomically with respect to
/// crash recovery, return point reads that reflect every applied batch, and
/// produce `scan` output in ascending key order.
pub trait StorageBackend: Send {
    /// Apply `batch` atomically.
    fn apply(&mut self, batch: WriteBatch) -> io::Result<()>;

    /// Read the current value of `key` in `ks`.
    fn get(&self, ks: Keyspace, key: &[u8]) -> Option<Vec<u8>>;

    /// All live `(key, value)` pairs of `ks` in ascending key order.
    fn scan(&self, ks: Keyspace) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Number of live keys in `ks`.
    fn len(&self, ks: Keyspace) -> usize;

    /// Whether `ks` holds no live keys.
    fn is_empty(&self, ks: Keyspace) -> bool {
        self.len(ks) == 0
    }

    /// Force all applied batches onto durable media.
    fn flush(&mut self) -> io::Result<()>;

    /// Cumulative activity counters.
    fn stats(&self) -> StorageStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyspace_tags_round_trip() {
        for ks in Keyspace::ALL {
            assert_eq!(Keyspace::from_tag(ks as u8), Some(ks));
        }
        assert_eq!(Keyspace::from_tag(4), None);
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let one = StorageStats {
            puts: 1,
            wal_records: 2,
            wal_bytes: 3,
            flushes: 4,
            run_bytes: 5,
            compactions: 6,
            keys_recovered: 7,
            wal_truncated_bytes: 8,
        };
        let mut sum = one;
        sum.merge(&one);
        assert_eq!(
            sum,
            StorageStats {
                puts: 2,
                wal_records: 4,
                wal_bytes: 6,
                flushes: 8,
                run_bytes: 10,
                compactions: 12,
                keys_recovered: 14,
                wal_truncated_bytes: 16,
            }
        );
        let before = sum;
        sum.merge(&StorageStats::default());
        assert_eq!(sum, before);
    }
}
