//! # rdb-storage
//!
//! Durable storage engines for the ResilientDB/GeoBFT reproduction.
//!
//! The paper positions ResilientDB as a *fabric* for production permissioned
//! deployments; production fabrics keep their ledger and application state on
//! disk so a replica can be killed and rebooted without losing its chain
//! (the companion `rs_node` fabric stores both behind RocksDB column
//! families). This crate reproduces that shape without an external database
//! dependency:
//!
//! * [`StorageBackend`] — the narrow interface the fabric writes through:
//!   atomic multi-keyspace batches, point reads, ordered scans, and an
//!   explicit `flush` durability point.
//! * [`Keyspace`] — four named keyspaces in the spirit of column families:
//!   `table` (application records), `blocks` (the ledger chain, including
//!   blocks compacted out of memory), `checkpoints` (certified checkpoint
//!   records), and `meta` (replica markers such as the applied height).
//! * [`LogBackend`] — a log-structured persistent engine over `std::fs`:
//!   a checksummed write-ahead log with torn-tail truncation on replay, an
//!   in-memory memtable per keyspace, and sorted immutable runs streamed
//!   out at a size threshold. A flushed run is a handle with a sparse
//!   index, not a resident copy ([`run`]), and compaction is a policy per
//!   keyspace ([`log`]): the height-keyed `blocks` and `checkpoints` are
//!   append-only and never rewritten, `table` and `meta` merge
//!   size-tiered.
//!
//! In-memory deployments (the fabric's `StorageMode::Memory`, which every
//! repro binary uses) open no engine at all, so figure bytes never depend
//! on this crate.
//!
//! Every batch appended to the WAL is atomic: replay either observes the
//! whole batch or (when the tail record is torn) none of it, so a crash can
//! only lose a *suffix of whole batches* — never leave a keyspace half
//! written. The fabric exploits this by packing one committed decision
//! (ledger blocks + table writes + applied-height marker) into one batch,
//! which makes "recovered state digest matches the recovered ledger head"
//! true by construction.

#![forbid(unsafe_code)]

pub mod backend;
pub mod log;
pub mod run;
pub mod wal;

pub use backend::{Keyspace, StorageBackend, StorageStats, WriteBatch};
pub use log::{LogBackend, LogConfig};
