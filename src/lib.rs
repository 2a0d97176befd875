//! Umbrella crate for the ResilientDB/GeoBFT reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and the
//! cross-crate integration tests can address the whole system through a
//! single dependency. Library users should depend on the individual crates
//! (most importantly [`resilientdb`] and [`rdb_consensus`]) directly.

#![forbid(unsafe_code)]

pub use rdb_common as common;
pub use rdb_consensus as consensus;
pub use rdb_crypto as crypto;
pub use rdb_ledger as ledger;
pub use rdb_scenario as scenario;
pub use rdb_simnet as simnet;
pub use rdb_store as store;
pub use rdb_workload as workload;
pub use resilientdb as fabric;
