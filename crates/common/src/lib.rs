//! # rdb-common
//!
//! Foundation types shared by every crate in the ResilientDB/GeoBFT
//! reproduction: node identifiers, the virtual-time representation used by
//! the discrete-event simulator, the system configuration (`z` clusters of
//! `n` replicas, at most `f` Byzantine per cluster, `n > 3f`), the paper's
//! six-region geography, and the wire-size model used to account for
//! network bandwidth.
//!
//! This crate has no dependencies on the rest of the workspace so that the
//! dependency graph stays a clean DAG:
//!
//! ```text
//! common <- crypto <- store <- consensus <- {workload, ledger} <- simnet <- core
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod ids;
pub mod region;
pub mod time;
pub mod wire;

pub use config::SystemConfig;
pub use error::{RdbError, RdbResult};
pub use ids::{ClientId, ClusterId, NodeId, ReplicaId};
pub use region::Region;
pub use time::{SimDuration, SimTime};
