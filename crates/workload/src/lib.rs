//! # rdb-workload
//!
//! The YCSB-style workload generator used by the paper's evaluation (§4):
//! "the workload is provided by the Yahoo Cloud Serving Benchmark. Each
//! client transaction queries a YCSB table with an active set of 600 k
//! records. For our evaluation, we use write queries. [...] The client
//! transactions generated by YCSB follow a uniform Zipfian distribution.
//! Clients and replicas can batch transactions [...] batch size of 100
//! requests per batch."
//!
//! * [`zipfian`] — the standard YCSB Zipfian generator (Gray et al.'s
//!   method), seeded and deterministic;
//! * [`ycsb`] — workload configuration (record count, operation mix,
//!   batch size) and per-client batch sources for the consensus layer.

#![forbid(unsafe_code)]

pub mod ycsb;
pub mod zipfian;

pub use ycsb::{YcsbConfig, YcsbWorkload};
pub use zipfian::Zipfian;
