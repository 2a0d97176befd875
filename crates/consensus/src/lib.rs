//! # rdb-consensus
//!
//! Sans-io implementations of the five Byzantine fault-tolerant consensus
//! protocols evaluated in *ResilientDB: Global Scale Resilient Blockchain
//! Fabric* (PVLDB 13(6), 2020):
//!
//! * [`geobft`] — **GeoBFT**, the paper's contribution (§2): clusters run
//!   PBFT locally in parallel, share certified decisions with `f + 1`
//!   messages per remote cluster, recover via remote view-changes, and
//!   execute rounds of `z` batches in deterministic cluster order.
//! * [`pbft`] — PBFT over all `z·n` replicas (§2.2, baseline).
//! * [`zyzzyva`] — speculative BFT with client-assisted recovery (§3).
//! * [`hotstuff`] — 4-phase HotStuff with parallel primaries and no
//!   threshold signatures, as the paper implemented it (§3).
//! * [`steward`] — the hierarchical wide-area protocol with a primary
//!   cluster (§3).
//!
//! All protocols implement [`api::ReplicaProtocol`] (replica side) and
//! [`api::ClientProtocol`] (client side) and are driven by either the
//! discrete-event simulator (`rdb-simnet`) or the threaded fabric
//! (`resilientdb`).

#![forbid(unsafe_code)]

pub mod adversary;
pub mod api;
pub mod certificate;
pub mod checkpoint;
pub mod clients;
pub mod codec;
pub mod config;
pub mod crypto_ctx;
pub mod exec;
pub mod faults;
pub mod messages;
pub mod pbft_core;
pub mod stage;
pub mod types;

pub mod geobft;
pub mod hotstuff;
pub mod pbft;
pub mod registry;
pub mod steward;
pub mod zyzzyva;

#[cfg(test)]
pub(crate) mod testkit;

pub use adversary::AdversarySpec;
pub use api::{Action, ClientProtocol, Outbox, ReplicaProtocol, TimerKind};
pub use certificate::{CommitCertificate, CommitSig};
pub use checkpoint::{CheckpointTracker, StableCheckpoint};
pub use config::{ExecMode, ProtocolConfig, ProtocolKind};
pub use crypto_ctx::CryptoCtx;
pub use faults::{FaultSpec, FaultState};
pub use messages::{Message, Scope};
pub use stage::{Stage, VerificationCost, VerifiedMessage};
pub use types::{ClientBatch, Decision, DecisionEntry, ReplyData, SignedBatch, Transaction};
