//! # resilientdb
//!
//! The ResilientDB fabric (§3 of the paper): a multi-threaded, staged
//! runtime that executes the consensus state machines of `rdb-consensus`
//! on real OS threads over a pluggable transport, maintains the
//! blockchain ledger, and serves closed-loop clients.
//!
//! ## The Figure-9 pipeline
//!
//! The paper's architecture diagram (Figure 9) associates input threads,
//! parallel batching/verification threads, worker threads, execution
//! threads and output threads with every replica, and credits this staged
//! design — not protocol cleverness — for most of the system's
//! throughput. Each [`node::ReplicaRuntime`] realizes that pipeline:
//!
//! ```text
//! transport ─▶ input ─▶ [verify ×N] ─▶ worker ─▶ execute ─▶ ledger
//!                                        │
//!                                        └─ (output) ─▶ transport
//! ```
//!
//! * the **input stage** has no thread of its own: the transport delivers
//!   each envelope straight into the replica's bounded inbox, and that
//!   delivery is the stage (Figure 9 "input"; in-process there is no
//!   socket to drain, so a forwarding thread would only add a hand-off);
//! * a pool of **verifier threads** ([`pipeline::PipelineConfig`]
//!   `verifier_threads`, default sized to the host's cores) drains the
//!   inbox in batches and runs the workspace's one validity check,
//!   [`rdb_consensus::stage::VerifiedMessage::check`] (signatures, digest
//!   bindings, quorum shapes). Malformed traffic dies here (§2.1); the
//!   worker never sees it (Figure 9 "batching");
//! * the **worker thread** owns the protocol state machine and timers —
//!   ordering only. No state machine checks a signature, so it spends no
//!   cycles re-checking what the pool proved (Figure 9 "worker/certify");
//! * the **execution thread** appends finalized decisions to the
//!   `rdb-ledger` chain and, in durable mode, persists each one's record
//!   images, off the consensus critical path (Figure 9 "execute"). The
//!   worker's commit tail already executed each decision once, on the
//!   replica's one `rdb-store` table;
//! * the **checkpoint stage** (when enabled via
//!   [`pipeline::CheckpointConfig`] /
//!   [`deployment::DeploymentBuilder::checkpoint_interval`]) runs on the
//!   execution thread, the one owner of the ledger and the engine: it
//!   certifies the replica's state digest against peers every interval
//!   of decisions and compacts the stable ledger prefix behind a recovery
//!   anchor (§2.2 checkpoints). Peer votes arrive on the execution
//!   thread's bounded queue; slow checkpoint work lets that queue fill
//!   and throttles the worker, bounding exec-to-stable lag — see
//!   [`queue`];
//! * the **output stage** has no thread of its own either: after each
//!   callback the worker hands its outgoing messages to the transport
//!   (Figure 9 "output"). In-process a send is one push into a peer
//!   inbox that sheds the worker's droppable traffic when full, so
//!   network pressure never parks ordering; over TCP the worker writes
//!   the frame itself. Its hand-off time is the Output row's busy time,
//!   not the Order row's, and a replica runs `verifier_threads + 2`
//!   threads.
//!
//! Every stage hand-off is counted in [`metrics::Metrics`]: per-stage
//! `enqueued` / `processed` / `dropped` counters (their difference is the
//! live queue depth) and accumulated busy time, exposed as
//! [`metrics::StageSnapshot`] on every [`deployment::DeploymentReport`].
//! `rdb-simnet` models the *same* stage layout in virtual time
//! (`ComputeModel::pipeline`), so simulated and real runs share one
//! pipeline abstraction end to end.
//!
//! ## Bounded queues and backpressure
//!
//! Every inter-stage channel is **bounded** ([`queue::StageQueues`],
//! derived from batch size and verifier fan-out, overridable per stage on
//! the [`deployment::DeploymentBuilder`]): at the bound, droppable
//! consensus traffic is *shed* (counted per stage) while client
//! `Request`s *block* their submitter, propagating admission control from
//! an overloaded replica all the way back to the client thread. Per-stage
//! `shed` counts and `blocked_ns` in [`metrics::StageSnapshot`] make the
//! overload behavior observable; see [`queue`] for the full policy
//! rationale (including why this is deadlock-free).
//!
//! ## The client service API
//!
//! The fabric is a *service* (§2.1), not just a benchmark: clients
//! submit transactions and receive the result of execution once `f + 1`
//! replicas attest to the same outcome. [`service`] is that surface:
//!
//! ```text
//! DeploymentBuilder::start() ─▶ Fabric ──▶ session(cluster) ─▶ ClientSession
//!                                 │                               │ submit(ops)
//!                                 │                               ▼
//!                                 │            Ticket ── wait() ─▶ CommitProof
//!                                 └─ shutdown() ─▶ DeploymentReport
//! ```
//!
//! [`service::ClientSession::submit`] signs a batch and sends it through
//! the replica's bounded input queue (a client `Request` is
//! non-droppable, so an overloaded fabric *blocks the submitting
//! thread* — admission control for free); the returned
//! [`service::Ticket`] resolves to a [`service::CommitProof`] carrying
//! the agreed log position, ledger height, result digest, the attesting
//! replicas, and the per-transaction results — so a `Read` returns the
//! committed value end-to-end.
//!
//! The classic closed-loop YCSB harness is a thin driver over the same
//! API: [`deployment::DeploymentBuilder::run`] ≡ `start()` +
//! [`service::Fabric::spawn_ycsb_clients`] + sleep +
//! [`service::Fabric::shutdown`], reporting client-observed
//! throughput/latency, per-stage pipeline counters and per-replica
//! ledgers exactly as before.

#![forbid(unsafe_code)]

pub mod deployment;
pub mod metrics;
pub mod node;
pub mod pipeline;
pub mod queue;
pub mod service;
pub mod socket;
pub mod storage;
mod sync;
pub mod transport;

pub use deployment::{DeploymentBuilder, DeploymentReport, TransportMode};
pub use metrics::{LinkRow, Metrics, NetSnapshot, StageRow, StageSnapshot, StorageSnapshot};
pub use node::{ReplicaRuntime, ReplicaStopReport};
pub use pipeline::{CheckpointConfig, CheckpointReport, PipelineConfig, VerifyCtx};
pub use queue::{Overload, QueuePolicy, StageQueues};
pub use service::{ClientSession, CommitProof, Fabric, Ticket};
pub use socket::{SocketKind, SocketTransport};
pub use storage::{Manifest, StorageMode};
pub use transport::{Envelope, InProcTransport, Transport, TransportHandle, TransportSender};
