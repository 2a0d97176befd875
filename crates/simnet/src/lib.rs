//! # rdb-simnet
//!
//! A deterministic discrete-event simulator of a geo-distributed
//! deployment, calibrated to the measurements in Table 1 of the paper.
//! The protocol state machines from `rdb-consensus` run unmodified on this
//! simulator; virtual time advances through three first-order resources:
//!
//! 1. **Propagation delay and bandwidth** per region pair (Table 1): each
//!    directed region pair is a shared pipe with the measured bandwidth
//!    and half-RTT latency, plus a per-node WAN egress aggregate and an
//!    intra-region NIC — reproducing the "bottlenecked by the bandwidth
//!    of the single primary" effect of §4.4.
//! 2. **Compute** per node ([`compute::ComputeModel`]): configurable costs
//!    for signature/MAC operations, per-message handling, hashing and
//!    execution, charged across a modeled Figure-9 stage layout
//!    ([`compute::PipelineModel`]): inbound signature work lands on a
//!    verifier-thread pool behind a *bounded* virtual input queue
//!    (capacity + [`Overload`] policy, the fabric's own
//!    backpressure design — droppable traffic sheds at the bound,
//!    requests wait), ordering on the worker's busy-until queue, and
//!    decision execution on a dedicated core — the same pipeline
//!    abstraction the real fabric (`resilientdb`) runs on OS threads.
//! 3. **Timers** with generation-based cancellation.
//!
//! [`scenario::Scenario`] wires a full deployment (replicas, closed-loop
//! YCSB clients, a [`FaultSpec`] script the threaded fabric reads too) and
//! returns [`scenario::RunMetrics`] with
//! client-observed throughput/latency and message statistics — the raw
//! material for every figure reproduction in `rdb-bench`.

#![forbid(unsafe_code)]

pub mod compute;
pub mod engine;
pub mod scenario;
pub mod stats;
pub mod topology;

pub use compute::{ComputeModel, Overload, PipelineModel};
pub use engine::Engine;
pub use rdb_consensus::faults::{FaultSpec, FaultState};
pub use scenario::{RunMetrics, Scenario};
pub use stats::NetStats;
pub use topology::Topology;
