//! Deterministic adversarial scenario harness over the transaction layer.
//!
//! The paper evaluates ResilientDB under YCSB point operations only. This
//! crate scripts *named scenarios* that drive the register-machine
//! transaction programs of `rdb_store::txn` — SmallBank-style transfers
//! with hot-account conflicts and surfaced aborts, multi-key token
//! read-modify-writes — through **both** runtimes: the deterministic
//! discrete-event simulator (`rdb-simnet`) and the real threaded fabric
//! (`resilientdb`). It also injects the classic fault scripts the paper
//! reasons about in §2: a network partition that heals mid-run, and a
//! Byzantine (equivocating) primary per protocol.
//!
//! # Assertion scoping
//!
//! Fault-free scenarios ([`scenarios::smallbank`], [`scenarios::token_rmw`])
//! assert the strongest possible property: the committed ledgers are
//! **byte-identical** between the simulator and the fabric — same batches,
//! same order, same post-execution state digests, hence identical block
//! hashes. Both runtimes drive the same sans-io state machines, so with one
//! closed-loop client the proposal order is fully determined by client
//! `batch_seq` order and only timing may differ.
//!
//! Fault scenarios ([`scenarios::healing_partition`],
//! [`scenarios::byzantine_primary`]) cannot promise cross-runtime byte
//! identity: recovery artifacts (view-change no-ops, retransmission
//! interleavings) depend on *when* timers fire relative to commits, which
//! is exactly what differs between virtual and wall-clock time. They
//! assert the paper's consensus properties instead — non-divergence
//! across honest replicas (identical prefixes, identical state digests)
//! plus a progress floor — in both runtimes, with the same fault script.
//!
//! # Independent replay audit
//!
//! Every scenario re-executes the observer replica's committed ledger
//! against a clone of one preloaded store ([`harness::replay_over`], a caller
//! of [`rdb_ledger::replay`]) and verifies the `state_digest` recorded at
//! every round end. This is a
//! runtime-independent check: whatever the pipeline (fabric executor,
//! simulator model) claimed about execution is re-derived
//! from the chain alone, and it is also where program/abort counts for
//! reports come from.

#![forbid(unsafe_code)]

pub mod harness;
pub mod scenarios;
pub mod workloads;

pub use harness::{replay_ledger, replay_over, ReplayAudit, ScenarioOutcome};
pub use scenarios::{
    byzantine_primary, healing_partition, quick_all, run_all, smallbank, token_rmw, Mode,
};
pub use workloads::{smallbank_factory, token_factory, SourceFactory};
