//! # rdb-store
//!
//! The execution substrate of the ResilientDB/GeoBFT reproduction: an
//! in-memory, versioned key-value table in the style of the YCSB `usertable`
//! used by the paper's evaluation (§4: "Each client transaction queries a
//! YCSB table with an active set of 600 k records" and "we use write
//! queries, as those are typically more costly than read-only queries").
//!
//! Replicas execute ordered transactions against this store; determinism is
//! essential (§2.1: non-faulty replicas are deterministic — "on identical
//! inputs, all non-faulty replicas must produce identical outputs"). The
//! store exposes a state fingerprint ([`KvStore::state_digest`]) that the
//! test-suite uses to assert that every replica's state is identical after
//! executing the same transaction sequence, and that checkpointing uses to
//! identify stable states.

#![forbid(unsafe_code)]

pub mod ops;
pub mod table;
pub mod txn;

pub use ops::{ExecOutcome, Operation, Outcomes, TxnEffect};
pub use table::{KvStore, StoreStats, Value};
pub use txn::{Cmp, TxnAbort, TxnInstr, TxnOutcome, TxnProgram};
