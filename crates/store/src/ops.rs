//! Transaction operations executed against the store.

use serde::{Deserialize, Serialize};

/// A single YCSB-style operation. The paper's evaluation uses write
/// queries; reads and read-modify-writes are provided for completeness and
/// used by the examples.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operation {
    /// Overwrite the record at `key` with `value` (YCSB "update").
    Write {
        /// Record key in `0..record_count`.
        key: u64,
        /// New field contents.
        value: Value,
    },
    /// Read the record at `key` (YCSB "read").
    Read {
        /// Record key.
        key: u64,
    },
    /// Read the record, add `delta` to its embedded counter, write back
    /// (YCSB "read-modify-write").
    Rmw {
        /// Record key.
        key: u64,
        /// Counter increment.
        delta: u64,
    },
    /// Insert a fresh record past the current active set (YCSB "insert").
    Insert {
        /// Record key.
        key: u64,
        /// Field contents.
        value: Value,
    },
    /// Scan `count` records starting at `key` (YCSB "scan").
    Scan {
        /// First key of the range.
        key: u64,
        /// Number of records to read.
        count: u32,
    },
    /// The no-op transaction GeoBFT primaries propose when they have no
    /// client requests for a round (§2.5).
    NoOp,
    /// Run a deterministic register-machine program atomically over its
    /// static key footprint (see [`crate::txn`]). The program may abort
    /// (e.g. an underflow on a SmallBank transfer); the batch still
    /// commits and the abort is surfaced in [`ExecOutcome::Txn`].
    Txn(crate::txn::TxnProgram),
}

pub use crate::table::Value;

/// The effect of executing one operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecOutcome {
    /// A write/insert/no-op completed.
    Done,
    /// A read returned this value (`None` if the key was absent).
    ReadValue(Option<Value>),
    /// An RMW returned the post-increment counter.
    Counter(u64),
    /// A scan touched this many existing records.
    Scanned(u32),
    /// A transaction program ran to completion: committed with its return
    /// value, or aborted leaving the store untouched. Either way the
    /// operation (and its batch) *committed* — the outcome is replicated
    /// state, provable to clients with `f + 1` matching replies.
    Txn(crate::txn::TxnOutcome),
}

/// The effect of executing a whole transaction batch: one outcome per
/// operation. Replicas include a digest of this in client replies so that
/// clients can match the `f + 1` identical responses required by §2.4.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TxnEffect {
    /// Per-operation outcomes, in execution order.
    pub outcomes: Vec<ExecOutcome>,
}

impl Operation {
    /// The record key this operation touches first (None for `NoOp`).
    /// For a program it is the first key of the static footprint.
    pub fn primary_key(&self) -> Option<u64> {
        match self {
            Operation::Write { key, .. }
            | Operation::Read { key }
            | Operation::Rmw { key, .. }
            | Operation::Insert { key, .. }
            | Operation::Scan { key, .. } => Some(*key),
            Operation::NoOp => None,
            Operation::Txn(prog) => prog.keys().first().copied(),
        }
    }

    /// Whether the operation mutates the store. Programs count as writes
    /// whenever their static footprint contains a `Write` (a program
    /// that aborts at runtime still *may* write).
    pub fn is_write(&self) -> bool {
        match self {
            Operation::Write { .. } | Operation::Rmw { .. } | Operation::Insert { .. } => true,
            Operation::Txn(prog) => !prog.write_keys().is_empty(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_key_extraction() {
        assert_eq!(
            Operation::Write {
                key: 7,
                value: Value::from_u64(1)
            }
            .primary_key(),
            Some(7)
        );
        assert_eq!(Operation::NoOp.primary_key(), None);
        assert_eq!(Operation::Scan { key: 3, count: 10 }.primary_key(), Some(3));
    }

    #[test]
    fn write_classification() {
        assert!(Operation::Write {
            key: 0,
            value: Value::from_u64(0)
        }
        .is_write());
        assert!(Operation::Rmw { key: 0, delta: 1 }.is_write());
        assert!(!Operation::Read { key: 0 }.is_write());
        assert!(!Operation::NoOp.is_write());
    }
}
