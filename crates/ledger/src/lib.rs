//! # rdb-ledger
//!
//! The ResilientDB blockchain ledger (§3 of the paper): "the immutable
//! append-only blockchain representing the ordered sequence of client
//! requests accepted. In ResilientDB, the i-th block in the ledger
//! consists of the i-th executed client request. [...] the block not only
//! consists of the client request, but also contains a commit certificate.
//! This prevents tampering of any block, as only a single commit
//! certificate can be made per cluster per GeoBFT round (Lemma 2.3)."
//!
//! * [`block`] — blocks embedding batches and commit certificates, hash
//!   chained;
//! * [`chain`] — the append-only ledger with full verification;
//! * [`recovery`] — replica recovery by auditing a peer's ledger (§3:
//!   "a recovering replica can simply read the ledger of any replica it
//!   chooses and directly verify whether the ledger can be trusted").

#![forbid(unsafe_code)]

pub mod block;
pub mod chain;
pub mod recovery;

pub use block::Block;
pub use chain::Ledger;
pub use recovery::{audit_chain, catch_up, recover_from, recover_from_checkpoint, AuditError};
