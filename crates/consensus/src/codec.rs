//! The one binary codec: [`Message`] ⇄ length-prefixed frames on the
//! socket, and [`Wire`] values ⇄ bytes on disk.
//!
//! The socket transport (`resilientdb::socket`) needs real bytes on a
//! real socket, but the repro's bandwidth accounting is calibrated
//! against the *modeled* sizes in [`rdb_common::wire`] (§4 of the paper:
//! 5.4 kB pre-prepares, 250 B control messages, ...). This codec keeps
//! the two in agreement by construction:
//!
//! * every message is encoded as a compact tag + little-endian binary
//!   payload (the same idiom as [`TxnProgram::canonical_bytes`] — no
//!   serde, no crates.io), and then
//! * the frame is **padded with zeros up to
//!   [`Message::wire_size`]** whenever the compact encoding comes out
//!   smaller — which it does for every YCSB-shaped message, because the
//!   model charges the paper's field layout (52 B/txn, 128 B/commit,
//!   14 B/result) while the compact encoding is tighter (47, 68 and
//!   1–26 B respectively).
//!
//! The result: the frame for any message is exactly
//! `wire_size() + FRAME_OVERHEAD` bytes on the socket, so per-link byte
//! counters measured on a real deployment reproduce the simulator's
//! bandwidth model without a separate calibration table. Two documented
//! exceptions grow past the model (the frame simply gets bigger, padding
//! zero): register-machine programs ([`Operation::Txn`]) whose
//! instruction streams exceed the modeled 52 B/txn, and read-heavy
//! replies whose `ReadValue(Some(_))` outcomes (26 B) exceed the modeled
//! 14 B/result.
//!
//! # One description per type
//!
//! Every encodable type implements [`Wire`], and each implementation is
//! the only place that type's bytes are described: encode, decode and the
//! smallest possible encoding ([`Wire::MIN_BYTES`], which guards element
//! counts against the bytes actually present) all come from it. Structs
//! and tagged enums are rows of the [`wire_struct!`](crate::wire_struct)
//! and `wire_enum!` tables below — fields in wire order, each with its
//! wire type; the few irregular encodings ([`NodeId`], [`Scope`],
//! [`ExecOutcome`]) are written out by hand, still once. Adding a message
//! variant is one `wire_enum!` row (a fresh tag) plus its
//! [`Message::wire_size`] arm. The same codec writes ledger blocks and the
//! deployment manifest to disk (`rdb_ledger::Block`,
//! `resilientdb::storage::Manifest`), through [`encode`] and [`decode`].
//!
//! # Frame layout
//!
//! ```text
//! [len: u32 LE]              total bytes after this field
//! [from: NodeId, 7 B]        tag(1) + cluster(2) + index(4)
//! [to:   NodeId, 7 B]
//! [payload_len: u32 LE]      compact encoding length (≤ len - 18)
//! [payload: payload_len B]   tagged Message encoding
//! [padding: zeros]           up to max(payload_len, msg.wire_size())
//! ```
//!
//! [`FRAME_OVERHEAD`] is the fixed 22-byte header (4 + 7 + 7 + 4).
//! Decoding reads `payload_len`, decodes the payload, and skips the
//! padding — a corrupt, truncated or oversized frame yields a
//! [`CodecError`], never a panic, and the length prefix keeps the stream
//! in sync (the reader always knows where the next frame starts).

use crate::certificate::{CommitCertificate, CommitSig};
use crate::config::ProtocolKind;
use crate::messages::{HsPhase, HsQc, Message, PreparedProof, Scope};
use crate::types::{ClientBatch, ReplyData, SignedBatch, Transaction, Txns};
use rdb_common::ids::{ClientId, ClusterId, NodeId, ReplicaId};
use rdb_common::Shared;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::{PublicKey, Signature};
use rdb_store::{
    Cmp, ExecOutcome, Operation, Outcomes, TxnAbort, TxnEffect, TxnInstr, TxnOutcome, TxnProgram,
    Value,
};

/// Encoded bytes of a [`NodeId`]: tag + cluster + 32-bit index.
pub const NODE_ID_BYTES: usize = 7;

/// Fixed frame header: length prefix + from + to + payload length.
pub const FRAME_OVERHEAD: usize = 4 + 2 * NODE_ID_BYTES + 4;

/// Upper bound on a frame body (the bytes after the length prefix). A
/// peer claiming more is corrupt or hostile; the reader rejects the
/// frame before allocating. Generous: the largest honest message is a
/// view change carrying a window of full batches (~100 kB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a decode failed. Every malformed input maps to one of these —
/// decoding never panics and never reads past the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the encoding did.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum the tag belonged to.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A claimed length exceeds [`MAX_FRAME`] or the bytes actually
    /// present, or a value is outside its field's range.
    BadLength {
        /// Which field carried the length (for an element count, the
        /// element type).
        what: &'static str,
        /// The claimed value.
        claimed: u64,
    },
    /// The payload decoded cleanly but bytes were left over (a desynced
    /// or tampered stream).
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::BadLength { what, claimed } => {
                write!(f, "bad {what} length {claimed}")
            }
            CodecError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------
// The trait and its leaves
// ---------------------------------------------------------------------

/// The undecoded rest of a buffer; [`Wire::get`] consumes from its front.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }
}

/// A type with one binary encoding, described once for both directions.
/// Encoding is total and deterministic (identical values encode to
/// identical bytes); decoding any byte string returns a value or a
/// [`CodecError`], never panics, and never allocates more than the bytes
/// present can justify.
pub trait Wire: Sized {
    /// Length of the shortest encoding of any value of this type — a true
    /// lower bound, which is what lets `Vec<T>` reject an element count
    /// the remaining bytes cannot hold *before* allocating for it.
    const MIN_BYTES: usize;

    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

/// The encoding of `value` in a fresh buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decode a whole buffer as one `T`; bytes left over are an error
/// ([`CodecError::TrailingBytes`]).
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T> {
    let mut r = Reader { buf };
    let value = T::get(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes);
    }
    Ok(value)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

/// `usize` travels as a `u64` (the manifest's counts).
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| CodecError::BadLength {
            what: "usize",
            claimed: v,
        })
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl<const N: usize> Wire for [u8; N] {
    const MIN_BYTES: usize = N;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.array()
    }
}

/// Presence byte (0 / 1), then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(CodecError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

/// `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        // Validate the count against the bytes actually left, so a
        // corrupt count can never trigger a huge allocation.
        let n = u32::get(r)? as usize;
        if n.saturating_mul(T::MIN_BYTES.max(1)) > r.remaining() {
            return Err(CodecError::BadLength {
                what: std::any::type_name::<T>(),
                claimed: n as u64,
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// The `Vec<T>` encoding of `items`.
fn put_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).put(out);
    for v in items {
        v.put(out);
    }
}

/// Exactly the `Vec<T>` encoding: a shared handle ([`Txns`],
/// [`Outcomes`]) changes no byte, and a decoded one is one allocation its
/// clones share.
impl<T: Wire> Wire for Shared<T> {
    const MIN_BYTES: usize = <Vec<T> as Wire>::MIN_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Vec::<T>::get(r).map(Shared::from)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

// ---------------------------------------------------------------------
// The tables
// ---------------------------------------------------------------------

/// Implement [`Wire`](crate::codec::Wire) for a struct from one table:
/// its fields in wire order, each with its type (`0: T` names a tuple
/// struct's field). The encoding is the fields' encodings back to back.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:tt : $ty:ty),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::codec::Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::Wire::put(&self.$field, out);)*
            }
            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                Ok($name { $($field: $crate::codec::Wire::get(r)?),* })
            }
        }
    };
}

const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// Implement [`Wire`] for a tagged enum from one table: `tag => Variant`,
/// `tag => Variant(name: T)` or `tag => Variant { field: T, .. }` with
/// fields in wire order. The encoding is the tag byte, then the variant's
/// fields; `$what` names the enum in [`CodecError::BadTag`]. The `match`
/// in `put` is exhaustive, so a variant without a row does not compile.
macro_rules! wire_enum {
    ($name:ident, $what:literal { $(
        $tag:literal => $variant:ident
            $(($bind:ident : $inner:ty))?
            $({ $($field:ident : $ty:ty),* $(,)? })?
    ),* $(,)? }) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 1 + min_of(&[$(
                0 $(+ <$inner as Wire>::MIN_BYTES)? $($(+ <$ty as Wire>::MIN_BYTES)*)?
            ),*]);
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {$(
                    $name::$variant $(($bind))? $({ $($field),* })? => {
                        out.push($tag);
                        $(<$inner as Wire>::put($bind, out);)?
                        $($(<$ty as Wire>::put($field, out);)*)?
                    }
                )*}
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok(match u8::get(r)? {
                    $($tag => $name::$variant
                        $((<$inner as Wire>::get(r)?))?
                        $({ $($field: <$ty as Wire>::get(r)?),* })?,)*
                    tag => return Err(CodecError::BadTag { what: $what, tag }),
                })
            }
        }
    };
}

wire_struct! { ClusterId { 0: u16 } }
wire_struct! { ReplicaId { cluster: ClusterId, index: u16 } }
wire_struct! { ClientId { cluster: ClusterId, index: u32 } }
wire_struct! { Digest { 0: [u8; 32] } }
wire_struct! { Signature { 0: [u8; 64] } }
wire_struct! { PublicKey { 0: [u8; 32] } }
wire_struct! { Value { 0: [u8; 24] } }

/// Fixed [`NODE_ID_BYTES`]: both kinds carry a 32-bit index so a node id
/// has one width (the socket handshake reads it unframed).
impl Wire for NodeId {
    const MIN_BYTES: usize = NODE_ID_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, cluster, index) = match *self {
            NodeId::Replica(r) => (0u8, r.cluster, r.index as u32),
            NodeId::Client(c) => (1, c.cluster, c.index),
        };
        tag.put(out);
        cluster.put(out);
        index.put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let (tag, cluster, index) = (u8::get(r)?, ClusterId::get(r)?, u32::get(r)?);
        match tag {
            0 => {
                let index = u16::try_from(index).map_err(|_| CodecError::BadLength {
                    what: "replica index",
                    claimed: index as u64,
                })?;
                Ok(NodeId::Replica(ReplicaId { cluster, index }))
            }
            1 => Ok(NodeId::Client(ClientId { cluster, index })),
            tag => Err(CodecError::BadTag {
                what: "node id",
                tag,
            }),
        }
    }
}

/// The cluster field is always present (zero for [`Scope::Global`]) so
/// every scoped message has a fixed-offset header.
impl Wire for Scope {
    const MIN_BYTES: usize = 3;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, cluster) = match *self {
            Scope::Global => (0u8, ClusterId(0)),
            Scope::Cluster(c) => (1, c),
        };
        tag.put(out);
        cluster.put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match (u8::get(r)?, ClusterId::get(r)?) {
            (0, ClusterId(0)) => Ok(Scope::Global),
            // One value, one encoding: a cluster under `Global` is not
            // silently dropped.
            (0, ClusterId(c)) => Err(CodecError::BadLength {
                what: "global scope cluster",
                claimed: c as u64,
            }),
            (1, c) => Ok(Scope::Cluster(c)),
            (tag, _) => Err(CodecError::BadTag { what: "scope", tag }),
        }
    }
}

wire_enum! { Cmp, "cmp" { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge } }

wire_enum! { TxnInstr, "instr" {
    0 => Read { dst: u8, key: u64 },
    1 => Write { src: u8, key: u64 },
    2 => Set { dst: u8, imm: u64 },
    3 => Add { dst: u8, src: u8 },
    4 => Sub { dst: u8, src: u8 },
    5 => BranchIf { a: u8, cmp: Cmp, b: u8, skip: u8 },
    6 => Abort { code: u32 },
    7 => Halt,
} }

wire_struct! { TxnProgram { instrs: Vec<TxnInstr> } }

wire_enum! { Operation, "operation" {
    0 => Write { key: u64, value: Value },
    1 => Read { key: u64 },
    2 => Rmw { key: u64, delta: u64 },
    3 => Insert { key: u64, value: Value },
    4 => Scan { key: u64, count: u32 },
    5 => NoOp,
    6 => Txn(prog: TxnProgram),
} }

wire_struct! { Transaction { client: ClientId, seq: u64, op: Operation } }
wire_struct! { ClientBatch { client: ClientId, batch_seq: u64, txns: Txns } }
wire_struct! { SignedBatch { batch: ClientBatch, pubkey: PublicKey, sig: Signature } }

// The same bytes as `TxnOutcome::canonical_bytes` (tag + LE payload).
wire_enum! { TxnAbort, "txn abort" {
    0 => Underflow { pc: u32 },
    1 => Overflow { pc: u32 },
    2 => Explicit { code: u32, pc: u32 },
    3 => Invalid { pc: u32 },
} }
wire_enum! { TxnOutcome, "txn outcome" {
    0 => Committed { ret: u64 },
    1 => Aborted(abort: TxnAbort),
} }

/// `ReadValue`'s inner option is folded into the outcome tag (1 = absent,
/// 2 = present), so the common outcomes stay one byte.
impl Wire for ExecOutcome {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ExecOutcome::Done => out.push(0),
            ExecOutcome::ReadValue(None) => out.push(1),
            ExecOutcome::ReadValue(Some(v)) => {
                out.push(2);
                v.put(out);
            }
            ExecOutcome::Counter(c) => {
                out.push(3);
                c.put(out);
            }
            ExecOutcome::Scanned(n) => {
                out.push(4);
                n.put(out);
            }
            ExecOutcome::Txn(t) => {
                out.push(5);
                t.put(out);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(ExecOutcome::Done),
            1 => Ok(ExecOutcome::ReadValue(None)),
            2 => Ok(ExecOutcome::ReadValue(Some(Value::get(r)?))),
            3 => Ok(ExecOutcome::Counter(u64::get(r)?)),
            4 => Ok(ExecOutcome::Scanned(u32::get(r)?)),
            5 => Ok(ExecOutcome::Txn(TxnOutcome::get(r)?)),
            tag => Err(CodecError::BadTag {
                what: "exec outcome",
                tag,
            }),
        }
    }
}

wire_struct! { TxnEffect { outcomes: Outcomes } }
wire_struct! { ReplyData {
    client: ClientId,
    batch_seq: u64,
    seq: u64,
    block_height: u64,
    result_digest: Digest,
    results: TxnEffect,
    txns: u32,
} }

wire_struct! { CommitSig { replica: ReplicaId, sig: Signature } }
wire_struct! { CommitCertificate {
    cluster: ClusterId,
    round: u64,
    digest: Digest,
    batch: SignedBatch,
    commits: Vec<CommitSig>,
} }

wire_enum! { HsPhase, "phase" { 0 => Prepare, 1 => PreCommit, 2 => Commit, 3 => Decide } }
wire_struct! { HsQc {
    slot: u64,
    phase: HsPhase,
    digest: Digest,
    votes: Vec<(ReplicaId, Signature)>,
} }
wire_struct! { PreparedProof { seq: u64, digest: Digest, batch: SignedBatch } }

wire_enum! { Message, "message" {
    0 => Request(batch: SignedBatch),
    1 => Forward(batch: SignedBatch),
    2 => Reply { data: ReplyData, view: u64 },
    3 => PrePrepare { scope: Scope, view: u64, seq: u64, batch: SignedBatch, digest: Digest },
    4 => Prepare { scope: Scope, view: u64, seq: u64, digest: Digest },
    5 => Commit { scope: Scope, view: u64, seq: u64, digest: Digest, sig: Signature },
    6 => Checkpoint { scope: Scope, seq: u64, state: Digest },
    7 => ViewChange { scope: Scope, new_view: u64, stable_seq: u64, prepared: Vec<PreparedProof> },
    8 => NewView {
        scope: Scope,
        view: u64,
        stable_seq: u64,
        preprepares: Vec<(u64, SignedBatch)>,
    },
    9 => GlobalShare { cert: CommitCertificate },
    10 => Drvc { target: ClusterId, round: u64, v: u64 },
    11 => Rvc { target: ClusterId, round: u64, v: u64, requester: ReplicaId, sig: Signature },
    12 => OrderReq { view: u64, seq: u64, batch: SignedBatch, history: Digest },
    13 => SpecResponse {
        view: u64,
        seq: u64,
        batch_seq: u64,
        replica: ReplicaId,
        digest: Digest,
        history: Digest,
        result: Digest,
        results: TxnEffect,
        sig: Signature,
    },
    14 => ZyzCommit {
        client: ClientId,
        batch_seq: u64,
        view: u64,
        seq: u64,
        digest: Digest,
        history: Digest,
        sigs: Vec<(ReplicaId, Signature)>,
    },
    15 => LocalCommit { view: u64, seq: u64, batch_seq: u64, replica: ReplicaId },
    16 => HsProposal {
        slot: u64,
        phase: HsPhase,
        batch: Option<SignedBatch>,
        digest: Digest,
        justify: Option<HsQc>,
    },
    17 => HsVote { slot: u64, phase: HsPhase, digest: Digest, replica: ReplicaId, sig: Signature },
    18 => StewardProposal { seq: u64, cert: CommitCertificate },
    19 => StewardLocalAccept { seq: u64, digest: Digest, replica: ReplicaId, sig: Signature },
    20 => StewardAccept {
        seq: u64,
        cluster: ClusterId,
        digest: Digest,
        sigs: Vec<(ReplicaId, Signature)>,
    },
    21 => Noop,
} }

// On disk only: the deployment manifest's protocol byte.
wire_enum! { ProtocolKind, "protocol kind" {
    0 => GeoBft,
    1 => Pbft,
    2 => Zyzzyva,
    3 => HotStuff,
    4 => Steward,
} }

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// A reusable frame encoder: one allocation amortized over every send on
/// a connection (the `pipeline-serialize` bench measures what this
/// buys over per-send allocation).
#[derive(Default)]
pub struct WireCodec {
    buf: Vec<u8>,
}

impl WireCodec {
    /// A codec with an empty scratch buffer.
    pub fn new() -> WireCodec {
        WireCodec::default()
    }

    /// Encode `(from, to, msg)` as one complete frame (length prefix
    /// included), reusing the internal buffer. The returned slice is
    /// valid until the next call.
    pub fn encode_frame(&mut self, from: NodeId, to: NodeId, msg: &Message) -> &[u8] {
        self.buf.clear();
        encode_frame_into(&mut self.buf, from, to, msg);
        &self.buf
    }
}

/// Append one complete frame to `out` (see the module docs for the
/// layout). The body is padded with zeros up to [`Message::wire_size`],
/// so the frame is `wire_size() + FRAME_OVERHEAD` bytes for every
/// message whose compact encoding fits the model.
pub fn encode_frame_into(out: &mut Vec<u8>, from: NodeId, to: NodeId, msg: &Message) {
    let len_at = out.len();
    0u32.put(out); // patched below
    from.put(out);
    to.put(out);
    let payload_len_at = out.len();
    0u32.put(out); // patched below
    let payload_at = out.len();
    msg.put(out);
    let payload_len = out.len() - payload_at;
    let padded = payload_len.max(msg.wire_size());
    out.resize(payload_at + padded, 0);
    let body_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    out[payload_len_at..payload_len_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Decode a frame *body* (the bytes after the length prefix) into
/// `(from, to, msg)`. Padding past the payload must be zero-filled by
/// the encoder but is deliberately not validated — skipping it keeps
/// decode O(payload).
pub fn decode_frame_body(body: &[u8]) -> Result<(NodeId, NodeId, Message)> {
    let mut r = Reader { buf: body };
    let from = NodeId::get(&mut r)?;
    let to = NodeId::get(&mut r)?;
    let payload_len = u32::get(&mut r)? as usize;
    if payload_len > r.remaining() {
        return Err(CodecError::BadLength {
            what: "payload",
            claimed: payload_len as u64,
        });
    }
    let msg = decode(r.bytes(payload_len)?)?;
    Ok((from, to, msg))
}

/// Append the fixed [`NODE_ID_BYTES`] encoding of a node id (the
/// socket handshake exchanges bare node ids outside any frame).
pub fn encode_node_id(out: &mut Vec<u8>, n: NodeId) {
    n.put(out);
}

/// Decode a [`NODE_ID_BYTES`] node id.
pub fn decode_node_id(bytes: &[u8; NODE_ID_BYTES]) -> Result<NodeId> {
    decode(bytes)
}

/// The full on-socket size of the frame `encode_frame_into` produces for
/// `msg`: the modeled wire size (or the compact encoding when larger)
/// plus [`FRAME_OVERHEAD`].
pub fn frame_size(msg: &Message) -> usize {
    FRAME_OVERHEAD + encode(msg).len().max(msg.wire_size())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdb_common::wire;
    use serde::Serialize;

    fn roundtrip(msg: &Message) {
        let mut out = Vec::new();
        let from: NodeId = ReplicaId::new(2, 3).into();
        let to: NodeId = ClientId::new(1, 9).into();
        encode_frame_into(&mut out, from, to, msg);
        assert_eq!(
            out.len(),
            frame_size(msg),
            "frame_size must predict the encoder for {}",
            msg.label()
        );
        let body_len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, out.len() - 4);
        let (f, t, decoded) = decode_frame_body(&out[4..]).expect("decode");
        assert_eq!(f, from);
        assert_eq!(t, to);
        assert_eq!(&decoded, msg, "roundtrip mismatch for {}", msg.label());
    }

    fn sig(b: u8) -> Signature {
        Signature([b; 64])
    }

    fn digest(b: u8) -> Digest {
        Digest([b; 32])
    }

    fn batch(n: usize) -> SignedBatch {
        let client = ClientId::new(1, 7);
        SignedBatch {
            batch: ClientBatch {
                client,
                batch_seq: 3,
                txns: (0..n as u64)
                    .map(|i| Transaction {
                        client,
                        seq: i,
                        op: Operation::Write {
                            key: i,
                            value: Value::from_u64(i),
                        },
                    })
                    .collect(),
            },
            pubkey: PublicKey([9; 32]),
            sig: sig(4),
        }
    }

    fn cert(b: usize, c: usize) -> CommitCertificate {
        CommitCertificate {
            cluster: ClusterId(1),
            round: 5,
            digest: digest(6),
            batch: batch(b),
            commits: (0..c as u16)
                .map(|i| CommitSig {
                    replica: ReplicaId::new(0, i),
                    sig: sig(i as u8),
                })
                .collect(),
        }
    }

    /// One exemplar per variant — the fixed sweep backing the proptest
    /// (which fuzzes the payload-heavy variants more deeply).
    pub(crate) fn exemplars() -> Vec<Message> {
        vec![
            Message::Request(batch(3)),
            Message::Forward(batch(1)),
            Message::Reply {
                data: ReplyData {
                    client: ClientId::new(0, 2),
                    batch_seq: 1,
                    seq: 2,
                    block_height: 3,
                    result_digest: digest(1),
                    results: TxnEffect {
                        outcomes: vec![
                            ExecOutcome::Done,
                            ExecOutcome::ReadValue(None),
                            ExecOutcome::ReadValue(Some(Value::from_u64(7))),
                            ExecOutcome::Counter(8),
                            ExecOutcome::Scanned(2),
                            ExecOutcome::Txn(TxnOutcome::Committed { ret: 4 }),
                            ExecOutcome::Txn(TxnOutcome::Aborted(TxnAbort::Underflow { pc: 2 })),
                            ExecOutcome::Txn(TxnOutcome::Aborted(TxnAbort::Overflow { pc: 3 })),
                            ExecOutcome::Txn(TxnOutcome::Aborted(TxnAbort::Explicit {
                                code: 9,
                                pc: 1,
                            })),
                            ExecOutcome::Txn(TxnOutcome::Aborted(TxnAbort::Invalid { pc: 0 })),
                        ]
                        .into(),
                    },
                    txns: 10,
                },
                view: 4,
            },
            Message::PrePrepare {
                scope: Scope::Cluster(ClusterId(2)),
                view: 1,
                seq: 2,
                batch: batch(2),
                digest: digest(2),
            },
            Message::Prepare {
                scope: Scope::Global,
                view: 1,
                seq: 2,
                digest: digest(3),
            },
            Message::Commit {
                scope: Scope::Cluster(ClusterId(0)),
                view: 1,
                seq: 2,
                digest: digest(4),
                sig: sig(5),
            },
            Message::Checkpoint {
                scope: Scope::Global,
                seq: 10,
                state: digest(5),
            },
            Message::ViewChange {
                scope: Scope::Global,
                new_view: 2,
                stable_seq: 5,
                prepared: vec![PreparedProof {
                    seq: 6,
                    digest: digest(6),
                    batch: batch(1),
                }],
            },
            Message::NewView {
                scope: Scope::Cluster(ClusterId(1)),
                view: 2,
                preprepares: vec![(7, batch(1)), (8, batch(0))],
                stable_seq: 5,
            },
            Message::GlobalShare { cert: cert(2, 3) },
            Message::Drvc {
                target: ClusterId(3),
                round: 9,
                v: 1,
            },
            Message::Rvc {
                target: ClusterId(3),
                round: 9,
                v: 1,
                requester: ReplicaId::new(1, 2),
                sig: sig(7),
            },
            Message::OrderReq {
                view: 1,
                seq: 2,
                batch: batch(2),
                history: digest(7),
            },
            Message::SpecResponse {
                view: 1,
                seq: 2,
                batch_seq: 3,
                replica: ReplicaId::new(0, 1),
                digest: digest(8),
                history: digest(9),
                result: digest(10),
                results: TxnEffect::default(),
                sig: sig(8),
            },
            Message::ZyzCommit {
                client: ClientId::new(0, 4),
                batch_seq: 3,
                view: 1,
                seq: 2,
                digest: digest(11),
                history: digest(12),
                sigs: vec![
                    (ReplicaId::new(0, 0), sig(1)),
                    (ReplicaId::new(0, 1), sig(2)),
                ],
            },
            Message::LocalCommit {
                view: 1,
                seq: 2,
                batch_seq: 3,
                replica: ReplicaId::new(0, 2),
            },
            Message::HsProposal {
                slot: 4,
                phase: HsPhase::PreCommit,
                batch: Some(batch(1)),
                digest: digest(13),
                justify: Some(HsQc {
                    slot: 3,
                    phase: HsPhase::Prepare,
                    digest: digest(14),
                    votes: vec![(ReplicaId::new(0, 0), sig(3))],
                }),
            },
            Message::HsProposal {
                slot: 4,
                phase: HsPhase::Decide,
                batch: None,
                digest: digest(13),
                justify: None,
            },
            Message::HsVote {
                slot: 4,
                phase: HsPhase::Commit,
                digest: digest(15),
                replica: ReplicaId::new(0, 3),
                sig: sig(9),
            },
            Message::StewardProposal {
                seq: 5,
                cert: cert(1, 2),
            },
            Message::StewardLocalAccept {
                seq: 5,
                digest: digest(16),
                replica: ReplicaId::new(1, 0),
                sig: sig(10),
            },
            Message::StewardAccept {
                seq: 5,
                cluster: ClusterId(2),
                digest: digest(17),
                sigs: vec![(ReplicaId::new(2, 0), sig(11))],
            },
            Message::Noop,
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        let msgs = exemplars();
        // Every Message variant must appear (a new variant without a
        // codec arm should fail here, not in production).
        let labels: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 22, "exemplar sweep must cover all variants");
        for m in &msgs {
            roundtrip(m);
        }
    }

    /// The frame bytes are a contract (other builds, captured traces and
    /// the bandwidth model all read them): SHA-256 over the concatenated
    /// frames of every exemplar, computed on the hand-written codec this
    /// table replaced. A failure means a tag, a field order or a width
    /// moved.
    #[test]
    fn exemplar_frames_are_pinned() {
        let from: NodeId = ReplicaId::new(2, 3).into();
        let to: NodeId = ClientId::new(1, 9).into();
        let pin = |msgs: Vec<Message>| {
            let mut out = Vec::new();
            for m in &msgs {
                encode_frame_into(&mut out, from, to, m);
            }
            Digest::of(&out).to_hex()
        };
        assert_eq!(
            pin(exemplars()),
            "9b71070e8133a8749331e19f3a0657c5ad2c6e830014194e7e6cd043d55596ad"
        );
        assert_eq!(
            pin(op_exemplars()),
            "5eeaf56e54603d8f09a238cf1c66c113a2d45b33ebc15b3bb2c0f8e845644e4e"
        );
    }

    /// A reply's shared outcomes change no byte and no JSON: they encode
    /// exactly as the `Vec<ExecOutcome>` they replaced, decode back to
    /// equal content, and a cloned reply shares them.
    #[test]
    fn outcomes_encode_as_the_vec_they_replace() {
        let reply = exemplars()
            .into_iter()
            .find_map(|m| match m {
                Message::Reply { data, .. } if !data.results.outcomes.is_empty() => Some(data),
                _ => None,
            })
            .expect("an exemplar reply with outcomes");
        let outcomes = &reply.results.outcomes;
        let bytes = encode(outcomes);
        assert_eq!(bytes, encode(&outcomes.to_vec()));
        assert_eq!(&decode::<Outcomes>(&bytes).unwrap(), outcomes);
        assert!(Outcomes::ptr_eq(&reply.clone().results.outcomes, outcomes));

        #[derive(Serialize)]
        struct VecEffect {
            outcomes: Vec<ExecOutcome>,
        }
        let plain = VecEffect {
            outcomes: outcomes.to_vec(),
        };
        let json = serde_json::to_string(&reply.results).unwrap();
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
        assert_eq!(
            serde_json::from_str::<TxnEffect>(&json).unwrap(),
            reply.results
        );
    }

    /// Requests covering every [`Operation`], [`TxnInstr`] and [`Cmp`]
    /// variant (the exemplars' batches are all writes).
    fn op_exemplars() -> Vec<Message> {
        let client = ClientId::new(0, 1);
        let every_cmp = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge]
            .into_iter()
            .map(|cmp| TxnInstr::BranchIf {
                a: 1,
                cmp,
                b: 2,
                skip: 3,
            });
        let ops = [
            Operation::Read { key: 3 },
            Operation::Rmw { key: 4, delta: 9 },
            Operation::Insert {
                key: 5,
                value: Value::from_u64(6),
            },
            Operation::Scan { key: 7, count: 11 },
            Operation::NoOp,
            Operation::Txn(TxnProgram::transfer_checked(1, 2, 30)),
            Operation::Txn(TxnProgram::new(
                [TxnInstr::Set { dst: 4, imm: 5 }]
                    .into_iter()
                    .chain(every_cmp)
                    .chain([TxnInstr::Abort { code: 77 }, TxnInstr::Halt])
                    .collect(),
            )),
        ];
        ops.into_iter()
            .enumerate()
            .map(|(i, op)| {
                Message::Request(SignedBatch {
                    batch: ClientBatch {
                        client,
                        batch_seq: i as u64,
                        txns: vec![Transaction { client, seq: 1, op }].into(),
                    },
                    pubkey: PublicKey::default(),
                    sig: Signature::default(),
                })
            })
            .collect()
    }

    #[test]
    fn txn_program_operations_roundtrip() {
        for m in &op_exemplars() {
            roundtrip(m);
        }
    }

    /// The acceptance criterion: PrePrepare / certificate / response
    /// frames land exactly at the `rdb_common::wire` model plus the
    /// documented fixed header.
    #[test]
    fn frame_sizes_match_wire_model() {
        let pp = Message::PrePrepare {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            batch: batch(100),
            digest: digest(0),
        };
        assert_eq!(
            frame_size(&pp),
            wire::preprepare_bytes(100) + FRAME_OVERHEAD
        );

        let share = Message::GlobalShare { cert: cert(100, 7) };
        assert_eq!(
            frame_size(&share),
            wire::HEADER_BYTES + wire::certificate_bytes(100, 7) + FRAME_OVERHEAD
        );

        let reply = Message::Reply {
            data: ReplyData {
                client: ClientId::new(0, 0),
                batch_seq: 0,
                seq: 1,
                block_height: 1,
                result_digest: digest(0),
                results: TxnEffect {
                    outcomes: vec![ExecOutcome::Done; 100].into(),
                },
                txns: 100,
            },
            view: 0,
        };
        assert_eq!(
            frame_size(&reply),
            wire::response_bytes(100) + FRAME_OVERHEAD
        );

        let prepare = Message::Prepare {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            digest: digest(0),
        };
        assert_eq!(frame_size(&prepare), wire::control_bytes() + FRAME_OVERHEAD);
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        for msg in exemplars() {
            let mut out = Vec::new();
            let from: NodeId = ReplicaId::new(0, 0).into();
            encode_frame_into(&mut out, from, from, &msg);
            let body = &out[4..];
            // Every strict prefix of the body must fail cleanly (the
            // padding region may decode fine at full payload length, so
            // stop before payload end).
            let payload_end = 18 + decode::<u32>(&body[14..18]).unwrap() as usize;
            for cut in 0..payload_end.min(body.len()) {
                assert!(
                    decode_frame_body(&body[..cut]).is_err(),
                    "prefix {cut} of {} decoded",
                    msg.label()
                );
            }
        }
    }

    #[test]
    fn corrupt_tags_error_not_panic() {
        let mut out = Vec::new();
        let from: NodeId = ReplicaId::new(0, 0).into();
        encode_frame_into(&mut out, from, from, &Message::Request(batch(2)));
        let body = out[4..].to_vec();
        // Flip every byte of the body in turn: decode must never panic,
        // and must either error or produce *some* message (a flipped
        // payload byte inside a value field legitimately decodes to a
        // different message).
        for i in 0..body.len() {
            let mut corrupt = body.clone();
            corrupt[i] ^= 0xFF;
            let _ = decode_frame_body(&corrupt);
        }
        // A bad message tag specifically must be a BadTag error.
        let mut corrupt = body.clone();
        corrupt[18] = 0xEE; // message tag right after from/to/payload_len
        assert!(matches!(
            decode_frame_body(&corrupt),
            Err(CodecError::BadTag {
                what: "message",
                ..
            })
        ));
        // A `Global` scope has one encoding: its cluster field is zero.
        let prepare = Message::Prepare {
            scope: Scope::Global,
            view: 1,
            seq: 2,
            digest: digest(3),
        };
        let mut payload = encode(&prepare);
        assert_eq!(decode(&payload), Ok(prepare));
        payload[2] = 7; // scope cluster, after message tag + scope tag
        assert_eq!(
            decode::<Message>(&payload),
            Err(CodecError::BadLength {
                what: "global scope cluster",
                claimed: 7,
            })
        );
    }

    /// `Vec<T>` must refuse any count the remaining bytes cannot hold at
    /// `T::MIN_BYTES` apiece — before allocating — and accept the largest
    /// count they can.
    fn count_guard<T: Wire + std::fmt::Debug>() {
        let room_for_three = vec![0u8; 3 * T::MIN_BYTES + T::MIN_BYTES / 2];
        for (count, refused) in [(u32::MAX, true), (4, true), (3, false)] {
            let mut buf = Vec::new();
            count.put(&mut buf);
            buf.extend_from_slice(&room_for_three);
            let got = decode::<Vec<T>>(&buf);
            let guard_fired = matches!(
                got,
                Err(CodecError::BadLength { claimed, .. }) if claimed == count as u64
            );
            assert_eq!(guard_fired, refused, "count {count}: {got:?}");
        }
    }

    #[test]
    fn oversized_counts_error_before_allocating() {
        // A Request frame claiming u32::MAX transactions but carrying
        // only a few bytes must be rejected by the length check.
        let mut body = Vec::new();
        NodeId::from(ReplicaId::new(0, 0)).put(&mut body);
        NodeId::from(ReplicaId::new(0, 1)).put(&mut body);
        let mut payload = Vec::new();
        payload.push(0u8); // Request
        ClientId::new(0, 0).put(&mut payload);
        1u64.put(&mut payload); // batch_seq
        u32::MAX.put(&mut payload); // txn count
        (payload.len() as u32).put(&mut body);
        body.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame_body(&body),
            Err(CodecError::BadLength { what, claimed })
                if what.ends_with("Transaction") && claimed == u32::MAX as u64
        ));

        // Every element type a message or block carries in a `Vec`.
        count_guard::<Transaction>();
        count_guard::<TxnInstr>();
        count_guard::<ExecOutcome>();
        count_guard::<CommitSig>();
        count_guard::<(ReplicaId, Signature)>();
        count_guard::<PreparedProof>();
        count_guard::<(u64, SignedBatch)>();
        // The hand-computed bounds the old decoder carried.
        assert_eq!(Transaction::MIN_BYTES, 15);
        assert_eq!(CommitSig::MIN_BYTES, 68);
        assert_eq!(SignedBatch::MIN_BYTES, 114);
        assert_eq!(PreparedProof::MIN_BYTES, 154);
        assert_eq!(<(u64, SignedBatch)>::MIN_BYTES, 122);
    }

    #[test]
    fn trailing_bytes_in_payload_error() {
        let mut out = Vec::new();
        let from: NodeId = ReplicaId::new(0, 0).into();
        encode_frame_into(&mut out, from, from, &Message::Noop);
        let mut body = out[4..].to_vec();
        // Claim the whole padded region as payload: Noop decodes, then
        // the padding is trailing garbage.
        let claimed = (body.len() - 18) as u32;
        body[14..18].copy_from_slice(&claimed.to_le_bytes());
        assert_eq!(decode_frame_body(&body), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn codec_buffer_is_reused() {
        let mut codec = WireCodec::new();
        let from: NodeId = ReplicaId::new(0, 0).into();
        let a = codec.encode_frame(from, from, &Message::Noop).to_vec();
        let big = Message::Request(batch(50));
        let _ = codec.encode_frame(from, from, &big);
        let b = codec.encode_frame(from, from, &Message::Noop).to_vec();
        assert_eq!(a, b, "reused buffer must not leak previous frames");
    }

    // Property: encode → decode is the identity over randomized
    // payload-heavy messages (batches of arbitrary ops, certificates,
    // replies with arbitrary outcome lists).
    fn arb_value() -> impl Strategy<Value = Value> {
        any::<u64>().prop_map(Value::from_u64)
    }

    fn arb_op() -> impl Strategy<Value = Operation> {
        prop_oneof![
            (any::<u64>(), arb_value()).prop_map(|(key, value)| Operation::Write { key, value }),
            any::<u64>().prop_map(|key| Operation::Read { key }),
            (any::<u64>(), any::<u64>()).prop_map(|(key, delta)| Operation::Rmw { key, delta }),
            (any::<u64>(), arb_value()).prop_map(|(key, value)| Operation::Insert { key, value }),
            (any::<u64>(), any::<u32>()).prop_map(|(key, count)| Operation::Scan { key, count }),
            Just(Operation::NoOp),
            (any::<u64>(), any::<u64>(), 1u64..1000)
                .prop_map(|(a, b, amt)| Operation::Txn(TxnProgram::transfer(a, b, amt))),
        ]
    }

    fn arb_batch() -> impl Strategy<Value = SignedBatch> {
        (
            (any::<u16>(), any::<u32>()),
            any::<u64>(),
            proptest::collection::vec(arb_op(), 0..8),
            any::<u8>(),
        )
            .prop_map(|((cluster, index), batch_seq, ops, sb)| {
                let client = ClientId::new(cluster, index);
                SignedBatch {
                    batch: ClientBatch {
                        client,
                        batch_seq,
                        txns: ops
                            .into_iter()
                            .enumerate()
                            .map(|(i, op)| Transaction {
                                client,
                                seq: i as u64,
                                op,
                            })
                            .collect(),
                    },
                    pubkey: PublicKey([sb; 32]),
                    sig: Signature([sb.wrapping_add(1); 64]),
                }
            })
    }

    fn arb_outcome() -> impl Strategy<Value = ExecOutcome> {
        prop_oneof![
            Just(ExecOutcome::Done),
            Just(ExecOutcome::ReadValue(None)),
            arb_value().prop_map(|v| ExecOutcome::ReadValue(Some(v))),
            any::<u64>().prop_map(ExecOutcome::Counter),
            any::<u32>().prop_map(ExecOutcome::Scanned),
            any::<u64>().prop_map(|ret| ExecOutcome::Txn(TxnOutcome::Committed { ret })),
            any::<u32>()
                .prop_map(|pc| ExecOutcome::Txn(TxnOutcome::Aborted(TxnAbort::Underflow { pc }))),
            (any::<u32>(), any::<u32>()).prop_map(|(code, pc)| ExecOutcome::Txn(
                TxnOutcome::Aborted(TxnAbort::Explicit { code, pc })
            )),
        ]
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            arb_batch().prop_map(Message::Request),
            arb_batch().prop_map(Message::Forward),
            (arb_batch(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(batch, view, seq, d)| Message::PrePrepare {
                    scope: if d % 2 == 0 {
                        Scope::Global
                    } else {
                        Scope::Cluster(ClusterId(d as u16))
                    },
                    view,
                    seq,
                    digest: batch.digest(),
                    batch,
                }
            ),
            (
                arb_batch(),
                proptest::collection::vec(arb_outcome(), 0..6),
                any::<u64>()
            )
                .prop_map(|(b, outcomes, view)| {
                    Message::Reply {
                        data: ReplyData {
                            client: b.batch.client,
                            batch_seq: b.batch.batch_seq,
                            seq: view.wrapping_add(1),
                            block_height: view.wrapping_add(2),
                            result_digest: b.digest(),
                            results: TxnEffect {
                                outcomes: outcomes.into(),
                            },
                            txns: b.batch.len() as u32,
                        },
                        view,
                    }
                }),
            (arb_batch(), 0usize..5, any::<u64>()).prop_map(|(batch, commits, round)| {
                Message::GlobalShare {
                    cert: CommitCertificate {
                        cluster: ClusterId(round as u16 % 7),
                        round,
                        digest: batch.digest(),
                        batch,
                        commits: (0..commits as u16)
                            .map(|i| CommitSig {
                                replica: ReplicaId::new(0, i),
                                sig: Signature([i as u8; 64]),
                            })
                            .collect(),
                    },
                }
            }),
            (arb_batch(), any::<u64>(), 0usize..4).prop_map(|(batch, v, n)| {
                Message::ViewChange {
                    scope: Scope::Global,
                    new_view: v,
                    stable_seq: v / 2,
                    prepared: (0..n as u64)
                        .map(|seq| PreparedProof {
                            seq,
                            digest: batch.digest(),
                            batch: batch.clone(),
                        })
                        .collect(),
                }
            }),
        ]
    }

    fn min_holds<T: Wire>(v: &T) -> bool {
        T::MIN_BYTES <= encode(v).len()
    }

    fn batch_min_holds(sb: &SignedBatch) -> bool {
        min_holds(sb)
            && min_holds(&sb.batch)
            && sb.batch.txns.iter().all(|t| {
                let instrs_hold = match &t.op {
                    Operation::Txn(p) => min_holds(p) && p.instrs.iter().all(min_holds),
                    _ => true,
                };
                min_holds(t) && min_holds(&t.op) && instrs_hold
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_decode_is_identity(msg in arb_message()) {
            let mut out = Vec::new();
            let from: NodeId = ReplicaId::new(1, 1).into();
            let to: NodeId = ReplicaId::new(0, 2).into();
            encode_frame_into(&mut out, from, to, &msg);
            prop_assert_eq!(out.len(), frame_size(&msg));
            let (f, t, decoded) = decode_frame_body(&out[4..]).unwrap();
            prop_assert_eq!(f, from);
            prop_assert_eq!(t, to);
            prop_assert_eq!(decoded, msg);
        }

        #[test]
        fn min_bytes_never_exceeds_an_encoding(msg in arb_message()) {
            prop_assert!(min_holds(&msg));
            match &msg {
                Message::Request(b)
                | Message::Forward(b)
                | Message::PrePrepare { batch: b, .. } => prop_assert!(batch_min_holds(b)),
                Message::Reply { data, .. } => {
                    prop_assert!(min_holds(data) && min_holds(&data.results));
                    prop_assert!(data.results.outcomes.iter().all(min_holds));
                }
                Message::GlobalShare { cert } => {
                    prop_assert!(min_holds(cert) && batch_min_holds(&cert.batch));
                    prop_assert!(cert.commits.iter().all(min_holds));
                }
                Message::ViewChange { prepared, .. } => {
                    let proof_holds = |p: &PreparedProof| min_holds(p) && batch_min_holds(&p.batch);
                    prop_assert!(prepared.iter().all(proof_holds));
                }
                other => prop_assert!(false, "arb_message grew {}", other.label()),
            }
        }

        /// A shared handle changes no byte: `Txns` encodes exactly as the
        /// `Vec<Transaction>` it replaced, and decodes back to equal content.
        #[test]
        fn txns_encode_as_the_vec_they_replace(sb in arb_batch()) {
            let txns = &sb.batch.txns;
            let bytes = encode(txns);
            prop_assert_eq!(&bytes, &encode(&txns.to_vec()));
            prop_assert_eq!(&decode::<Txns>(&bytes).unwrap(), txns);
        }

        /// A count the remaining bytes cannot hold fails before any
        /// allocation, with the `Vec<Transaction>` error.
        #[test]
        fn corrupt_txn_counts_fail_with_bad_length(sb in arb_batch(), over in any::<u32>()) {
            let mut bytes = encode(&sb.batch.txns);
            let room = (bytes.len() - 4) / Transaction::MIN_BYTES;
            let claimed = (room as u32 + 1).saturating_add(over % 1_000);
            bytes[..4].copy_from_slice(&claimed.to_le_bytes());
            let got = decode::<Txns>(&bytes);
            prop_assert!(
                matches!(
                    &got,
                    Err(CodecError::BadLength { what, claimed: c })
                        if what.ends_with("Transaction") && *c == u64::from(claimed)
                ),
                "{:?}", got
            );
        }

        /// serde sees the content too: the JSON of a batch is the JSON of
        /// the same fields with a plain `Vec`, and parses back.
        #[test]
        fn txns_json_is_the_vec_json(sb in arb_batch()) {
            #[derive(Serialize)]
            struct VecBatch {
                client: ClientId,
                batch_seq: u64,
                txns: Vec<Transaction>,
            }
            let b = &sb.batch;
            let plain = VecBatch { client: b.client, batch_seq: b.batch_seq, txns: b.txns.to_vec() };
            let json = serde_json::to_string(b).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&plain).unwrap());
            prop_assert_eq!(&serde_json::from_str::<ClientBatch>(&json).unwrap(), b);
        }

        /// Changing a clone copies it first: the original keeps its
        /// transactions and its digest.
        #[test]
        fn make_mut_leaves_the_shared_original(sb in arb_batch()) {
            let (digest, bytes) = (sb.digest(), encode(&sb));
            let mut forged = sb.clone();
            prop_assert!(Txns::ptr_eq(&forged.batch.txns, &sb.batch.txns));
            forged.batch.txns.make_mut().push(Transaction {
                client: sb.batch.client,
                seq: u64::MAX,
                op: Operation::NoOp,
            });
            prop_assert!(!Txns::ptr_eq(&forged.batch.txns, &sb.batch.txns));
            prop_assert_ne!(forged.digest(), digest);
            prop_assert_eq!(sb.digest(), digest);
            prop_assert_eq!(encode(&sb), bytes);
        }

        /// Owned iteration yields the transactions whether the handle is
        /// shared (a copy) or the last one (moved out, no copy).
        #[test]
        fn owned_iteration_over_shared_and_unique_handles(sb in arb_batch()) {
            let txns = sb.batch.txns;
            let expected = txns.to_vec();
            let shared = txns.clone();
            let from_shared: Vec<Transaction> = txns.into_iter().collect();
            prop_assert_eq!(&from_shared, &expected);
            prop_assert_eq!(&shared[..], &expected[..]);
            let buffer = shared.as_ptr();
            let unique = shared.into_iter();
            prop_assert!(expected.is_empty() || unique.as_slice().as_ptr() == buffer);
            prop_assert_eq!(unique.collect::<Vec<_>>(), expected);
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Arbitrary garbage must decode to Ok or Err, never panic.
            let _ = decode_frame_body(&bytes);
            let _ = decode::<Message>(&bytes);
        }
    }
}
