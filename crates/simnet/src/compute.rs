//! The per-node compute model.
//!
//! §3 of the paper: "throughput can be limited by waiting (e.g., due to
//! message latencies) or by computational costs (e.g., costs of signing
//! and verifying messages)". The simulator charges virtual time for both;
//! this module prices the compute side.
//!
//! Default costs approximate an 8-core Skylake VM running Crypto++
//! ED25519 / AES-CMAC / SHA-256 (§3 "Cryptography"), with a
//! `parallelism` factor modeling how much of the multi-threaded pipeline
//! (paper Figure 9) each protocol keeps busy. Absolute numbers need not
//! match the paper's testbed.

use rdb_consensus::messages::Message;
use serde::{Deserialize, Serialize};

/// Overload policy of the modeled bounded input queue — the virtual twin
/// of `resilientdb::queue::Overload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Overload {
    /// Admission never drops: messages over the bound simply wait for the
    /// verifier pool, and the wait is accounted as blocked time
    /// (`NetStats::blocked_wait`). Because the modeled pool is
    /// work-conserving and FIFO, Block changes *no* delivery schedule —
    /// it only makes the queueing observable — which is why it is the
    /// simulator default: figure reproductions are unaffected.
    Block,
    /// Mirror the fabric's shed-on-full input stage: droppable messages
    /// (per `Message::droppable`) arriving while the virtual queue is at
    /// capacity are dropped and counted (`NetStats::shed_msgs`);
    /// non-droppable client requests still wait. Opt in for saturation
    /// studies, as the fabric's overload tests do.
    Shed,
}

/// The modeled stage layout of a node's pipeline (paper Figure 9): how
/// many dedicated verifier threads check inbound signatures, whether
/// decisions execute on their own core instead of the ordering worker,
/// and the bound + overload policy of the virtual input queue.
/// Mirrors the real fabric's `resilientdb::pipeline::PipelineConfig`
/// (including its `queues.input` bound).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineModel {
    /// Parallel verifier threads (fan-out of the Verify stage).
    pub verifier_threads: usize,
    /// Model the execution stage's materialization (table apply + ledger
    /// append) on a dedicated core. Inline transaction execution stays on
    /// the worker either way — the state machines execute inside
    /// `on_message` to produce reply digests, in the real fabric too.
    pub dedicated_execution: bool,
    /// Capacity of the virtual input queue (messages admitted but whose
    /// verification has not yet started). `0` disables the bound — the
    /// pre-backpressure strawman whose unbounded growth the "Looking
    /// Glass" study documents.
    pub input_capacity: usize,
    /// What happens at the bound.
    pub input_overload: Overload,
    /// Decisions between pipeline checkpoints — the virtual twin of the
    /// fabric's `CheckpointConfig::interval`. At every boundary the
    /// engine charges [`ComputeModel::checkpoint_ns`] on the dedicated
    /// checkpoint horizon (off the worker's critical path, like the
    /// fabric's checkpoint thread) and compacts any tracked ledger to
    /// the boundary height. `0` (the default) disables the stage, so
    /// every pre-checkpoint figure reproduction is unchanged byte for
    /// byte.
    pub checkpoint_interval: u64,
    /// Key-sharded execution lanes of the modeled execute stage — the
    /// virtual twin of the fabric's `PipelineConfig::exec_lanes`. Each
    /// decision's materialization cost is split across the lanes its key
    /// footprint touches (`lane = key % lanes`, like the fabric), so
    /// key-disjoint batches advance independent lane horizons in
    /// parallel while same-key traffic serializes on one lane. `1` (the
    /// default) models the single execution thread and leaves every
    /// existing scenario unchanged byte for byte.
    pub exec_lanes: usize,
    /// Bound on in-flight materializations awaiting commit-order
    /// retirement — the virtual twin of the fabric's bounded execute
    /// queue, whose capacity doubles as the lane pool's reorder window
    /// `W`. When nonzero (and execution is dedicated), a worker that
    /// decides while `W` materializations are still in flight blocks
    /// until the oldest retires, the same backpressure the fabric's
    /// Block-policy exec queue applies. `0` (the default) leaves the
    /// stage ungated, preserving every pre-lane scenario byte for byte.
    pub exec_queue_capacity: usize,
}

impl Default for PipelineModel {
    /// Two modeled verifiers: what the real fabric's host-sized default
    /// (`cores / 4`, clamped to 1..=4) resolves to on the paper's 8-core
    /// N1 machines. The input bound is derived from the paper's batch
    /// size (100) and that fan-out via [`PipelineModel::input_capacity_for`],
    /// with the schedule-neutral [`Overload::Block`] policy.
    fn default() -> Self {
        PipelineModel {
            verifier_threads: 2,
            dedicated_execution: true,
            input_capacity: PipelineModel::input_capacity_for(100, 2),
            input_overload: Overload::Block,
            checkpoint_interval: 0,
            exec_lanes: 1,
            exec_queue_capacity: 0,
        }
    }
}

impl PipelineModel {
    /// A single-threaded pipeline: everything on the worker and an
    /// unbounded inbox (the paper's "Looking Glass" strawman, and the
    /// pre-staging behavior).
    pub fn single_threaded() -> PipelineModel {
        PipelineModel {
            verifier_threads: 0,
            dedicated_execution: false,
            input_capacity: 0,
            input_overload: Overload::Block,
            checkpoint_interval: 0,
            exec_lanes: 1,
            exec_queue_capacity: 0,
        }
    }

    /// A pipeline with `n` verifier threads and dedicated execution; the
    /// input bound is re-derived for that fan-out.
    pub fn with_verifiers(n: usize) -> PipelineModel {
        PipelineModel {
            verifier_threads: n,
            input_capacity: PipelineModel::input_capacity_for(100, n),
            ..PipelineModel::default()
        }
    }

    /// Override the input queue bound and policy.
    pub fn with_input_queue(mut self, capacity: usize, overload: Overload) -> PipelineModel {
        self.input_capacity = capacity;
        self.input_overload = overload;
        self
    }

    /// Enable the modeled checkpoint stage every `interval` decisions
    /// (the fabric's `DeploymentBuilder::checkpoint_interval` twin).
    pub fn with_checkpointing(mut self, interval: u64) -> PipelineModel {
        self.checkpoint_interval = interval;
        self
    }

    /// Model `lanes` key-sharded execution lanes (the fabric's
    /// `DeploymentBuilder::exec_lanes` twin), clamped to
    /// `1..=`[`rdb_store::MAX_LANES`] exactly as the fabric clamps.
    pub fn with_exec_lanes(mut self, lanes: usize) -> PipelineModel {
        self.exec_lanes = lanes.clamp(1, rdb_store::MAX_LANES);
        self
    }

    /// Bound the modeled execute stage at `capacity` in-flight
    /// materializations (the fabric's exec-queue bound, which doubles as
    /// the lane pool's reorder window). `0` disables the gate.
    pub fn with_exec_queue(mut self, capacity: usize) -> PipelineModel {
        self.exec_queue_capacity = capacity;
        self
    }

    /// The fabric's input-queue derivation (`StageQueues::derive` in
    /// `resilientdb`): `32 · fan-out` envelopes of consensus chatter plus
    /// `4 ·` batch size for request bursts, floor 64.
    pub fn input_capacity_for(batch_size: usize, verifier_threads: usize) -> usize {
        (32 * verifier_threads.max(1) + 4 * batch_size.max(1)).max(64)
    }
}

/// Per-node compute cost model (all times in nanoseconds of single-core
/// work; divide by `parallelism` for wall time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Effective pipeline parallelism of the node (cores kept busy).
    pub parallelism: f64,
    /// Stage layout: verifier fan-out and execution placement.
    pub pipeline: PipelineModel,
    /// Cost of producing a digital signature (ED25519 sign).
    pub sign_ns: u64,
    /// Cost of verifying a digital signature (ED25519 verify).
    pub verify_ns: u64,
    /// Cost of computing/checking a MAC (AES-CMAC stand-in).
    pub mac_ns: u64,
    /// Hashing/serialization cost per byte moved through the pipeline.
    pub per_byte_ns: f64,
    /// Fixed cost of receiving any message (dispatch, queues).
    pub recv_ns: u64,
    /// Fixed cost of emitting one message copy.
    pub send_ns: u64,
    /// Cost of executing one transaction against the store.
    pub exec_ns_per_txn: u64,
    /// Additional cost per transaction-program *instruction* (see
    /// `rdb_store::txn`): a program is charged `exec_ns_per_txn` as a
    /// transaction plus this per instruction executed conservatively
    /// (static instruction count). Zero for YCSB workloads, so paper
    /// reproductions are unaffected.
    pub exec_ns_per_instr: u64,
    /// Cost of one pipeline checkpoint (snapshot digest + certification
    /// bookkeeping + compaction), charged on the dedicated checkpoint
    /// horizon when [`PipelineModel::checkpoint_interval`] is nonzero.
    pub checkpoint_ns: u64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            parallelism: 1.6,
            pipeline: PipelineModel::default(),
            sign_ns: 30_000,
            verify_ns: 60_000,
            mac_ns: 1_000,
            per_byte_ns: 4.0,
            recv_ns: 8_000,
            send_ns: 6_000,
            exec_ns_per_txn: 2_000,
            // A register-machine instruction is a small fraction of a
            // whole YCSB query (hash probe + copy).
            exec_ns_per_instr: 250,
            // ~the cost of digesting and broadcasting one compact state
            // snapshot (a few signature-equivalents); only charged when
            // the modeled checkpoint stage is enabled.
            checkpoint_ns: 250_000,
        }
    }
}

impl ComputeModel {
    /// A model with a different parallelism factor (per-protocol pipeline
    /// calibration).
    pub fn with_parallelism(mut self, parallelism: f64) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Wall-clock nanoseconds for `work_ns` of single-core work.
    #[inline]
    pub fn wall(&self, work_ns: u64) -> u64 {
        (work_ns as f64 / self.parallelism) as u64
    }

    fn bytes_cost(&self, bytes: usize) -> u64 {
        (bytes as f64 * self.per_byte_ns) as u64
    }

    /// Single-core cost of the *Verify stage's* work on one copy of `msg`:
    /// the signature/MAC checks the message declares via
    /// [`Message::verification_cost`] (§3: threshold signatures are
    /// omitted, so certificates carry `n - f` individual signatures that
    /// each receiver checks). Charged on the modeled verifier pool.
    pub fn verify_cost(&self, msg: &Message) -> u64 {
        msg.verification_cost().ns(self.verify_ns, self.mac_ns)
    }

    /// Single-core cost of the *worker stage's* receive-side work on one
    /// copy of `msg`: dispatch, queue handling and deserialization.
    pub fn dispatch_cost(&self, msg: &Message) -> u64 {
        self.recv_ns + self.bytes_cost(msg.wire_size())
    }

    /// Total single-core cost of receiving and validating one copy of
    /// `msg` — the sum of the Verify and worker portions; what a
    /// single-threaded (unstaged) node would pay.
    pub fn receive_cost(&self, msg: &Message) -> u64 {
        self.dispatch_cost(msg) + self.verify_cost(msg)
    }

    /// Single-core cost of emitting one copy of `msg` (serialization +
    /// session MAC). Signing is charged once per *logical* message by the
    /// engine, not per copy.
    pub fn send_cost(&self, msg: &Message) -> u64 {
        self.send_ns + self.mac_ns + self.bytes_cost(msg.wire_size())
    }

    /// Whether emitting this message type involves producing a digital
    /// signature (charged once per logical message).
    pub fn signs_on_send(msg: &Message) -> bool {
        matches!(
            msg,
            Message::Request(_)
                | Message::Commit { .. }
                | Message::Rvc { .. }
                | Message::SpecResponse { .. }
                | Message::HsVote { .. }
                | Message::StewardLocalAccept { .. }
        )
    }

    /// Cost of executing `txns` transactions.
    pub fn exec_cost(&self, txns: usize) -> u64 {
        self.exec_ns_per_txn * txns as u64
    }

    /// Cost of executing one decision: its transactions plus the
    /// register-machine instructions of any transaction programs they
    /// carry. Equals [`ComputeModel::exec_cost`] for program-free
    /// batches, keeping YCSB reproductions byte-identical.
    pub fn exec_cost_decision(&self, txns: usize, program_instrs: usize) -> u64 {
        self.exec_cost(txns) + self.exec_ns_per_instr * program_instrs as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::{ClusterId, ReplicaId};
    use rdb_consensus::certificate::{CommitCertificate, CommitSig};
    use rdb_consensus::types::SignedBatch;
    use rdb_crypto::digest::Digest;
    use rdb_crypto::sign::Signature;

    fn model() -> ComputeModel {
        ComputeModel::default()
    }

    #[test]
    fn certificate_cost_scales_with_commit_count() {
        let m = model();
        let cert = |k: usize| {
            let batch = SignedBatch::noop(ClusterId(0), 1);
            Message::GlobalShare {
                cert: CommitCertificate {
                    cluster: ClusterId(0),
                    round: 1,
                    digest: batch.digest(),
                    batch,
                    commits: (0..k as u16)
                        .map(|i| CommitSig {
                            replica: ReplicaId::new(0, i),
                            sig: Signature::default(),
                        })
                        .collect(),
                },
            }
        };
        let small = m.receive_cost(&cert(3));
        let large = m.receive_cost(&cert(11));
        assert!(large > small + 7 * m.verify_ns);
    }

    #[test]
    fn control_messages_are_cheap() {
        let m = model();
        let prepare = Message::Prepare {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
        };
        let commit = Message::Commit {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
            sig: Signature::default(),
        };
        // A commit costs one signature verification more than a prepare.
        assert_eq!(
            m.receive_cost(&commit) - m.receive_cost(&prepare),
            m.verify_ns
        );
    }

    #[test]
    fn parallelism_divides_wall_time() {
        let m = model().with_parallelism(2.0);
        assert_eq!(m.wall(10_000), 5_000);
    }

    #[test]
    fn signing_message_classification() {
        let commit = Message::Commit {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
            sig: Signature::default(),
        };
        assert!(ComputeModel::signs_on_send(&commit));
        let prepare = Message::Prepare {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
        };
        assert!(!ComputeModel::signs_on_send(&prepare));
    }

    #[test]
    fn exec_cost_linear() {
        let m = model();
        assert_eq!(m.exec_cost(100), 100 * m.exec_ns_per_txn);
    }

    #[test]
    fn receive_cost_is_verify_plus_dispatch() {
        let m = model();
        let commit = Message::Commit {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
            sig: Signature::default(),
        };
        assert_eq!(
            m.receive_cost(&commit),
            m.verify_cost(&commit) + m.dispatch_cost(&commit)
        );
        // The verify portion follows the message's declared cost exactly.
        assert_eq!(m.verify_cost(&commit), m.verify_ns + m.mac_ns);
    }

    #[test]
    fn pipeline_model_presets() {
        let single = PipelineModel::single_threaded();
        assert_eq!(single.verifier_threads, 0);
        assert!(!single.dedicated_execution);
        assert_eq!(single.input_capacity, 0, "strawman is unbounded");
        let wide = PipelineModel::with_verifiers(4);
        assert_eq!(wide.verifier_threads, 4);
        assert!(wide.dedicated_execution);
        assert_eq!(ComputeModel::default().pipeline, PipelineModel::default());
        // Execution lanes default to the single-thread model with no gate.
        assert_eq!(single.exec_lanes, 1);
        assert_eq!(wide.exec_lanes, 1);
        assert_eq!(wide.exec_queue_capacity, 0);
    }

    #[test]
    fn exec_lane_builders_clamp_like_the_fabric() {
        let m = PipelineModel::default()
            .with_exec_lanes(4)
            .with_exec_queue(8);
        assert_eq!(m.exec_lanes, 4);
        assert_eq!(m.exec_queue_capacity, 8);
        assert_eq!(PipelineModel::default().with_exec_lanes(0).exec_lanes, 1);
        assert_eq!(
            PipelineModel::default().with_exec_lanes(10_000).exec_lanes,
            rdb_store::MAX_LANES
        );
        // The lane fields ride the model's serde round-trip like every
        // other stage knob.
        let json = serde_json::to_string(&m).unwrap();
        let back: PipelineModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn input_capacity_mirrors_fabric_derivation() {
        // Same formula as resilientdb's StageQueues::derive.
        assert_eq!(PipelineModel::input_capacity_for(1, 1), 64, "floor");
        assert_eq!(PipelineModel::input_capacity_for(100, 2), 464);
        assert_eq!(
            PipelineModel::default().input_capacity,
            PipelineModel::input_capacity_for(100, 2)
        );
        assert!(
            PipelineModel::with_verifiers(4).input_capacity
                > PipelineModel::with_verifiers(1).input_capacity
        );
        let q = PipelineModel::default().with_input_queue(8, Overload::Shed);
        assert_eq!(q.input_capacity, 8);
        assert_eq!(q.input_overload, Overload::Shed);
    }
}
