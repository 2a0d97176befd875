//! The reusable PBFT engine.
//!
//! §2.2 of the paper: "GeoBFT relies on Pbft, a primary-backup protocol in
//! which one replica acts as the primary, while all the other replicas act
//! as backups", with the three normal-case phases (pre-prepare, prepare,
//! commit), checkpoints, and local view-changes.
//!
//! This module implements that engine once, parameterized by a
//! [`Scope`] — the member set it runs over:
//!
//! * `Scope::Global` — all `z·n` replicas: plain PBFT (the baseline in
//!   every figure of the paper);
//! * `Scope::Cluster(c)` — the `n` replicas of cluster `c`: the local
//!   replication step of GeoBFT (§2.2) and Steward's primary-cluster
//!   agreement.
//!
//! The engine is sans-io like everything else: it emits sends/timers into
//! an [`Outbox`] and reports state transitions as [`CoreEvent`]s that the
//! embedding protocol interprets (plain PBFT executes; GeoBFT builds a
//! commit certificate and starts inter-cluster sharing).

use crate::api::{Outbox, TimerKind};
use crate::certificate::{commit_payload, CommitSig};
use crate::checkpoint::CheckpointTracker;
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::messages::{Message, PreparedProof, Scope};
use crate::types::SignedBatch;
use rdb_common::ids::{ClusterId, ReplicaId};
use rdb_common::time::SimDuration;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// State transitions surfaced to the embedding protocol.
#[derive(Debug, Clone)]
pub enum CoreEvent {
    /// An instance gathered `n - f` commits: the batch is locally
    /// replicated. `commits` are exactly `n - f` signed commit votes
    /// (sorted by replica index), i.e. the material of a commit
    /// certificate.
    Committed {
        /// The sequence number (GeoBFT: the round).
        seq: u64,
        /// The replicated batch.
        batch: SignedBatch,
        /// The batch's digest, as the pre-prepare bound it (checked at the
        /// input edge, or computed by this primary when it proposed).
        digest: Digest,
        /// `n - f` commit signatures.
        commits: Vec<CommitSig>,
    },
    /// A view change completed and `view` is installed.
    ViewInstalled {
        /// The new view.
        view: u64,
    },
    /// A checkpoint became stable; the log below `seq` was pruned.
    CheckpointStable {
        /// The stable sequence number.
        seq: u64,
    },
}

/// The signing payload for a commit vote in this scope. Cluster scopes use
/// the real cluster id so votes aggregate into inter-cluster certificates;
/// the global scope uses a reserved tag.
pub fn scoped_commit_payload(scope: Scope, seq: u64, digest: &Digest) -> Vec<u8> {
    let cluster = match scope {
        Scope::Cluster(c) => c,
        Scope::Global => ClusterId(u16::MAX),
    };
    commit_payload(cluster, seq, digest)
}

/// Per-sequence-number consensus state.
#[derive(Debug, Default)]
struct Instance {
    /// View the pre-prepare was accepted in.
    view: u64,
    digest: Option<Digest>,
    batch: Option<SignedBatch>,
    /// Prepare votes, keyed by digest (votes may arrive before the
    /// pre-prepare).
    prepares: HashMap<Digest, HashSet<ReplicaId>>,
    /// Commit votes with their signatures, keyed by digest.
    commits: HashMap<Digest, BTreeMap<ReplicaId, Signature>>,
    preprepared: bool,
    prepared: bool,
    committed: bool,
}

/// A received view-change vote.
#[derive(Debug, Clone)]
struct VcVote {
    stable_seq: u64,
    prepared: Vec<PreparedProof>,
}

/// The PBFT engine for one replica within one scope.
pub struct PbftCore {
    scope: Scope,
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    members: Vec<ReplicaId>,
    n: usize,
    f: usize,

    view: u64,
    in_view_change: bool,
    /// The view we are currently voting for (>= view + 1 during a change).
    vc_target: u64,

    insts: BTreeMap<u64, Instance>,
    /// Checkpoint certification (quorum tracking and the stable
    /// watermark); sequence numbers <= its stable seq are pruned.
    ckpt: CheckpointTracker,
    /// Primary: next sequence number to assign.
    next_propose: u64,
    /// Primary: queued client batches awaiting proposal.
    pending: VecDeque<SignedBatch>,
    /// Backup: requests we forwarded to the primary and still await, by
    /// digest. Non-empty => progress timer armed.
    awaiting: HashMap<Digest, SignedBatch>,

    /// View-change votes: target view -> voter -> vote.
    vc_votes: BTreeMap<u64, HashMap<ReplicaId, VcVote>>,
    /// Progress timer bookkeeping.
    timer_armed: bool,
    current_timeout: SimDuration,
}

impl PbftCore {
    /// Create the engine for `id` within `scope`.
    pub fn new(scope: Scope, cfg: ProtocolConfig, id: ReplicaId, crypto: CryptoCtx) -> PbftCore {
        let members: Vec<ReplicaId> = match scope {
            Scope::Global => cfg.system.all_replicas().collect(),
            Scope::Cluster(c) => cfg.system.replicas_of(c).collect(),
        };
        let (n, f) = match scope {
            Scope::Global => (cfg.global_n(), cfg.global_f()),
            Scope::Cluster(_) => (cfg.system.n(), cfg.system.f()),
        };
        debug_assert!(members.contains(&id));
        let timeout = cfg.progress_timeout;
        let ckpt = CheckpointTracker::new(n - f);
        PbftCore {
            scope,
            cfg,
            id,
            crypto,
            members,
            n,
            f,
            view: 0,
            in_view_change: false,
            vc_target: 0,
            insts: BTreeMap::new(),
            ckpt,
            next_propose: 1,
            pending: VecDeque::new(),
            awaiting: HashMap::new(),
            vc_votes: BTreeMap::new(),
            timer_armed: false,
            current_timeout: timeout,
        }
    }

    /// Strong quorum `n - f` for this scope.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Last stable checkpoint sequence.
    pub fn stable_seq(&self) -> u64 {
        self.ckpt.stable_seq()
    }

    /// The primary of view `v` within this scope's member list.
    pub fn primary_of(&self, v: u64) -> ReplicaId {
        self.members[(v % self.n as u64) as usize]
    }

    /// The current primary.
    pub fn primary(&self) -> ReplicaId {
        self.primary_of(self.view)
    }

    /// Is this replica the current primary?
    pub fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// Next sequence number the primary will assign.
    pub fn next_propose(&self) -> u64 {
        self.next_propose
    }

    fn scope_matches(&self, scope: Scope) -> bool {
        scope == self.scope
    }

    fn is_member(&self, r: ReplicaId) -> bool {
        match self.scope {
            Scope::Global => self.cfg.system.contains(r),
            Scope::Cluster(c) => r.cluster == c && self.cfg.system.contains(r),
        }
    }

    fn inst(&mut self, seq: u64) -> &mut Instance {
        self.insts.entry(seq).or_default()
    }

    // ------------------------------------------------------------------
    // Request intake (primary path)
    // ------------------------------------------------------------------

    /// Queue a client batch at the primary and propose as the window
    /// allows. Called by the embedder for `Request`/`Forward` messages
    /// that reach the current primary and that its
    /// [`crate::exec::CommitTail::admit`] admitted. Non-primaries should
    /// use [`PbftCore::track_forwarded`] instead.
    pub fn enqueue_request(&mut self, sb: SignedBatch, out: &mut Outbox) {
        self.pending.push_back(sb);
        self.try_propose(out);
    }

    /// GeoBFT §2.5: if this primary has nothing to propose for `round` but
    /// remote clusters are already working on it, propose a no-op so the
    /// round can complete. Returns true if a no-op was proposed.
    pub fn propose_noop_if_idle(&mut self, round: u64, out: &mut Outbox) -> bool {
        if !self.is_primary() || self.in_view_change {
            return false;
        }
        if !self.pending.is_empty() || self.next_propose != round {
            return false;
        }
        let cluster = match self.scope {
            Scope::Cluster(c) => c,
            Scope::Global => ClusterId(u16::MAX),
        };
        self.pending.push_back(SignedBatch::noop(cluster, round));
        self.try_propose(out);
        true
    }

    /// Track a request this backup forwarded to the primary; arms the
    /// progress timer that backs the view-change path.
    pub fn track_forwarded(&mut self, sb: SignedBatch, out: &mut Outbox) {
        let d = sb.digest();
        let newly = self.awaiting.insert(d, sb).is_none();
        if newly {
            self.ensure_timer(out);
        }
    }

    fn try_propose(&mut self, out: &mut Outbox) {
        if !self.is_primary() || self.in_view_change {
            return;
        }
        let high_water = self.stable_seq() + self.cfg.window;
        while self.next_propose <= high_water {
            let Some(sb) = self.pending.pop_front() else {
                break;
            };
            let seq = self.next_propose;
            self.next_propose += 1;
            let digest = sb.digest();
            let msg = Message::PrePrepare {
                scope: self.scope,
                view: self.view,
                seq,
                batch: sb,
                digest,
            };
            out.multicast(self.members.iter().copied(), &msg);
        }
    }

    // ------------------------------------------------------------------
    // Normal-case three-phase protocol
    // ------------------------------------------------------------------

    /// Handle a pre-prepare.
    // The parameters mirror the wire message's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub fn on_preprepare(
        &mut self,
        from: ReplicaId,
        scope: Scope,
        view: u64,
        seq: u64,
        batch: SignedBatch,
        digest: Digest,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        if !self.scope_matches(scope) || self.in_view_change || view != self.view {
            return vec![];
        }
        if from != self.primary_of(view) {
            return vec![];
        }
        if seq <= self.stable_seq() || seq > self.stable_seq() + self.cfg.window {
            return vec![];
        }
        {
            let inst = self.inst(seq);
            if inst.preprepared {
                // Only re-send our prepare for the identical proposal; a
                // conflicting proposal from the primary is ignored (and
                // will starve the primary into a view change).
                if inst.digest != Some(digest) {
                    return vec![];
                }
            } else {
                inst.preprepared = true;
                inst.view = view;
                inst.digest = Some(digest);
                inst.batch = Some(batch);
            }
        }
        // Keep the primary honest about proposal numbering it observed.
        if self.next_propose <= seq {
            self.next_propose = seq + 1;
        }
        let msg = Message::Prepare {
            scope: self.scope,
            view,
            seq,
            digest,
        };
        out.multicast(self.members.iter().copied(), &msg);
        self.ensure_timer(out);
        self.check_progress(seq, out)
    }

    /// Handle a prepare vote.
    pub fn on_prepare(
        &mut self,
        from: ReplicaId,
        scope: Scope,
        view: u64,
        seq: u64,
        digest: Digest,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        if !self.scope_matches(scope) || view != self.view || self.in_view_change {
            return vec![];
        }
        if !self.is_member(from) || seq <= self.stable_seq() {
            return vec![];
        }
        self.inst(seq)
            .prepares
            .entry(digest)
            .or_default()
            .insert(from);
        self.check_progress(seq, out)
    }

    /// Handle a (signed) commit vote.
    // The parameters mirror the wire message's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub fn on_commit(
        &mut self,
        from: ReplicaId,
        scope: Scope,
        view: u64,
        seq: u64,
        digest: Digest,
        sig: Signature,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        if !self.scope_matches(scope) || !self.is_member(from) || seq <= self.stable_seq() {
            return vec![];
        }
        // Commits are accepted across views: the signature binds only
        // (scope, seq, digest), so votes from an older view still count
        // toward the certificate (Lemma 2.3 gives digest uniqueness).
        let _ = view;
        self.inst(seq)
            .commits
            .entry(digest)
            .or_default()
            .insert(from, sig);
        self.check_progress(seq, out)
    }

    /// Advance an instance through prepared/committed as votes allow.
    fn check_progress(&mut self, seq: u64, out: &mut Outbox) -> Vec<CoreEvent> {
        let quorum = self.quorum();
        let scope = self.scope;
        let view = self.view;

        let Some(inst) = self.insts.get_mut(&seq) else {
            return vec![];
        };
        if !inst.preprepared || inst.committed {
            return vec![];
        }
        let digest = inst.digest.expect("preprepared implies digest");

        let mut events = Vec::new();

        if !inst.prepared && inst.prepares.get(&digest).map_or(0, |s| s.len()) >= quorum {
            inst.prepared = true;
            let payload = scoped_commit_payload(scope, seq, &digest);
            let sig = self.crypto.sign(&payload);
            let msg = Message::Commit {
                scope,
                view,
                seq,
                digest,
                sig,
            };
            out.multicast(self.members.iter().copied(), &msg);
        }

        let inst = self.insts.get_mut(&seq).expect("still present");
        if inst.prepared
            && !inst.committed
            && inst.commits.get(&digest).map_or(0, |m| m.len()) >= quorum
        {
            inst.committed = true;
            let batch = inst.batch.clone().expect("preprepared implies batch");
            // Deterministically take the quorum lowest-index votes so all
            // replicas build identical-size certificates (the paper's
            // 6.4 kB figure assumes exactly n - f commits).
            let commits: Vec<CommitSig> = inst.commits[&digest]
                .iter()
                .take(quorum)
                .map(|(r, s)| CommitSig {
                    replica: *r,
                    sig: *s,
                })
                .collect();
            self.awaiting.remove(&digest);
            events.push(CoreEvent::Committed {
                seq,
                batch,
                digest,
                commits,
            });
            // Progress was made: give the remaining work a fresh timeout.
            self.reset_timeout();
            self.ensure_timer(out);
        }
        events
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    /// The embedder executed up to `seq` and took a state snapshot; gossip
    /// it so the group can establish a stable checkpoint (and prune).
    pub fn record_checkpoint(&mut self, seq: u64, state: Digest, out: &mut Outbox) {
        if !self.ckpt.record_own(seq, state) {
            return;
        }
        let msg = Message::Checkpoint {
            scope: self.scope,
            seq,
            state,
        };
        out.multicast(self.members.iter().copied(), &msg);
    }

    /// Handle a checkpoint vote.
    pub fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        scope: Scope,
        seq: u64,
        state: Digest,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        if !self.scope_matches(scope) || !self.is_member(from) {
            return vec![];
        }
        if let Some(stable) = self.ckpt.on_vote(from, seq, state) {
            self.prune_below(stable.seq);
            self.try_propose(out);
            return vec![CoreEvent::CheckpointStable { seq: stable.seq }];
        }
        vec![]
    }

    fn make_stable(&mut self, seq: u64) {
        if seq <= self.stable_seq() {
            return;
        }
        // A stability learned through a new-view message carries no state
        // digest of its own; the tracker only needs the watermark.
        self.ckpt.force_stable(seq, Digest::ZERO);
        self.prune_below(seq);
    }

    /// Drop consensus state the stable checkpoint `seq` covers.
    fn prune_below(&mut self, seq: u64) {
        if self.next_propose <= seq {
            self.next_propose = seq + 1;
        }
        self.insts.retain(|s, _| *s > seq);
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    /// Arm the progress timer if pending work exists and it is not armed.
    fn ensure_timer(&mut self, out: &mut Outbox) {
        let pending = self.has_pending_work();
        if pending && !self.timer_armed {
            self.timer_armed = true;
            out.set_timer(TimerKind::Progress, self.current_timeout);
        } else if !pending && self.timer_armed {
            self.timer_armed = false;
            out.cancel_timer(TimerKind::Progress);
        } else if pending && self.timer_armed {
            // Re-arm to push the deadline out after progress.
            out.set_timer(TimerKind::Progress, self.current_timeout);
        }
    }

    fn reset_timeout(&mut self) {
        self.current_timeout = self.cfg.progress_timeout;
    }

    fn has_pending_work(&self) -> bool {
        if self.in_view_change {
            return true;
        }
        if !self.awaiting.is_empty() {
            return true;
        }
        self.insts.values().any(|i| i.preprepared && !i.committed)
    }

    /// The progress timer fired: no progress within the timeout. Start (or
    /// escalate) a view change. The embedder routes
    /// [`TimerKind::Progress`] here. GeoBFT's remote view-change protocol
    /// calls [`PbftCore::force_view_change`] instead.
    pub fn on_progress_timeout(&mut self, out: &mut Outbox) {
        if !self.has_pending_work() {
            self.timer_armed = false;
            return;
        }
        self.force_view_change(out);
    }

    /// Vote to replace the current primary (§2.2 "local view-changes" /
    /// Figure 7 line 17 "detect failure of P_C1").
    pub fn force_view_change(&mut self, out: &mut Outbox) {
        let target = if self.in_view_change {
            self.vc_target + 1 // escalate past a stalled change
        } else {
            self.view + 1
        };
        self.vote_view_change(target, out);
    }

    fn vote_view_change(&mut self, target: u64, out: &mut Outbox) {
        self.in_view_change = true;
        self.vc_target = target;
        // Exponential back-off on repeated changes.
        self.current_timeout = self.current_timeout.doubled();
        self.timer_armed = true;
        out.set_timer(TimerKind::Progress, self.current_timeout);

        let prepared: Vec<PreparedProof> = self
            .insts
            .iter()
            .filter(|(_, i)| i.prepared)
            .map(|(seq, i)| PreparedProof {
                seq: *seq,
                digest: i.digest.expect("prepared implies digest"),
                batch: i.batch.clone().expect("prepared implies batch"),
            })
            .collect();
        let msg = Message::ViewChange {
            scope: self.scope,
            new_view: target,
            stable_seq: self.stable_seq(),
            prepared,
        };
        out.multicast(self.members.iter().copied(), &msg);
    }

    /// Handle a view-change vote.
    pub fn on_view_change(
        &mut self,
        from: ReplicaId,
        scope: Scope,
        new_view: u64,
        stable_seq: u64,
        prepared: Vec<PreparedProof>,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        if !self.scope_matches(scope) || !self.is_member(from) || new_view <= self.view {
            return vec![];
        }
        self.vc_votes.entry(new_view).or_default().insert(
            from,
            VcVote {
                stable_seq,
                prepared,
            },
        );

        let votes = &self.vc_votes[&new_view];

        // Join rule: f + 1 distinct replicas voting for a higher view than
        // we are targeting means at least one non-faulty replica timed
        // out; join them so the change completes.
        let join_threshold = self.f + 1;
        if votes.len() >= join_threshold && (!self.in_view_change || self.vc_target < new_view) {
            self.vote_view_change(new_view, out);
        }

        // New-primary rule: the primary of `new_view` installs it after a
        // strong quorum of votes.
        let votes = &self.vc_votes[&new_view];
        if self.primary_of(new_view) == self.id && votes.len() >= self.quorum() {
            return self.install_as_primary(new_view, out);
        }
        vec![]
    }

    fn install_as_primary(&mut self, new_view: u64, out: &mut Outbox) -> Vec<CoreEvent> {
        let votes = self.vc_votes.remove(&new_view).unwrap_or_default();
        let max_stable = votes
            .values()
            .map(|v| v.stable_seq)
            .max()
            .unwrap_or_default()
            .max(self.stable_seq());

        // Union of prepared instances above the stable point. PBFT safety
        // (Lemma 2.3) guarantees at most one digest per seq among correct
        // votes; conflicts cannot gather quorums, so first-wins is safe.
        let mut chosen: BTreeMap<u64, SignedBatch> = BTreeMap::new();
        for vote in votes.values() {
            for p in &vote.prepared {
                if p.seq > max_stable {
                    chosen.entry(p.seq).or_insert_with(|| p.batch.clone());
                }
            }
        }
        // Fill gaps with no-ops so the sequence space stays dense.
        let max_seq = chosen.keys().max().copied().unwrap_or(max_stable);
        let noop_cluster = match self.scope {
            Scope::Cluster(c) => c,
            Scope::Global => ClusterId(u16::MAX),
        };
        for seq in (max_stable + 1)..=max_seq {
            chosen
                .entry(seq)
                .or_insert_with(|| SignedBatch::noop(noop_cluster, seq));
        }

        let preprepares: Vec<(u64, SignedBatch)> = chosen.into_iter().collect();
        let msg = Message::NewView {
            scope: self.scope,
            view: new_view,
            preprepares: preprepares.clone(),
            stable_seq: max_stable,
        };
        out.multicast(self.members.iter().copied(), &msg);
        // Install locally through the same path as everyone else (we will
        // receive our own NewView); nothing else to do here.
        vec![]
    }

    /// Handle a new-view installation.
    pub fn on_new_view(
        &mut self,
        from: ReplicaId,
        scope: Scope,
        view: u64,
        preprepares: Vec<(u64, SignedBatch)>,
        stable_seq: u64,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        if !self.scope_matches(scope) || view < self.view {
            return vec![];
        }
        if from != self.primary_of(view) {
            return vec![];
        }
        if view == self.view && !self.in_view_change {
            return vec![]; // already installed
        }

        self.view = view;
        self.in_view_change = false;
        self.vc_target = view;
        self.make_stable(stable_seq);
        self.vc_votes.retain(|v, _| *v > view);
        self.reset_timeout();

        let mut events = vec![CoreEvent::ViewInstalled { view }];

        // Treat the re-proposals as fresh pre-prepares in the new view.
        let mut max_seq = self.stable_seq();
        for (seq, batch) in preprepares {
            max_seq = max_seq.max(seq);
            let digest = batch.digest();
            if seq <= self.stable_seq() {
                continue;
            }
            let committed = {
                let inst = self.inst(seq);
                if inst.committed {
                    true
                } else {
                    inst.preprepared = true;
                    inst.view = view;
                    inst.digest = Some(digest);
                    inst.batch = Some(batch);
                    // Re-run the prepare->commit phases in the new view so
                    // the (possibly lost) commit broadcast is re-sent.
                    // Collected votes are kept: prepare votes match on
                    // (seq, digest) and commit signatures bind (scope,
                    // seq, digest) independent of the view.
                    inst.prepared = false;
                    false
                }
            };
            if !committed {
                let msg = Message::Prepare {
                    scope: self.scope,
                    view,
                    seq,
                    digest,
                };
                out.multicast(self.members.iter().copied(), &msg);
                events.extend(self.check_progress(seq, out));
            }
        }
        if self.next_propose <= max_seq {
            self.next_propose = max_seq + 1;
        }
        self.ensure_timer(out);
        // The new primary resumes proposing queued requests.
        self.try_propose(out);
        events
    }

    /// Dispatch any PBFT-core message to the right handler. Non-core
    /// messages (client path, GeoBFT global messages, ...) are ignored —
    /// embedders handle those themselves. Like every handler here, it
    /// expects a message that passed
    /// [`crate::stage::VerifiedMessage::check`]: signatures and digest
    /// bindings are not re-checked.
    pub fn handle_message(
        &mut self,
        from: ReplicaId,
        msg: Message,
        out: &mut Outbox,
    ) -> Vec<CoreEvent> {
        match msg {
            Message::PrePrepare {
                scope,
                view,
                seq,
                batch,
                digest,
            } => self.on_preprepare(from, scope, view, seq, batch, digest, out),
            Message::Prepare {
                scope,
                view,
                seq,
                digest,
            } => self.on_prepare(from, scope, view, seq, digest, out),
            Message::Commit {
                scope,
                view,
                seq,
                digest,
                sig,
            } => self.on_commit(from, scope, view, seq, digest, sig, out),
            Message::Checkpoint { scope, seq, state } => {
                self.on_checkpoint(from, scope, seq, state, out)
            }
            Message::ViewChange {
                scope,
                new_view,
                stable_seq,
                prepared,
            } => self.on_view_change(from, scope, new_view, stable_seq, prepared, out),
            Message::NewView {
                scope,
                view,
                preprepares,
                stable_seq,
            } => self.on_new_view(from, scope, view, preprepares, stable_seq, out),
            _ => vec![],
        }
    }
}

impl std::fmt::Debug for PbftCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PbftCore")
            .field("scope", &self.scope)
            .field("id", &self.id)
            .field("view", &self.view)
            .field("stable_seq", &self.stable_seq())
            .field("in_view_change", &self.in_view_change)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{route_core_messages, TestCluster};
    use rdb_common::config::SystemConfig;

    impl PbftCore {
        /// Whether the instance at `seq` committed.
        fn is_committed(&self, seq: u64) -> bool {
            self.insts
                .get(&seq)
                .map_or(seq <= self.stable_seq(), |i| i.committed)
        }
    }

    fn cluster() -> TestCluster {
        TestCluster::new(4)
    }

    #[test]
    fn normal_case_commits_on_all_replicas() {
        let mut tc = cluster();
        let batch = tc.signed_batch(0, 0, 3);
        let mut out = Outbox::new();
        tc.cores[0].enqueue_request(batch.clone(), &mut out);
        let events = route_core_messages(&mut tc, out);
        let committed: Vec<_> = events
            .iter()
            .filter(|(_, e)| matches!(e, CoreEvent::Committed { .. }))
            .collect();
        assert_eq!(committed.len(), 4, "all four replicas commit");
        for (_, e) in committed {
            if let CoreEvent::Committed {
                seq,
                batch: b,
                digest,
                commits,
            } = e
            {
                assert_eq!(*seq, 1);
                assert_eq!(b.digest(), batch.digest());
                assert_eq!(*digest, batch.digest());
                assert_eq!(commits.len(), 3); // n - f = 3
            }
        }
    }

    #[test]
    fn commits_carry_verifiable_certificate_material() {
        let mut tc = cluster();
        let batch = tc.signed_batch(0, 0, 1);
        let mut out = Outbox::new();
        tc.cores[0].enqueue_request(batch, &mut out);
        let events = route_core_messages(&mut tc, out);
        let (
            _,
            CoreEvent::Committed {
                seq,
                batch,
                digest,
                commits,
            },
        ) = events
            .iter()
            .find(|(_, e)| matches!(e, CoreEvent::Committed { .. }))
            .expect("committed")
        else {
            unreachable!()
        };
        // Assemble a certificate and verify it end-to-end.
        let cert = crate::certificate::CommitCertificate {
            cluster: rdb_common::ids::ClusterId(0),
            round: *seq,
            digest: *digest,
            batch: batch.clone(),
            commits: commits.clone(),
        };
        let cfg = SystemConfig::geo(1, 4).unwrap();
        assert!(cert.verify(&cfg, &tc.cryptos[1]));
    }

    #[test]
    fn backup_ignores_preprepare_from_non_primary() {
        let mut tc = cluster();
        let batch = tc.signed_batch(0, 0, 1);
        let digest = batch.digest();
        let mut out = Outbox::new();
        // Replica 2 (not the view-0 primary) tries to propose.
        let ev = tc.cores[1].on_preprepare(tc.ids[2], tc.scope, 0, 1, batch, digest, &mut out);
        assert!(ev.is_empty());
        assert!(out.is_empty());
    }

    #[test]
    fn preprepare_outside_window_rejected() {
        let mut tc = cluster();
        let batch = tc.signed_batch(0, 0, 1);
        let digest = batch.digest();
        let window = tc.cores[1].cfg.window;
        let mut out = Outbox::new();
        let ev =
            tc.cores[1].on_preprepare(tc.ids[0], tc.scope, 0, window + 1, batch, digest, &mut out);
        assert!(ev.is_empty());
    }

    #[test]
    fn conflicting_preprepare_for_same_seq_ignored() {
        let mut tc = cluster();
        let a = tc.signed_batch(0, 0, 1);
        let b = tc.signed_batch(1, 0, 1);
        let mut out = Outbox::new();
        tc.cores[1].on_preprepare(tc.ids[0], tc.scope, 0, 1, a.clone(), a.digest(), &mut out);
        let before = out.len();
        let ev =
            tc.cores[1].on_preprepare(tc.ids[0], tc.scope, 0, 1, b.clone(), b.digest(), &mut out);
        assert!(ev.is_empty());
        assert_eq!(out.len(), before, "no prepare for the conflicting digest");
    }

    #[test]
    fn checkpoint_prunes_and_advances_watermark() {
        let mut tc = cluster();
        // Commit one instance.
        let batch = tc.signed_batch(0, 0, 1);
        let mut out = Outbox::new();
        tc.cores[0].enqueue_request(batch, &mut out);
        route_core_messages(&mut tc, out);
        // Everyone records a checkpoint at seq 1.
        let state = Digest::of(b"state@1");
        let mut pending = Vec::new();
        for (i, core) in tc.cores.iter_mut().enumerate() {
            let mut out = Outbox::new();
            core.record_checkpoint(1, state, &mut out);
            pending.push((i, out));
        }
        let events = crate::testkit::route_batches(&mut tc, pending, |_| true);
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, CoreEvent::CheckpointStable { seq: 1 })));
        for core in &tc.cores {
            assert_eq!(core.stable_seq(), 1);
            assert!(core.is_committed(1), "stable implies committed");
        }
    }

    #[test]
    fn view_change_elects_next_primary_and_preserves_prepared() {
        let mut tc = cluster();
        // Propose through the (about to fail) primary; let everything
        // commit first so the committed prefix must survive the change.
        let b1 = tc.signed_batch(0, 0, 1);
        let mut out = Outbox::new();
        tc.cores[0].enqueue_request(b1, &mut out);
        route_core_messages(&mut tc, out);

        // Now replicas 1..4 time out and vote; replica 0 (old primary) is
        // silent.
        let mut pending = Vec::new();
        for (i, core) in tc.cores.iter_mut().enumerate().skip(1) {
            let mut out = Outbox::new();
            core.force_view_change(&mut out);
            pending.push((i, out));
        }
        let events = crate::testkit::route_batches(&mut tc, pending, |t| t != 0);
        assert!(events
            .iter()
            .any(|(i, e)| *i != 0 && matches!(e, CoreEvent::ViewInstalled { view: 1 })));
        for core in &tc.cores[1..] {
            assert_eq!(core.view(), 1);
            assert!(!core.in_view_change());
            assert_eq!(core.primary(), tc.ids[1]);
        }
        // Committed instance survives.
        for core in &tc.cores[1..] {
            assert!(core.is_committed(1));
        }
    }

    #[test]
    fn new_primary_reproposes_prepared_but_uncommitted() {
        let mut tc = cluster();
        let b1 = tc.signed_batch(0, 0, 1);
        let digest = b1.digest();
        // Deliver a preprepare + quorum prepares to replicas 1..4 but no
        // commits: instances are prepared, not committed.
        let mut sink = Outbox::new();
        for i in 1..4 {
            tc.cores[i].on_preprepare(tc.ids[0], tc.scope, 0, 1, b1.clone(), digest, &mut sink);
        }
        for i in 1..4 {
            for j in 1..4 {
                tc.cores[i].on_prepare(tc.ids[j], tc.scope, 0, 1, digest, &mut sink);
            }
        }
        drop(sink); // the commit phase is "lost"
        for core in &tc.cores[1..] {
            assert!(!core.is_committed(1));
        }
        // View change without the old primary.
        let mut pending = Vec::new();
        for (i, core) in tc.cores.iter_mut().enumerate().skip(1) {
            let mut out = Outbox::new();
            core.force_view_change(&mut out);
            pending.push((i, out));
        }
        let events = crate::testkit::route_batches(&mut tc, pending, |t| t != 0);
        // The re-proposal must commit in the new view among 1..4 (n - f =
        // 3 = the three live replicas).
        let committed: Vec<_> = events
            .iter()
            .filter(|(i, e)| {
                *i != 0
                    && matches!(e, CoreEvent::Committed { seq: 1, batch, .. } if batch.digest() == digest)
            })
            .collect();
        assert_eq!(committed.len(), 3, "prepared instance commits in view 1");
    }
}
