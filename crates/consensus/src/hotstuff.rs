//! HotStuff — 4-phase leader-based BFT (Yin et al.), implemented the way
//! the paper's evaluation ran it (§3, "Other protocols"):
//!
//! * no threshold signatures ("we skip the construction and verification
//!   of threshold signatures"): quorum certificates carry `n - f`
//!   individual vote signatures;
//! * parallel primaries ("we allow each replica of HotStuff to act as a
//!   primary in parallel without requiring the usage of pacemaker-based
//!   synchronization"): the global sequence space is partitioned
//!   round-robin, replica `i` leading every slot `s` with
//!   `s ≡ i (mod N)`.
//!
//! Each slot goes through Prepare → PreCommit → Commit → Decide, eight
//! message flights in total — which is exactly why the paper observes
//! "very high latencies due to its 4-phase design".
//!
//! Liveness of the round-robin partition requires filling slots whose
//! leader is idle or crashed: an idle leader proposes a no-op batch for
//! its own blocking slot, and live replicas collectively *skip* a slot
//! whose leader stays silent past a timeout (N − f matching skip votes).
//! The skip path is a simulation stand-in for pacemaker view-changes,
//! consistent with the paper's own pacemaker-less simplification.

use crate::api::{Outbox, ReplicaProtocol, TimerKind};
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::exec::CommitTail;
use crate::messages::{HsPhase, HsQc, Message};
use crate::types::{DecisionEntry, SignedBatch};
use rdb_common::ids::{ClientId, ClusterId, NodeId, ReplicaId};
use rdb_common::time::SimTime;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use rdb_store::KvStore;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Vote signing payload.
pub fn hs_vote_payload(slot: u64, phase: HsPhase, digest: &Digest) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + 8 + 1 + 32);
    out.extend_from_slice(b"hsvote");
    out.extend_from_slice(&slot.to_le_bytes());
    out.push(match phase {
        HsPhase::Prepare => 0,
        HsPhase::PreCommit => 1,
        HsPhase::Commit => 2,
        HsPhase::Decide => 3,
    });
    out.extend_from_slice(digest.as_bytes());
    out
}

/// The digest live replicas vote for to skip a dead leader's slot.
pub fn skip_digest(slot: u64) -> Digest {
    Digest::of_parts(&[b"hs-skip", &slot.to_le_bytes()])
}

/// Per-slot state.
#[derive(Default)]
struct Slot {
    /// The proposal received in the Prepare phase.
    batch: Option<SignedBatch>,
    digest: Option<Digest>,
    /// Leader side: votes per (phase, digest).
    votes: HashMap<(HsPhase, Digest), BTreeMap<ReplicaId, Signature>>,
    /// Leader side: phases whose follow-up proposal was already sent.
    advanced: HashSet<HsPhase>,
    /// Replica side: phases already voted in.
    voted: HashSet<HsPhase>,
    /// Skip votes observed (stand-in for pacemaker view change).
    skip_votes: BTreeMap<ReplicaId, Signature>,
    /// Replica cast its own skip vote.
    skip_voted: bool,
    decided: bool,
}

/// A HotStuff replica (leader of every `N`-th slot).
pub struct HotStuffReplica {
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    tail: CommitTail,
    members: Vec<ReplicaId>,
    my_idx: usize,
    /// Client batches queued for this replica's owned slots.
    queue: VecDeque<SignedBatch>,
    /// Dedupe of queued/proposed client batches.
    seen: HashSet<(ClientId, u64)>,
    /// Next owned slot to propose into.
    my_next_slot: u64,
    slots: BTreeMap<u64, Slot>,
    /// Decided batches awaiting in-order execution.
    decided: BTreeMap<u64, DecisionEntry>,
    exec_next: u64,
    /// Slot the no-op/skip timer is armed for.
    stall_timer_slot: Option<u64>,
    /// Leaders whose slots were already skipped once: their subsequent
    /// slots are skipped after a much shorter timeout (cached suspicion,
    /// the role a pacemaker would play).
    suspected: HashSet<ReplicaId>,
}

impl HotStuffReplica {
    /// Build a replica.
    pub fn new(cfg: ProtocolConfig, id: ReplicaId, crypto: CryptoCtx, store: KvStore) -> Self {
        let members: Vec<ReplicaId> = cfg.system.all_replicas().collect();
        let my_idx = members.iter().position(|m| *m == id).expect("member");
        let n = members.len() as u64;
        // First owned slot >= 1.
        let my_next_slot = if my_idx == 0 { n } else { my_idx as u64 };
        let tail = CommitTail::new(&cfg, store);
        HotStuffReplica {
            cfg,
            id,
            crypto,
            tail,
            members,
            my_idx,
            queue: VecDeque::new(),
            seen: HashSet::new(),
            my_next_slot,
            slots: BTreeMap::new(),
            decided: BTreeMap::new(),
            exec_next: 1,
            stall_timer_slot: None,
            suspected: HashSet::new(),
        }
    }

    fn n(&self) -> usize {
        self.members.len()
    }

    fn quorum(&self) -> usize {
        self.cfg.global_quorum()
    }

    fn leader_of(&self, slot: u64) -> ReplicaId {
        self.members[(slot % self.n() as u64) as usize]
    }

    fn is_my_slot(&self, slot: u64) -> bool {
        (slot % self.n() as u64) as usize == self.my_idx
    }

    // ------------------------------------------------------------------
    // Proposing
    // ------------------------------------------------------------------

    fn handle_request(&mut self, sb: SignedBatch, out: &mut Outbox) {
        if self.tail.cached_reply(&sb, 0, out) {
            return;
        }
        let key = (sb.batch.client, sb.batch.batch_seq);
        if !self.seen.insert(key) {
            return;
        }
        self.queue.push_back(sb);
        self.try_propose(out);
    }

    fn try_propose(&mut self, out: &mut Outbox) {
        let window = self.cfg.window * self.n() as u64;
        while !self.queue.is_empty() && self.my_next_slot < self.exec_next + window {
            let sb = self.queue.pop_front().expect("non-empty");
            let slot = self.my_next_slot;
            self.my_next_slot += self.n() as u64;
            self.propose(slot, sb, out);
        }
    }

    fn propose(&mut self, slot: u64, batch: SignedBatch, out: &mut Outbox) {
        let digest = batch.digest();
        let msg = Message::HsProposal {
            slot,
            phase: HsPhase::Prepare,
            batch: Some(batch),
            digest,
            justify: None,
        };
        out.multicast(self.members.clone(), &msg);
    }

    // ------------------------------------------------------------------
    // Replica side: voting
    // ------------------------------------------------------------------

    fn vote(&mut self, slot: u64, phase: HsPhase, digest: Digest, out: &mut Outbox) {
        let leader = self.leader_of(slot);
        let sig = self.crypto.sign(&hs_vote_payload(slot, phase, &digest));
        out.send(
            leader,
            Message::HsVote {
                slot,
                phase,
                digest,
                replica: self.id,
                sig,
            },
        );
    }

    /// A proposal whose shape, batch binding and QC the input edge
    /// already checked ([`crate::stage`]): only its place in this
    /// replica's slot state is decided here.
    fn handle_proposal(
        &mut self,
        from: ReplicaId,
        slot: u64,
        phase: HsPhase,
        batch: Option<SignedBatch>,
        digest: Digest,
        out: &mut Outbox,
    ) {
        if from != self.leader_of(slot) {
            return;
        }
        if slot < self.exec_next {
            return; // already executed
        }
        match phase {
            HsPhase::Prepare => {
                let Some(batch) = batch else { return };
                // A proposing leader is alive: clear any cached suspicion.
                self.suspected.remove(&from);
                let slot_state = self.slots.entry(slot).or_default();
                if slot_state.decided || slot_state.skip_voted {
                    // Never vote for a proposal on a slot we already
                    // skip-voted: the two quorums must not both form.
                    return;
                }
                if slot_state.digest.is_some() && slot_state.digest != Some(digest) {
                    return; // conflicting proposal
                }
                slot_state.batch = Some(batch);
                slot_state.digest = Some(digest);
                if slot_state.voted.insert(HsPhase::Prepare) {
                    self.vote(slot, HsPhase::Prepare, digest, out);
                }
            }
            HsPhase::PreCommit | HsPhase::Commit => {
                let slot_state = self.slots.entry(slot).or_default();
                if slot_state.decided || slot_state.digest != Some(digest) {
                    return;
                }
                if slot_state.voted.insert(phase) {
                    self.vote(slot, phase, digest, out);
                }
            }
            HsPhase::Decide => {
                let slot_state = self.slots.entry(slot).or_default();
                if slot_state.decided || slot_state.digest != Some(digest) {
                    return;
                }
                slot_state.decided = true;
                let batch = slot_state.batch.clone().expect("digest implies batch");
                let entry = DecisionEntry {
                    origin: None,
                    batch,
                    digest,
                };
                self.decided.insert(slot, entry);
                self.try_execute(out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Leader side: aggregating votes into QCs
    // ------------------------------------------------------------------

    fn handle_vote(
        &mut self,
        from: ReplicaId,
        slot: u64,
        phase: HsPhase,
        digest: Digest,
        sig: Signature,
        out: &mut Outbox,
    ) {
        // Skip votes are broadcast to everyone and handled separately.
        if digest == skip_digest(slot) {
            self.handle_skip_vote(from, slot, sig, out);
            return;
        }
        if !self.is_my_slot(slot) || slot < self.exec_next {
            return;
        }
        let quorum = self.quorum();
        let slot_state = self.slots.entry(slot).or_default();
        let votes = slot_state.votes.entry((phase, digest)).or_default();
        votes.insert(from, sig);
        if votes.len() >= quorum && slot_state.advanced.insert(phase) {
            let qc = HsQc {
                slot,
                phase,
                digest,
                votes: votes.iter().take(quorum).map(|(r, s)| (*r, *s)).collect(),
            };
            let Some(next_phase) = phase.next() else {
                return;
            };
            let msg = Message::HsProposal {
                slot,
                phase: next_phase,
                batch: None,
                digest,
                justify: Some(qc),
            };
            out.multicast(self.members.clone(), &msg);
        }
    }

    // ------------------------------------------------------------------
    // Stall handling: idle-leader no-ops and dead-leader skips
    // ------------------------------------------------------------------

    fn handle_skip_vote(&mut self, from: ReplicaId, slot: u64, sig: Signature, out: &mut Outbox) {
        if slot < self.exec_next {
            return;
        }
        let quorum = self.quorum();
        let join = self.cfg.global_f() + 1;
        let my_slot = self.is_my_slot(slot);

        let (votes, skip_voted, has_proposal) = {
            let slot_state = self.slots.entry(slot).or_default();
            if slot_state.decided {
                return;
            }
            slot_state.skip_votes.insert(from, sig);
            (
                slot_state.skip_votes.len(),
                slot_state.skip_voted,
                slot_state.digest.is_some(),
            )
        };

        // Join rule (like PBFT's view-change join): F + 1 distinct skip
        // votes mean at least one correct replica timed out on this
        // leader — join immediately instead of waiting for our own timer.
        if votes >= join && !skip_voted && !has_proposal && !my_slot {
            let d = skip_digest(slot);
            let own_sig = self
                .crypto
                .sign(&hs_vote_payload(slot, HsPhase::Prepare, &d));
            self.slots.entry(slot).or_default().skip_voted = true;
            let msg = Message::HsVote {
                slot,
                phase: HsPhase::Prepare,
                digest: d,
                replica: self.id,
                sig: own_sig,
            };
            out.multicast(self.members.clone(), &msg);
        }

        let slot_state = self.slots.entry(slot).or_default();
        if slot_state.skip_votes.len() >= quorum && !slot_state.decided {
            slot_state.decided = true;
            // Cache the suspicion: this leader's later slots are skipped
            // after a short grace period instead of the full timeout.
            let dead_leader = self.leader_of(slot);
            if dead_leader != self.id {
                self.suspected.insert(dead_leader);
            }
            let noop = SignedBatch::noop(ClusterId(u16::MAX), slot);
            self.decided.insert(slot, DecisionEntry::new(None, noop));
            self.try_execute(out);
        }
    }

    /// After execution advances (or on start), watch the slot that blocks
    /// us: if it is ours and we are idle, fill it with a no-op after a
    /// short delay; if its leader is silent, skip-vote after the timeout.
    fn watch_blocking_slot(&mut self, out: &mut Outbox) {
        let slot = self.exec_next;
        if self.decided.contains_key(&slot) {
            return;
        }
        if self.stall_timer_slot == Some(slot) {
            return;
        }
        self.stall_timer_slot = Some(slot);
        // Suspected-dead leaders get a much shorter grace period; a fresh
        // suspicion waits the full progress timeout first.
        let timeout = if self.suspected.contains(&self.leader_of(slot)) {
            self.cfg.progress_timeout / 16
        } else {
            self.cfg.progress_timeout
        };
        out.set_timer(TimerKind::SlotNoOp { slot }, timeout);
    }

    fn on_stall_timer(&mut self, slot: u64, out: &mut Outbox) {
        if slot != self.exec_next || self.decided.contains_key(&slot) {
            self.stall_timer_slot = None;
            self.watch_blocking_slot(out);
            return;
        }
        let proposed = self
            .slots
            .get(&slot)
            .is_some_and(|s| s.digest.is_some() || s.decided);
        if self.is_my_slot(slot) {
            if !proposed {
                // Our own slot blocks the pipeline and we have nothing
                // queued for it: propose a no-op.
                if slot == self.my_next_slot {
                    self.my_next_slot += self.n() as u64;
                }
                self.propose(slot, SignedBatch::noop(ClusterId(u16::MAX), slot), out);
            }
        } else if !proposed {
            // Dead/silent leader: broadcast skip votes — for the blocked
            // slot AND the same leader's upcoming slots in the window, so
            // a dead leader is skipped at message-latency rate instead of
            // one timeout per slot (the role a pacemaker's view
            // synchronization plays in full HotStuff).
            let n = self.n() as u64;
            let preskip = self.cfg.window.max(64);
            for k in 0..preskip {
                let s = slot + k * n;
                let slot_state = self.slots.entry(s).or_default();
                if slot_state.skip_voted || slot_state.decided || slot_state.digest.is_some() {
                    continue;
                }
                slot_state.skip_voted = true;
                let d = skip_digest(s);
                let sig = self.crypto.sign(&hs_vote_payload(s, HsPhase::Prepare, &d));
                let msg = Message::HsVote {
                    slot: s,
                    phase: HsPhase::Prepare,
                    digest: d,
                    replica: self.id,
                    sig,
                };
                out.multicast(self.members.clone(), &msg);
            }
        }
        // Keep watching with a fresh timer.
        self.stall_timer_slot = None;
        self.watch_blocking_slot(out);
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn try_execute(&mut self, out: &mut Outbox) {
        while let Some(entry) = self.decided.remove(&self.exec_next) {
            let slot = self.exec_next;
            self.exec_next += 1;
            // Every replica answers every client; HotStuff as evaluated
            // (§3) takes no checkpoints, so the cadence is ignored.
            self.tail.commit(slot, 0, [entry], None, out);
            self.slots.remove(&slot);
        }
        self.try_propose(out);
        self.watch_blocking_slot(out);
    }
}

impl ReplicaProtocol for HotStuffReplica {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
        self.watch_blocking_slot(out);
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Request(sb) | Message::Forward(sb) => self.handle_request(sb, out),
            Message::HsProposal {
                slot,
                phase,
                batch,
                digest,
                ..
            } => {
                if let NodeId::Replica(from) = from {
                    self.handle_proposal(from, slot, phase, batch, digest, out);
                }
            }
            // The input edge checked that `replica` sent and signed it.
            Message::HsVote {
                slot,
                phase,
                digest,
                replica,
                sig,
            } => self.handle_vote(replica, slot, phase, digest, sig, out),
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer: TimerKind, out: &mut Outbox) {
        if let TimerKind::SlotNoOp { slot } = timer {
            self.on_stall_timer(slot, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Action;
    use crate::clients::synthetic_source;
    use crate::config::ExecMode;
    use crate::testkit::Edge;
    use crate::types::Decision;
    use rdb_common::config::SystemConfig;
    use rdb_crypto::sign::KeyStore;
    use std::collections::VecDeque as Q;

    fn setup(n: usize) -> (Vec<HotStuffReplica>, KeyStore, Edge) {
        let system = SystemConfig::geo(1, n).unwrap();
        let mut cfg = ProtocolConfig::new(system.clone());
        cfg.exec_mode = ExecMode::Real;
        let ks = KeyStore::new(44);
        let replicas = system
            .all_replicas()
            .map(|r| {
                let signer = ks.register(NodeId::Replica(r));
                let crypto = CryptoCtx::new(signer, ks.verifier(), true);
                HotStuffReplica::new(cfg.clone(), r, crypto, KvStore::with_ycsb_records(50))
            })
            .collect();
        let edge = Edge::new(&system, &ks);
        (replicas, ks, edge)
    }

    fn signed(ks: &KeyStore, client: ClientId, seq: u64) -> SignedBatch {
        let signer = ks.register(NodeId::Client(client));
        let mut src = synthetic_source(client, 3, 30);
        let b = src(seq);
        let sig = signer.sign(b.digest().as_bytes());
        SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch: b,
        }
    }

    fn route(
        edge: &Edge,
        replicas: &mut [HotStuffReplica],
        initial: Vec<(NodeId, NodeId, Message)>,
        skip: Option<usize>,
    ) -> Vec<(ReplicaId, Decision)> {
        let mut queue: Q<(NodeId, NodeId, Message)> = initial.into();
        let mut decisions = Vec::new();
        let mut steps = 0;
        while let Some((from, to, msg)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 2_000_000);
            let NodeId::Replica(rid) = to else { continue };
            let idx = rid.index as usize;
            if Some(idx) == skip {
                continue;
            }
            let replica = &mut replicas[idx];
            let actions = edge.deliver(from, msg, |from, msg, out| {
                replica.on_message(SimTime::ZERO, from, msg, out)
            });
            for a in actions {
                match a {
                    Action::Send { to: t, msg: m } => queue.push_back((to, t, m)),
                    Action::Decided(d) => decisions.push((rid, d)),
                    _ => {}
                }
            }
        }
        decisions
    }

    #[test]
    fn four_phase_flow_decides_and_executes() {
        let (mut replicas, ks, edge) = setup(4);
        let client = ClientId::new(0, 0);
        let sb = signed(&ks, client, 0);
        // Client's home replica is index 0 % 4 = 0; replica 0 owns slots
        // 4, 8, ... but slot 1 belongs to replica 1, so execution of the
        // proposal (slot 4) requires slots 1-3 — fill them via the skip
        // path in this unit test by sending requests to replicas 1,2,3.
        let mut initial = vec![];
        for i in 1..4u32 {
            let c = ClientId::new(0, i);
            let b = signed(&ks, c, 0);
            initial.push((
                NodeId::Client(c),
                ReplicaId::new(0, i as u16).into(),
                Message::Request(b),
            ));
        }
        initial.push((
            NodeId::Client(client),
            ReplicaId::new(0, 0).into(),
            Message::Request(sb),
        ));
        let decisions = route(&edge, &mut replicas, initial, None);
        // Slots 1..4 decided on all 4 replicas.
        assert_eq!(decisions.len(), 16);
        let s0 = replicas[0].tail.state_digest();
        assert!(replicas.iter().all(|r| r.tail.state_digest() == s0));
        for r in &replicas {
            assert_eq!(r.tail.decisions(), 4);
        }
    }

    #[test]
    fn proposal_from_wrong_leader_ignored() {
        let (mut replicas, ks, edge) = setup(4);
        let sb = signed(&ks, ClientId::new(0, 7), 0);
        let digest = sb.digest();
        // Slot 1 belongs to replica 1; replica 2 tries to propose it.
        let proposal = Message::HsProposal {
            slot: 1,
            phase: HsPhase::Prepare,
            batch: Some(sb),
            digest,
            justify: None,
        };
        let actions = edge.deliver(ReplicaId::new(0, 2).into(), proposal, |from, msg, out| {
            replicas[3].on_message(SimTime::ZERO, from, msg, out)
        });
        assert!(actions.is_empty());
    }

    #[test]
    fn qc_with_too_few_votes_rejected() {
        let (mut replicas, ks, edge) = setup(4);
        let sb = signed(&ks, ClientId::new(0, 8), 0);
        let digest = sb.digest();
        // Two valid votes of the n - f = 3 a QC needs.
        let payload = hs_vote_payload(1, HsPhase::Prepare, &digest);
        let votes = [0usize, 2].map(|i| {
            (
                ReplicaId::new(0, i as u16),
                replicas[i].crypto.sign(&payload),
            )
        });
        let leader: NodeId = ReplicaId::new(0, 1).into();
        let mut deliver = |msg| {
            edge.deliver(leader, msg, |from, msg, out| {
                replicas[3].on_message(SimTime::ZERO, from, msg, out)
            })
        };
        // Deliver a proper Prepare for slot 1 (leader = replica 1).
        let prepare = Message::HsProposal {
            slot: 1,
            phase: HsPhase::Prepare,
            batch: Some(sb),
            digest,
            justify: None,
        };
        assert_eq!(deliver(prepare).len(), 1, "prepare vote sent");
        // Now a PreCommit with the undersized QC.
        let precommit = Message::HsProposal {
            slot: 1,
            phase: HsPhase::PreCommit,
            batch: None,
            digest,
            justify: Some(HsQc {
                slot: 1,
                phase: HsPhase::Prepare,
                digest,
                votes: votes.to_vec(),
            }),
        };
        assert!(
            deliver(precommit).is_empty(),
            "undersized QC must not advance"
        );
    }

    #[test]
    fn dead_leader_slot_is_skipped_by_quorum() {
        let (mut replicas, ks, edge) = setup(4);
        // Replica 1 (leader of slot 1) is dead. Other replicas' stall
        // timers fire, they broadcast skip votes.
        let mut msgs = Vec::new();
        for i in [0usize, 2, 3] {
            let mut out = Outbox::new();
            replicas[i].on_timer(SimTime::ZERO, TimerKind::SlotNoOp { slot: 1 }, &mut out);
            // on_timer was armed at start in real flow; emulate arming.
            for a in out.take() {
                if let Action::Send { to, msg } = a {
                    msgs.push((NodeId::Replica(replicas[i].id()), to, msg));
                }
            }
        }
        let decisions = route(&edge, &mut replicas, msgs, Some(1));
        // Slot 1 decided as no-op on the three live replicas.
        let live: Vec<_> = decisions
            .iter()
            .filter(|(r, d)| r.index != 1 && d.seq == 1)
            .collect();
        assert_eq!(live.len(), 3);
        for (_, d) in live {
            assert!(d.entries[0].batch.is_noop());
        }
        let _ = ks;
    }

    #[test]
    fn idle_own_slot_is_filled_with_noop_on_timer() {
        let (mut replicas, _ks, edge) = setup(4);
        // Replica 1 owns blocking slot 1 and has an empty queue; its stall
        // timer fires -> it proposes a no-op through the normal 4-phase
        // path.
        let mut out = Outbox::new();
        replicas[1].on_timer(SimTime::ZERO, TimerKind::SlotNoOp { slot: 1 }, &mut out);
        let msgs: Vec<_> = out
            .take()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((NodeId::Replica(ReplicaId::new(0, 1)), to, msg)),
                _ => None,
            })
            .collect();
        assert!(msgs.iter().any(|(_, _, m)| matches!(
            m,
            Message::HsProposal {
                slot: 1,
                phase: HsPhase::Prepare,
                ..
            }
        )));
        let decisions = route(&edge, &mut replicas, msgs, None);
        assert_eq!(decisions.len(), 4, "no-op decided everywhere");
        assert!(decisions.iter().all(|(_, d)| d.entries[0].batch.is_noop()));
    }
}
