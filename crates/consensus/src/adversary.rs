//! Byzantine behaviour as protocol *wrappers*.
//!
//! Both runtimes — the discrete-event simulator and the threaded fabric —
//! drive the same boxed [`ReplicaProtocol`] state machines, so Byzantine
//! faults can be expressed once as a wrapper that transforms the actions
//! an honest inner protocol emits, and injected identically into either
//! runtime. This mirrors how the paper reasons about Byzantine primaries
//! (§2.1: faulty replicas "can behave in arbitrary, possibly coordinated
//! and malicious, manners"): the adversary controls what the replica
//! *sends*, not the protocol logic of the honest majority.
//!
//! [`EquivocatingPrimary`] implements the classic equivocation attack:
//! whenever the wrapped replica proposes a batch (PBFT/GeoBFT
//! `PrePrepare`, Zyzzyva `OrderReq`, HotStuff Prepare-phase
//! `HsProposal`), the victims receive a *different but well-formed*
//! proposal — a no-op batch with a correctly recomputed digest, which
//! passes every receiver-side check ([`SignedBatch`] no-ops carry no
//! client signature by design). Safety must hold anyway:
//!
//! * PBFT/GeoBFT: with enough victims neither digest reaches a prepare
//!   quorum, the progress timer fires, and a view change elects an
//!   honest primary — no conflicting commit ever forms.
//! * HotStuff: the honest `n − f` quorum still forms every QC; a victim
//!   that voted for the forged digest refuses the honest QC (prepare-
//!   and skip-quorums may never both form) and freezes at the
//!   equivocated slot — isolated, never forked.
//! * Zyzzyva: victims speculatively execute the forged history, but no
//!   commit certificate (`2f + 1` matching responses) can cover it;
//!   clients fall back to the commit phase over the honest majority.
//!
//! The scenario harness (`rdb-scenario`) runs exactly these attacks per
//! protocol in both runtimes and asserts no divergent commit.

use crate::api::{Action, Outbox, ReplicaProtocol, TimerKind};
use crate::messages::{HsPhase, Message};
use crate::types::SignedBatch;
use rdb_common::ids::{NodeId, ReplicaId};
use rdb_common::time::SimTime;
use std::collections::BTreeSet;

/// Byzantine behaviour to install on one replica at deployment time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// When this replica acts as a primary/leader, every proposal it
    /// sends to a victim is replaced by a conflicting well-formed one.
    EquivocatePrimary {
        /// The replicas that receive the conflicting proposal.
        victims: Vec<ReplicaId>,
    },
}

/// Wrap `inner` according to `spec`.
pub fn apply_adversary(
    inner: Box<dyn ReplicaProtocol>,
    spec: &AdversarySpec,
) -> Box<dyn ReplicaProtocol> {
    match spec {
        AdversarySpec::EquivocatePrimary { victims } => Box::new(EquivocatingPrimary::new(
            inner,
            victims.iter().copied().collect(),
        )),
    }
}

/// A replica whose outgoing proposals equivocate: victims see a
/// conflicting well-formed proposal in place of the honest one. All other
/// behaviour (voting, view changes, execution) stays honest, which is the
/// strongest position for the attack — the replica keeps its standing in
/// the protocol while trying to split the quorum.
pub struct EquivocatingPrimary {
    inner: Box<dyn ReplicaProtocol>,
    victims: BTreeSet<ReplicaId>,
}

impl EquivocatingPrimary {
    /// Wrap `inner`, equivocating towards `victims`.
    pub fn new(inner: Box<dyn ReplicaProtocol>, victims: BTreeSet<ReplicaId>) -> Self {
        EquivocatingPrimary { inner, victims }
    }

    /// The conflicting proposal sent to victims in place of `honest`: a
    /// no-op batch tagged with the proposal's log position, so every
    /// equivocated position gets a distinct, well-formed digest.
    fn forge(&self, position: u64) -> SignedBatch {
        SignedBatch::noop(self.inner.id().cluster, position)
    }

    /// Rewrite a proposal action bound for a victim; `None` passes the
    /// action through unchanged.
    fn rewrite(&self, to: NodeId, msg: &Message) -> Option<Message> {
        let NodeId::Replica(r) = to else {
            return None;
        };
        if !self.victims.contains(&r) {
            return None;
        }
        match msg {
            Message::PrePrepare {
                scope, view, seq, ..
            } => {
                let forged = self.forge(*seq);
                let digest = forged.digest();
                Some(Message::PrePrepare {
                    scope: *scope,
                    view: *view,
                    seq: *seq,
                    batch: forged,
                    digest,
                })
            }
            Message::OrderReq { view, seq, .. } => {
                let forged = self.forge(*seq);
                let history = forged.digest();
                Some(Message::OrderReq {
                    view: *view,
                    seq: *seq,
                    batch: forged,
                    history,
                })
            }
            Message::HsProposal {
                slot,
                phase: HsPhase::Prepare,
                batch: Some(_),
                justify,
                ..
            } => {
                let forged = self.forge(*slot);
                let digest = forged.digest();
                Some(Message::HsProposal {
                    slot: *slot,
                    phase: HsPhase::Prepare,
                    batch: Some(forged),
                    digest,
                    justify: justify.clone(),
                })
            }
            _ => None,
        }
    }

    fn relay(&mut self, scratch: &mut Outbox, out: &mut Outbox) {
        for action in scratch.take() {
            match action {
                Action::Send { to, msg } => match self.rewrite(to, &msg) {
                    Some(forged) => out.send(to, forged),
                    None => out.send(to, msg),
                },
                other => out.push(other),
            }
        }
    }
}

impl ReplicaProtocol for EquivocatingPrimary {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_start(&mut self, now: SimTime, out: &mut Outbox) {
        let mut scratch = Outbox::new();
        self.inner.on_start(now, &mut scratch);
        self.relay(&mut scratch, out);
    }

    fn on_message(&mut self, now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        let mut scratch = Outbox::new();
        self.inner.on_message(now, from, msg, &mut scratch);
        self.relay(&mut scratch, out);
    }

    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox) {
        let mut scratch = Outbox::new();
        self.inner.on_timer(now, timer, &mut scratch);
        self.relay(&mut scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::crypto_ctx::CryptoCtx;
    use crate::pbft::PbftReplica;
    use crate::registry;
    use rdb_common::config::SystemConfig;
    use rdb_crypto::sign::KeyStore;
    use rdb_store::KvStore;

    fn wrapped_primary(ks: &KeyStore, victims: Vec<ReplicaId>) -> Box<dyn ReplicaProtocol> {
        let system = SystemConfig::geo(1, 4).unwrap();
        let cfg = ProtocolConfig::new(system);
        let rid = ReplicaId::new(0, 0);
        let signer = ks.register(NodeId::Replica(rid));
        let crypto = CryptoCtx::new(signer, ks.verifier(), true);
        let inner = Box::new(PbftReplica::new(cfg, rid, crypto, KvStore::new()));
        apply_adversary(inner, &AdversarySpec::EquivocatePrimary { victims })
    }

    fn client_batch(ks: &KeyStore) -> SignedBatch {
        let client = rdb_common::ids::ClientId::new(0, 9);
        let signer = ks.register(NodeId::Client(client));
        let batch = crate::clients::synthetic_source(client, 3, 16)(0);
        let sig = signer.sign(batch.digest().as_bytes());
        SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch,
        }
    }

    #[test]
    fn equivocates_only_towards_victims() {
        let victims = vec![ReplicaId::new(0, 2), ReplicaId::new(0, 3)];
        let ks = KeyStore::new(3);
        let mut primary = wrapped_primary(&ks, victims.clone());
        let sb = client_batch(&ks);
        let honest_digest = sb.digest();
        let edge = crate::testkit::Edge::new(&SystemConfig::geo(1, 4).unwrap(), &ks);
        let from = NodeId::Client(sb.batch.client);
        let actions = edge.deliver(from, Message::Request(sb), |from, msg, out| {
            primary.on_message(SimTime::ZERO, from, msg, out)
        });
        let mut honest = 0;
        let mut forged = 0;
        for a in &actions {
            if let Action::Send {
                to: NodeId::Replica(r),
                msg: Message::PrePrepare { batch, digest, .. },
            } = a
            {
                assert_eq!(batch.digest(), *digest, "forgeries stay well-formed");
                if victims.contains(r) {
                    assert!(batch.is_noop());
                    assert_ne!(*digest, honest_digest);
                    forged += 1;
                } else {
                    assert_eq!(*digest, honest_digest);
                    honest += 1;
                }
            }
        }
        assert_eq!(forged, 2);
        assert!(honest >= 1, "non-victims still get the honest proposal");
    }

    #[test]
    fn registry_builds_wrapped_replicas_for_all_kinds() {
        let system = SystemConfig::geo(2, 4).unwrap();
        let cfg = ProtocolConfig::new(system);
        for (i, kind) in crate::config::ProtocolKind::ALL.iter().enumerate() {
            let ks = KeyStore::new(40 + i as u64);
            let rid = ReplicaId::new(0, 0);
            let signer = ks.register(NodeId::Replica(rid));
            let crypto = CryptoCtx::new(signer, ks.verifier(), false);
            let spec = AdversarySpec::EquivocatePrimary {
                victims: vec![ReplicaId::new(0, 3)],
            };
            let r = registry::build_replica_with_adversary(
                *kind,
                cfg.clone(),
                rid,
                crypto,
                KvStore::new(),
                Some(&spec),
            );
            assert_eq!(r.id(), rid);
        }
    }
}
