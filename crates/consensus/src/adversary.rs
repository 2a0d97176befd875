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
//! Every [`AdversarySpec`] is one [`Adversary`] wrapper that rewrites or
//! drops the inner replica's outbound messages; nothing else about a
//! Byzantine replica differs from an honest one.
//!
//! [`AdversarySpec::EquivocatePrimary`] is the classic equivocation
//! attack: whenever the wrapped replica proposes a batch (PBFT/GeoBFT
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
//! [`AdversarySpec::SuppressGlobalShare`] is GeoBFT's withholding primary
//! (Example 2.4 case (1)): the replica takes part in local replication
//! but never shares its own cluster's certificates, so remote clusters
//! must detect the silence and force a local view change through the
//! remote view-change protocol (§2.3, Figure 7).
//!
//! The scenario harness (`rdb-scenario`) runs exactly these attacks per
//! protocol in both runtimes and asserts no divergent commit.

use crate::api::{Action, Outbox, ReplicaProtocol, TimerKind};
use crate::messages::{HsPhase, Message};
use crate::types::SignedBatch;
use rdb_common::ids::{ClusterId, NodeId, ReplicaId};
use rdb_common::time::SimTime;

/// Byzantine behaviour to install on one replica at deployment time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// When this replica acts as a primary/leader, every proposal it
    /// sends to a victim is replaced by a conflicting well-formed one.
    EquivocatePrimary {
        /// The replicas that receive the conflicting proposal.
        victims: Vec<ReplicaId>,
    },
    /// Drop every outbound `GlobalShare` that carries a certificate of the
    /// replica's own cluster. A GeoBFT replica sends those only as the
    /// primary sharing (or, after a view change, re-sharing) its
    /// cluster's rounds; DRVC help and the local re-broadcast forward
    /// remote certificates only, and pass untouched.
    SuppressGlobalShare,
}

/// Wrap `inner` according to `spec`.
pub fn apply_adversary(
    inner: Box<dyn ReplicaProtocol>,
    spec: &AdversarySpec,
) -> Box<dyn ReplicaProtocol> {
    Box::new(Adversary {
        inner,
        spec: spec.clone(),
    })
}

/// A replica whose outbound messages pass through its [`AdversarySpec`].
/// All other behaviour (voting, view changes, execution) stays honest,
/// which is the strongest position for an attack — the replica keeps its
/// standing in the protocol while misbehaving on the wire.
pub struct Adversary {
    inner: Box<dyn ReplicaProtocol>,
    spec: AdversarySpec,
}

impl Adversary {
    /// What the replica sends to `to` in place of `msg`; `None` drops it.
    fn outbound(&self, to: NodeId, msg: Message) -> Option<Message> {
        let cluster = self.inner.id().cluster;
        match &self.spec {
            AdversarySpec::EquivocatePrimary { victims } => Some(match to {
                NodeId::Replica(r) if victims.contains(&r) => forge(cluster, msg),
                _ => msg,
            }),
            AdversarySpec::SuppressGlobalShare => match &msg {
                Message::GlobalShare { cert } if cert.cluster == cluster => None,
                _ => Some(msg),
            },
        }
    }

    fn relay(&mut self, scratch: &mut Outbox, out: &mut Outbox) {
        for action in scratch.take() {
            match action {
                Action::Send { to, msg } => {
                    if let Some(msg) = self.outbound(to, msg) {
                        out.send(to, msg);
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// The conflicting proposal a victim receives in place of `msg`: a no-op
/// batch tagged with the proposal's log position, so every equivocated
/// position gets a distinct, well-formed digest. Anything but a proposal
/// passes unchanged.
fn forge(cluster: ClusterId, msg: Message) -> Message {
    match msg {
        Message::PrePrepare {
            scope, view, seq, ..
        } => {
            let batch = SignedBatch::noop(cluster, seq);
            Message::PrePrepare {
                scope,
                view,
                seq,
                digest: batch.digest(),
                batch,
            }
        }
        Message::OrderReq { view, seq, .. } => {
            let batch = SignedBatch::noop(cluster, seq);
            Message::OrderReq {
                view,
                seq,
                history: batch.digest(),
                batch,
            }
        }
        Message::HsProposal {
            slot,
            phase: HsPhase::Prepare,
            batch: Some(_),
            justify,
            ..
        } => {
            let batch = SignedBatch::noop(cluster, slot);
            Message::HsProposal {
                slot,
                phase: HsPhase::Prepare,
                digest: batch.digest(),
                batch: Some(batch),
                justify,
            }
        }
        other => other,
    }
}

impl ReplicaProtocol for Adversary {
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
