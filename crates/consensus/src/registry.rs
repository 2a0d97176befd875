//! Factory functions mapping a [`ProtocolKind`] to concrete replica and
//! client state machines. Drivers (the simulator and the fabric) go
//! through these so that deployments are protocol-agnostic.

use crate::api::ReplicaProtocol;
use crate::clients::{BatchSource, QuorumClient, TargetPolicy};
use crate::config::{ProtocolConfig, ProtocolKind};
use crate::crypto_ctx::CryptoCtx;
use crate::geobft::GeoBftReplica;
use crate::hotstuff::HotStuffReplica;
use crate::pbft::PbftReplica;
use crate::steward::StewardReplica;
use crate::zyzzyva::ZyzzyvaReplica;
use rdb_common::ids::{ClientId, ReplicaId};
use rdb_store::KvStore;

/// Build a replica state machine for `kind`.
pub fn build_replica(
    kind: ProtocolKind,
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    store: KvStore,
) -> Box<dyn ReplicaProtocol> {
    match kind {
        ProtocolKind::GeoBft => Box::new(GeoBftReplica::new(cfg, id, crypto, store)),
        ProtocolKind::Pbft => Box::new(PbftReplica::new(cfg, id, crypto, store)),
        ProtocolKind::Zyzzyva => Box::new(ZyzzyvaReplica::new(cfg, id, crypto, store)),
        ProtocolKind::HotStuff => Box::new(HotStuffReplica::new(cfg, id, crypto, store)),
        ProtocolKind::Steward => Box::new(StewardReplica::new(cfg, id, crypto, store)),
    }
}

/// Build a replica state machine for `kind`, optionally wrapped in
/// Byzantine behaviour (see [`crate::adversary`]). `None` builds the
/// honest replica, so deployment loops can apply per-replica specs
/// uniformly.
pub fn build_replica_with_adversary(
    kind: ProtocolKind,
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    store: KvStore,
    spec: Option<&crate::adversary::AdversarySpec>,
) -> Box<dyn ReplicaProtocol> {
    let inner = build_replica(kind, cfg, id, crypto, store);
    match spec {
        Some(spec) => crate::adversary::apply_adversary(inner, spec),
        None => inner,
    }
}

/// The number of matching replies a client of `kind` needs before
/// accepting a result.
pub fn reply_quorum(kind: ProtocolKind, cfg: &ProtocolConfig) -> usize {
    match kind {
        // Local f + 1 (§2.4: at most f faulty replicas per cluster, so one
        // of f + 1 identical local replies is from a non-faulty replica).
        ProtocolKind::GeoBft | ProtocolKind::Steward => cfg.system.weak_quorum(),
        // Global F + 1.
        ProtocolKind::Pbft | ProtocolKind::HotStuff => cfg.global_f() + 1,
        // §3: "clients in Zyzzyva require identical responses from all n
        // replicas" — short of that, see `commit_quorum`.
        ProtocolKind::Zyzzyva => cfg.global_n(),
    }
}

/// Zyzzyva only: the matching speculative responses that make a commit
/// certificate, and the acknowledgements of it that complete a request
/// whose `reply_quorum` stays out of reach (`2F + 1`).
pub fn commit_quorum(kind: ProtocolKind, cfg: &ProtocolConfig) -> Option<usize> {
    (kind == ProtocolKind::Zyzzyva).then(|| 2 * cfg.global_f() + 1)
}

/// Where a client of `kind` sends fresh requests and retransmissions, and
/// whose replies it counts (see [`TargetPolicy`]).
pub fn target_policy(kind: ProtocolKind) -> TargetPolicy {
    match kind {
        ProtocolKind::GeoBft => TargetPolicy::LocalPrimary,
        ProtocolKind::Pbft | ProtocolKind::Zyzzyva => TargetPolicy::GlobalPrimary,
        ProtocolKind::HotStuff => TargetPolicy::HomeReplica,
        ProtocolKind::Steward => TargetPolicy::LocalRepresentative,
    }
}

/// The client of `kind`, without a batch source: its driver hands it
/// batches through [`QuorumClient::submit`].
pub fn client(
    kind: ProtocolKind,
    cfg: ProtocolConfig,
    id: ClientId,
    crypto: CryptoCtx,
) -> QuorumClient {
    let (policy, reply, commit) = (
        target_policy(kind),
        reply_quorum(kind, &cfg),
        commit_quorum(kind, &cfg),
    );
    QuorumClient::new(id, cfg, crypto, policy, reply, commit)
}

/// Build a closed-loop client state machine for `kind`, drawing its
/// batches from `source`.
pub fn build_client(
    kind: ProtocolKind,
    cfg: ProtocolConfig,
    id: ClientId,
    crypto: CryptoCtx,
    source: BatchSource,
) -> QuorumClient {
    client(kind, cfg, id, crypto).with_source(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::synthetic_source;
    use rdb_common::config::SystemConfig;
    use rdb_common::ids::NodeId;
    use rdb_crypto::sign::KeyStore;

    #[test]
    fn all_kinds_build() {
        // Use a fresh keystore per protocol kind so replica ids can repeat.
        let system = SystemConfig::geo(2, 4).unwrap();
        let cfg = ProtocolConfig::new(system);
        for (i, kind) in ProtocolKind::ALL.iter().enumerate() {
            let ks = KeyStore::new(i as u64);
            let rid = ReplicaId::new(1, 0);
            let signer = ks.register(NodeId::Replica(rid));
            let crypto = CryptoCtx::new(signer, ks.verifier(), false);
            let r = build_replica(*kind, cfg.clone(), rid, crypto, KvStore::new());
            assert_eq!(r.id(), rid);

            let cid = ClientId::new(0, i as u32);
            let signer = ks.register(NodeId::Client(cid));
            let crypto = CryptoCtx::new(signer, ks.verifier(), false);
            let c = build_client(
                *kind,
                cfg.clone(),
                cid,
                crypto,
                synthetic_source(cid, 2, 10),
            );
            assert_eq!(c.id(), cid);
        }
    }

    #[test]
    fn reply_quorums_per_protocol() {
        let cfg = ProtocolConfig::new(SystemConfig::geo(4, 7).unwrap());
        // local f = 2 -> f+1 = 3; global N = 28, F = 9 -> F+1 = 10.
        assert_eq!(reply_quorum(ProtocolKind::GeoBft, &cfg), 3);
        assert_eq!(reply_quorum(ProtocolKind::Steward, &cfg), 3);
        assert_eq!(reply_quorum(ProtocolKind::Pbft, &cfg), 10);
        assert_eq!(reply_quorum(ProtocolKind::HotStuff, &cfg), 10);
        assert_eq!(reply_quorum(ProtocolKind::Zyzzyva, &cfg), 28);
    }
}
