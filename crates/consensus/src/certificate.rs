//! Commit certificates — the transferable proofs of local replication.
//!
//! §2.2: "on success, each non-faulty replica R ∈ C will be committed to
//! the proposed request ⟨T⟩c and will be able to construct a commit
//! certificate [⟨T⟩c, ρ]R that proves this commitment. In GeoBFT, this
//! commit certificate consists of the client request ⟨T⟩c and n − f > 2f
//! identical commit messages for ⟨T⟩c signed by distinct replicas."

use crate::crypto_ctx::CryptoCtx;
use crate::types::SignedBatch;
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClusterId, ReplicaId};
use rdb_common::wire;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One replica's signed commit vote inside a certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitSig {
    /// The committing replica.
    pub replica: ReplicaId,
    /// Signature over [`commit_payload`].
    pub sig: Signature,
}

/// The canonical byte string a replica signs when committing `(cluster,
/// seq, digest)`. Deliberately excludes the local view so certificates stay
/// valid across local view changes (a round commits at most one digest per
/// cluster regardless of the view it committed in — Lemma 2.3).
pub fn commit_payload(cluster: ClusterId, seq: u64, digest: &Digest) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + 2 + 8 + 32);
    out.extend_from_slice(b"commit");
    out.extend_from_slice(&cluster.0.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(digest.as_bytes());
    out
}

/// At least `quorum` distinct signers, each accepted by `member`: the
/// shape every aggregated vote (certificate, QC, cluster accept) shares.
pub(crate) fn distinct_quorum(
    mut signers: impl ExactSizeIterator<Item = ReplicaId>,
    quorum: usize,
    member: impl Fn(ReplicaId) -> bool,
) -> bool {
    let mut seen = HashSet::with_capacity(signers.len());
    signers.len() >= quorum && signers.all(|r| member(r) && seen.insert(r))
}

/// `n - f` distinct replicas of `cluster`, which must exist.
pub(crate) fn cluster_quorum(
    cfg: &SystemConfig,
    cluster: ClusterId,
    signers: impl ExactSizeIterator<Item = ReplicaId>,
) -> bool {
    cluster.as_usize() < cfg.z()
        && distinct_quorum(signers, cfg.quorum(), |r| {
            r.cluster == cluster && cfg.contains(r)
        })
}

/// A commit certificate `[⟨T⟩c, ρ]_C`: proof that cluster `cluster`
/// replicated `batch` in round (local sequence) `round`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitCertificate {
    /// The certifying cluster.
    pub cluster: ClusterId,
    /// The round / local sequence number.
    pub round: u64,
    /// Digest of the batch.
    pub digest: Digest,
    /// The client request `⟨T⟩c` itself.
    pub batch: SignedBatch,
    /// `n - f` commit votes from distinct replicas of `cluster`.
    pub commits: Vec<CommitSig>,
}

impl CommitCertificate {
    /// Full validity check: digest binding, quorum size, membership,
    /// distinctness, signature validity, and the client signature on the
    /// inner batch. Returns `false` rather than an error — invalid
    /// certificates are simply discarded (§2.1). The structural checks
    /// run under any context; the signatures only under a real one.
    pub fn verify(&self, cfg: &SystemConfig, crypto: &CryptoCtx) -> bool {
        let payload = commit_payload(self.cluster, self.round, &self.digest);
        let signers = self.commits.iter().map(|c| c.replica);
        // One payload, n - f signatures: checked as a batch (single pass
        // over the key registry — the verifier-stage hot path).
        let sigs = self.commits.iter().map(|c| (c.replica.into(), c.sig));
        cluster_quorum(cfg, self.cluster, signers)
            && self.batch.digest() == self.digest
            && crypto.verify_batch(&self.batch, &self.digest)
            && crypto.verify_many(&payload, sigs)
    }

    /// Modeled wire size: the embedded pre-prepare (batch) plus one signed
    /// digest per commit vote (§4: ≈6.4 kB at batch 100 with 7 commits).
    pub fn wire_size(&self) -> usize {
        wire::certificate_bytes(self.batch.batch.len(), self.commits.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientBatch, Transaction};
    use rdb_common::ids::{ClientId, NodeId};
    use rdb_crypto::sign::KeyStore;
    use rdb_store::{Operation, Value};

    struct Fixture {
        cfg: SystemConfig,
        ks: KeyStore,
        crypto: CryptoCtx,
    }

    fn fixture() -> Fixture {
        let cfg = SystemConfig::geo(2, 4).unwrap();
        let ks = KeyStore::new(7);
        let observer = ks.register(ReplicaId::new(1, 0).into());
        let crypto = CryptoCtx::new(observer, ks.verifier(), true);
        Fixture { cfg, ks, crypto }
    }

    fn make_cert(fx: &Fixture, commits: usize) -> CommitCertificate {
        let client = ClientId::new(0, 0);
        let client_signer = fx.ks.register(client.into());
        let batch = ClientBatch {
            client,
            batch_seq: 1,
            txns: vec![Transaction {
                client,
                seq: 0,
                op: Operation::Write {
                    key: 1,
                    value: Value::from_u64(9),
                },
            }]
            .into(),
        };
        let digest = batch.digest();
        let sb = SignedBatch {
            sig: client_signer.sign(digest.as_bytes()),
            pubkey: client_signer.public_key(),
            batch,
        };
        let payload = commit_payload(ClusterId(0), 5, &digest);
        let commits = (0..commits as u16)
            .map(|i| {
                let r = ReplicaId::new(0, i);
                let signer = fx.ks.register(NodeId::Replica(r));
                CommitSig {
                    replica: r,
                    sig: signer.sign(&payload),
                }
            })
            .collect();
        CommitCertificate {
            cluster: ClusterId(0),
            round: 5,
            digest,
            batch: sb,
            commits,
        }
    }

    #[test]
    fn valid_certificate_verifies() {
        let fx = fixture();
        let cert = make_cert(&fx, 3); // n=4, f=1, quorum=3
        assert!(cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn too_few_commits_rejected() {
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.commits.pop();
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn duplicate_signers_rejected() {
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.commits[1] = cert.commits[0].clone();
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn foreign_cluster_signer_rejected() {
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.commits[0].replica = ReplicaId::new(1, 0);
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn tampered_batch_rejected() {
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.batch.batch.txns.make_mut()[0].op = Operation::NoOp;
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn tampered_signature_rejected() {
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.commits[0].sig = Signature([1u8; 64]);
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn wrong_round_rejected() {
        // Signatures were made for round 5; presenting the cert as round 6
        // must fail (prevents replay into other rounds).
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.round = 6;
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn out_of_range_cluster_rejected() {
        let fx = fixture();
        let mut cert = make_cert(&fx, 3);
        cert.cluster = ClusterId(9);
        assert!(!cert.verify(&fx.cfg, &fx.crypto));
    }

    #[test]
    fn wire_size_matches_paper() {
        let fx = fixture();
        let cert = make_cert(&fx, 3);
        assert_eq!(cert.wire_size(), wire::certificate_bytes(1, 3));
    }
}
