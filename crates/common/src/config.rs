//! System configuration: `z` clusters of `n` replicas with at most `f`
//! Byzantine replicas per cluster, `n > 3f` (§2.1, Remark 2.1).

use crate::error::{RdbError, RdbResult};
use crate::ids::{ClusterId, ReplicaId};
use crate::region::Region;
use serde::{Deserialize, Serialize};

/// Static description of a deployment: how many clusters, how many replicas
/// per cluster, and which region each cluster lives in.
///
/// The failure model follows the paper exactly: every cluster has the same
/// size `n`, at most `f = floor((n-1)/3)` replicas per cluster may be
/// Byzantine, and the system tolerates `f·z` failures in total (at most `f`
/// per cluster) — see Remark 2.1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of clusters `z` (one per region).
    pub clusters: usize,
    /// Replicas per cluster `n`; must satisfy `n > 3f`, i.e. `n >= 4`.
    pub replicas_per_cluster: usize,
    /// Region of each cluster; length must equal `clusters`.
    pub regions: Vec<Region>,
}

impl SystemConfig {
    /// Build a configuration placing clusters in the paper's region order
    /// (Oregon, Iowa, Montreal, Belgium, Taiwan, Sydney, then synthetic
    /// regions past six).
    pub fn geo(clusters: usize, replicas_per_cluster: usize) -> RdbResult<Self> {
        let regions = (0..clusters)
            .map(|i| {
                Region::PAPER_ORDER
                    .get(i)
                    .copied()
                    .unwrap_or(Region::Custom(i as u16))
            })
            .collect();
        let cfg = Self {
            clusters,
            replicas_per_cluster,
            regions,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Build a single-cluster configuration (the `z = 1` baseline of
    /// Figure 10) in Oregon.
    pub fn single_cluster(replicas: usize) -> RdbResult<Self> {
        Self::geo(1, replicas)
    }

    /// Validate the `n > 3f` requirement and the region list.
    pub fn validate(&self) -> RdbResult<()> {
        if self.clusters == 0 {
            return Err(RdbError::Config("need at least one cluster".into()));
        }
        if self.replicas_per_cluster < 4 {
            return Err(RdbError::Config(format!(
                "n > 3f requires n >= 4 replicas per cluster, got {}",
                self.replicas_per_cluster
            )));
        }
        if self.regions.len() != self.clusters {
            return Err(RdbError::Config(format!(
                "{} regions given for {} clusters",
                self.regions.len(),
                self.clusters
            )));
        }
        Ok(())
    }

    /// `z`, the number of clusters.
    #[inline]
    pub fn z(&self) -> usize {
        self.clusters
    }

    /// `n`, the number of replicas in each cluster.
    #[inline]
    pub fn n(&self) -> usize {
        self.replicas_per_cluster
    }

    /// `f`, the maximum number of Byzantine replicas tolerated per cluster:
    /// the largest `f` with `n > 3f`.
    #[inline]
    pub fn f(&self) -> usize {
        (self.replicas_per_cluster - 1) / 3
    }

    /// The PBFT-style strong quorum `n - f` used for prepare/commit
    /// certificates and DRVC agreement.
    #[inline]
    pub fn quorum(&self) -> usize {
        self.replicas_per_cluster - self.f()
    }

    /// The weak quorum `f + 1`: guarantees at least one non-faulty member.
    /// Used for the optimistic global sharing fanout and client reply
    /// acceptance.
    #[inline]
    pub fn weak_quorum(&self) -> usize {
        self.f() + 1
    }

    /// Total number of replicas `z * n`.
    #[inline]
    pub fn total_replicas(&self) -> usize {
        self.clusters * self.replicas_per_cluster
    }

    /// `F`, the failures tolerated when all `z * n` replicas form one
    /// group: the largest `F` with `z·n > 3F` (Remark 2.1 — the
    /// single-log protocols, and the pipeline checkpoint quorum).
    #[inline]
    pub fn global_f(&self) -> usize {
        (self.total_replicas() - 1) / 3
    }

    /// The strong quorum `z·n - F` over the whole deployment.
    #[inline]
    pub fn global_quorum(&self) -> usize {
        self.total_replicas() - self.global_f()
    }

    /// Whether `r` is one of this system's replicas.
    #[inline]
    pub fn contains(&self, r: ReplicaId) -> bool {
        r.cluster.as_usize() < self.clusters && (r.index as usize) < self.replicas_per_cluster
    }

    /// Region of a cluster.
    #[inline]
    pub fn region_of(&self, cluster: ClusterId) -> Region {
        self.regions[cluster.as_usize()]
    }

    /// Iterate over all cluster ids.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.clusters as u16).map(ClusterId)
    }

    /// Iterate over all replica ids of one cluster.
    pub fn replicas_of(&self, cluster: ClusterId) -> impl Iterator<Item = ReplicaId> + '_ {
        let n = self.replicas_per_cluster as u16;
        (0..n).map(move |i| ReplicaId { cluster, index: i })
    }

    /// Iterate over every replica id in the system, cluster-major.
    pub fn all_replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.cluster_ids()
            .flat_map(move |c| self.replicas_of(c).collect::<Vec<_>>())
    }

    /// The primary of a cluster for local PBFT view `v`: round-robin over
    /// the replica indices, as in PBFT's `p = v mod n`.
    #[inline]
    pub fn primary_of(&self, cluster: ClusterId, view: u64) -> ReplicaId {
        ReplicaId {
            cluster,
            index: (view % self.replicas_per_cluster as u64) as u16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_arithmetic_matches_paper() {
        // Example from Remark 2.1: n = 13 => f = 4.
        let cfg = SystemConfig::geo(7, 13).unwrap();
        assert_eq!(cfg.f(), 4);
        assert_eq!(cfg.quorum(), 9);
        assert_eq!(cfg.weak_quorum(), 5);
        assert_eq!(cfg.total_replicas(), 91);
        // GeoBFT tolerates f*z = 28 failures in total per the remark.
        assert_eq!(cfg.f() * cfg.z(), 28);
    }

    #[test]
    fn f_is_largest_with_n_gt_3f() {
        for n in 4..=40 {
            let cfg = SystemConfig::geo(2, n).unwrap();
            let f = cfg.f();
            assert!(n > 3 * f, "n={n} f={f}");
            assert!(n <= 3 * (f + 1), "f not maximal for n={n}");
        }
    }

    #[test]
    fn rejects_too_small_clusters() {
        assert!(SystemConfig::geo(2, 3).is_err());
        assert!(SystemConfig::geo(0, 4).is_err());
    }

    #[test]
    fn regions_follow_paper_order_then_custom() {
        let cfg = SystemConfig::geo(8, 4).unwrap();
        assert_eq!(cfg.region_of(ClusterId(0)), Region::Oregon);
        assert_eq!(cfg.region_of(ClusterId(5)), Region::Sydney);
        assert_eq!(cfg.region_of(ClusterId(6)), Region::Custom(6));
    }

    #[test]
    fn primary_rotates_round_robin() {
        let cfg = SystemConfig::geo(2, 4).unwrap();
        let c = ClusterId(1);
        assert_eq!(cfg.primary_of(c, 0).index, 0);
        assert_eq!(cfg.primary_of(c, 5).index, 1);
        assert_eq!(cfg.primary_of(c, 5).cluster, c);
    }

    #[test]
    fn replica_iteration_is_cluster_major() {
        let cfg = SystemConfig::geo(2, 4).unwrap();
        let all: Vec<ReplicaId> = cfg.all_replicas().collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], ReplicaId::new(0, 0));
        assert_eq!(all[4], ReplicaId::new(1, 0));
    }
}
