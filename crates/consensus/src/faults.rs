//! Fault injection for the failure experiments (§4.3 of the paper): one
//! fault script that both runtimes read. The simulator consults a
//! [`FaultState`] on every send and delivery in virtual time; the
//! threaded fabric's transport router consults the same state at the same
//! two points, timed in the `SimTime` since deployment start its replicas'
//! timers report. Byzantine behaviour is not a fault here: it is a
//! protocol wrapper ([`crate::adversary`]).

use rdb_common::ids::ReplicaId;
use rdb_common::time::SimTime;

/// A fault to inject during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Crash-stop a replica at `at`: from then on it neither receives nor
    /// sends. Used for the single-non-primary, f-per-cluster and
    /// primary-failure scenarios of Figure 12.
    Crash {
        /// The replica to crash.
        replica: ReplicaId,
        /// Time of the crash, since deployment start.
        at: SimTime,
    },
    /// Drop every message between two replicas (asymmetric link failure /
    /// partition building block), starting at `from_time` and healing at
    /// `until` (`None` = never heals).
    DropLink {
        /// Sender side.
        a: ReplicaId,
        /// Receiver side.
        b: ReplicaId,
        /// When the link goes dark.
        from_time: SimTime,
        /// When the link heals (exclusive); `None` for a permanent cut.
        until: Option<SimTime>,
    },
}

impl FaultSpec {
    /// Convenience: crash at a given virtual second.
    pub fn crash_at_secs(replica: ReplicaId, secs: f64) -> FaultSpec {
        FaultSpec::Crash {
            replica,
            at: SimTime((secs * 1e9) as u64),
        }
    }

    /// Convenience: a permanent directional link cut.
    pub fn drop_link(a: ReplicaId, b: ReplicaId, from_time: SimTime) -> FaultSpec {
        FaultSpec::DropLink {
            a,
            b,
            from_time,
            until: None,
        }
    }

    /// A full bidirectional partition between two replica groups over
    /// `[from, until)`: every cross-group link drops in both directions,
    /// then heals. Retransmission timers re-deliver what was lost, so a
    /// healed partition must converge back to one ledger — the scenario
    /// suite asserts exactly that.
    pub fn partition(
        side_a: &[ReplicaId],
        side_b: &[ReplicaId],
        from: SimTime,
        until: SimTime,
    ) -> Vec<FaultSpec> {
        let mut out = Vec::with_capacity(side_a.len() * side_b.len() * 2);
        for &a in side_a {
            for &b in side_b {
                for (x, y) in [(a, b), (b, a)] {
                    out.push(FaultSpec::DropLink {
                        a: x,
                        b: y,
                        from_time: from,
                        until: Some(until),
                    });
                }
            }
        }
        out
    }
}

/// The read-only fault schedule a runtime consults on every send and
/// delivery.
#[derive(Debug, Default)]
pub struct FaultState {
    crashes: Vec<(ReplicaId, SimTime)>,
    drops: Vec<(ReplicaId, ReplicaId, SimTime, Option<SimTime>)>,
}

impl FaultState {
    /// Build from specs.
    pub fn new(specs: &[FaultSpec]) -> FaultState {
        let mut fs = FaultState::default();
        for s in specs {
            match s {
                FaultSpec::Crash { replica, at } => fs.crashes.push((*replica, *at)),
                FaultSpec::DropLink {
                    a,
                    b,
                    from_time,
                    until,
                } => fs.drops.push((*a, *b, *from_time, *until)),
            }
        }
        fs
    }

    /// Is the replica crashed at `now`?
    pub fn is_crashed(&self, r: ReplicaId, now: SimTime) -> bool {
        self.crashes.iter().any(|(c, at)| *c == r && now >= *at)
    }

    /// Should a message from `a` to `b` be dropped at `now`?
    pub fn is_dropped(&self, a: ReplicaId, b: ReplicaId, now: SimTime) -> bool {
        self.drops.iter().any(|(x, y, at, until)| {
            *x == a && *y == b && now >= *at && until.is_none_or(|u| now < u)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_takes_effect_at_time() {
        let r = ReplicaId::new(0, 1);
        let fs = FaultState::new(&[FaultSpec::crash_at_secs(r, 1.0)]);
        assert!(!fs.is_crashed(r, SimTime(999_999_999)));
        assert!(fs.is_crashed(r, SimTime(1_000_000_000)));
        assert!(!fs.is_crashed(ReplicaId::new(0, 2), SimTime(2_000_000_000)));
    }

    #[test]
    fn link_drops_are_directional() {
        let a = ReplicaId::new(0, 0);
        let b = ReplicaId::new(1, 0);
        let fs = FaultState::new(&[FaultSpec::drop_link(a, b, SimTime::ZERO)]);
        assert!(fs.is_dropped(a, b, SimTime(1)));
        assert!(!fs.is_dropped(b, a, SimTime(1)));
    }

    #[test]
    fn partitions_heal() {
        let a = ReplicaId::new(0, 0);
        let b = ReplicaId::new(0, 1);
        let specs = FaultSpec::partition(&[a], &[b], SimTime(100), SimTime(200));
        assert_eq!(specs.len(), 2, "both directions cut");
        let fs = FaultState::new(&specs);
        assert!(!fs.is_dropped(a, b, SimTime(99)));
        assert!(fs.is_dropped(a, b, SimTime(100)));
        assert!(fs.is_dropped(b, a, SimTime(199)));
        assert!(!fs.is_dropped(a, b, SimTime(200)), "healed");
        assert!(!fs.is_dropped(b, a, SimTime(250)));
    }

    #[test]
    fn overlapping_partitions_heal_independently() {
        let a = ReplicaId::new(0, 0);
        let b = ReplicaId::new(0, 1);
        let mut specs = FaultSpec::partition(&[a], &[b], SimTime(0), SimTime(100));
        specs.extend(FaultSpec::partition(&[a], &[b], SimTime(50), SimTime(300)));
        let fs = FaultState::new(&specs);
        assert!(fs.is_dropped(a, b, SimTime(10)));
        // The short window healed but the long one still cuts.
        assert!(fs.is_dropped(a, b, SimTime(150)));
        assert!(fs.is_dropped(b, a, SimTime(299)));
        assert!(!fs.is_dropped(a, b, SimTime(300)), "both healed");
    }
}
