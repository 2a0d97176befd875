//! Network topology calibrated to Table 1 of the paper.
//!
//! "Real-world inter- and intra-cluster communication costs in terms of
//! the ping round-trip times (which determines latency) and bandwidth
//! (which determines throughput). These measurements are taken in Google
//! Cloud using clusters of n1 machines (replicas) that are deployed in six
//! different regions."

use rdb_common::region::Region;
use rdb_common::time::SimDuration;

/// Table 1 ping round-trip times in milliseconds, indexed `[from][to]` in
/// paper order (O, I, M, B, T, S). Intra-region RTT is "≤ 1 ms"; we use
/// 0.6 ms.
pub const TABLE1_RTT_MS: [[f64; 6]; 6] = [
    [0.6, 38.0, 65.0, 136.0, 118.0, 161.0],
    [38.0, 0.6, 33.0, 98.0, 153.0, 172.0],
    [65.0, 33.0, 0.6, 82.0, 186.0, 202.0],
    [136.0, 98.0, 82.0, 0.6, 252.0, 270.0],
    [118.0, 153.0, 186.0, 252.0, 0.6, 137.0],
    [161.0, 172.0, 202.0, 270.0, 137.0, 0.6],
];

/// Table 1 bandwidth in Mbit/s, same indexing.
pub const TABLE1_BW_MBIT: [[f64; 6]; 6] = [
    [7998.0, 669.0, 371.0, 194.0, 188.0, 136.0],
    [669.0, 10004.0, 752.0, 243.0, 144.0, 120.0],
    [371.0, 752.0, 7977.0, 283.0, 111.0, 102.0],
    [194.0, 243.0, 283.0, 9728.0, 79.0, 66.0],
    [188.0, 144.0, 111.0, 79.0, 7998.0, 160.0],
    [136.0, 120.0, 102.0, 66.0, 160.0, 7977.0],
];

/// A deployment topology: pairwise latency and bandwidth between regions.
#[derive(Debug, Clone)]
pub struct Topology {
    /// One-way latency between regions, nanoseconds, `[from][to]`.
    latency_ns: Vec<Vec<u64>>,
    /// Region-pair pipe bandwidth, bytes per second, `[from][to]`.
    bandwidth_bps: Vec<Vec<f64>>,
    /// Per-node aggregate WAN egress in bytes per second. Models the
    /// practical per-VM cross-region egress (cloud VMs cap well below NIC
    /// line rate across regions); this is the resource that throttles a
    /// single busy primary (§4.4).
    pub node_wan_egress_bps: f64,
    /// Per-node intra-region NIC bandwidth in bytes per second.
    pub node_nic_bps: f64,
    regions: Vec<Region>,
}

impl Topology {
    /// The paper's six-region Google Cloud topology (Table 1). Works for
    /// any number of regions: synthetic regions past the sixth reuse the
    /// Sydney row (most remote).
    pub fn paper(regions: &[Region]) -> Topology {
        let idx = |r: &Region| r.table1_index().unwrap_or(5);
        let k = regions.len();
        let mut latency_ns = vec![vec![0u64; k]; k];
        let mut bandwidth_bps = vec![vec![0f64; k]; k];
        for a in 0..k {
            for b in 0..k {
                let (ia, ib) = (idx(&regions[a]), idx(&regions[b]));
                let rtt_ms = if a == b { 0.6 } else { table1_rtt(ia, ib) };
                let bw_mbit = if a == b {
                    TABLE1_BW_MBIT[ia][ia]
                } else {
                    TABLE1_BW_MBIT[ia][ib]
                };
                latency_ns[a][b] = ((rtt_ms / 2.0) * 1e6) as u64;
                bandwidth_bps[a][b] = bw_mbit * 1e6 / 8.0;
            }
        }
        Topology {
            latency_ns,
            bandwidth_bps,
            // 480 Mbit/s aggregate WAN egress per VM: calibrated so that a
            // single PBFT primary saturates around the decision rates the
            // paper reports (§4.4); see docs/ARCHITECTURE.md, "Table 1 →
            // the simulated topology".
            node_wan_egress_bps: 480e6 / 8.0,
            // Intra-region NIC ~8 Gbit/s (Table 1 diagonal).
            node_nic_bps: 8e9 / 8.0,
            regions: regions.to_vec(),
        }
    }

    /// A uniform synthetic topology (tests): same latency/bandwidth
    /// between all distinct regions.
    pub fn uniform(
        regions: &[Region],
        one_way: SimDuration,
        wan_mbit: f64,
        local_mbit: f64,
    ) -> Topology {
        let k = regions.len();
        let mut latency_ns = vec![vec![0u64; k]; k];
        let mut bandwidth_bps = vec![vec![0f64; k]; k];
        for a in 0..k {
            for b in 0..k {
                if a == b {
                    latency_ns[a][b] = 300_000; // 0.3 ms one-way
                    bandwidth_bps[a][b] = local_mbit * 1e6 / 8.0;
                } else {
                    latency_ns[a][b] = one_way.as_nanos();
                    bandwidth_bps[a][b] = wan_mbit * 1e6 / 8.0;
                }
            }
        }
        Topology {
            latency_ns,
            bandwidth_bps,
            node_wan_egress_bps: 480e6 / 8.0,
            node_nic_bps: 8e9 / 8.0,
            regions: regions.to_vec(),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Region list.
    pub fn region_list(&self) -> &[Region] {
        &self.regions
    }

    /// One-way latency between two region indices.
    pub fn latency(&self, from: usize, to: usize) -> SimDuration {
        SimDuration(self.latency_ns[from][to])
    }

    /// Region-pair pipe bandwidth in bytes/second.
    pub fn bandwidth_bps(&self, from: usize, to: usize) -> f64 {
        self.bandwidth_bps[from][to]
    }

    /// Serialization delay of `bytes` on the pair pipe.
    pub fn pipe_ser_delay(&self, from: usize, to: usize, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps[from][to])
    }
}

fn table1_rtt(a: usize, b: usize) -> f64 {
    TABLE1_RTT_MS[a][b]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper6() -> Topology {
        Topology::paper(&Region::PAPER_ORDER)
    }

    #[test]
    fn oregon_sydney_latency_matches_table1() {
        let t = paper6();
        // RTT 161 ms -> one-way 80.5 ms.
        assert_eq!(t.latency(0, 5).as_millis_f64(), 80.5);
        assert_eq!(t.latency(5, 0).as_millis_f64(), 80.5);
    }

    #[test]
    fn belgium_sydney_is_the_worst_link() {
        let t = paper6();
        let mut max = SimDuration::ZERO;
        for a in 0..6 {
            for b in 0..6 {
                if t.latency(a, b) > max {
                    max = t.latency(a, b);
                }
            }
        }
        assert_eq!(max, t.latency(3, 5)); // B <-> S, 270 ms RTT
    }

    #[test]
    fn bandwidth_is_symmetric_and_matches_table1() {
        let t = paper6();
        // O -> B: 194 Mbit/s.
        let bw = t.bandwidth_bps(0, 3);
        assert!((bw - 194e6 / 8.0).abs() < 1.0);
        assert_eq!(t.bandwidth_bps(0, 3), t.bandwidth_bps(3, 0));
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let t = paper6();
        let small = t.pipe_ser_delay(0, 3, 250);
        let large = t.pipe_ser_delay(0, 3, 5400);
        assert!(large > small * 20);
        // 5.4 kB over 194 Mbit/s ≈ 0.22 ms.
        assert!((large.as_millis_f64() - 0.2227).abs() < 0.01);
    }

    #[test]
    fn latency_ratios_match_paper_claim() {
        // §1.1: "global message latencies are at least 33-270 times higher
        // than local latencies".
        let t = paper6();
        let local = t.latency(0, 0).as_millis_f64();
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    let ratio = t.latency(a, b).as_millis_f64() * 2.0 / (local * 2.0);
                    assert!(ratio >= 33.0, "{a}->{b} ratio {ratio}");
                    assert!(ratio <= 500.0);
                }
            }
        }
    }

    #[test]
    fn extra_regions_fall_back_to_sydney_profile() {
        let regions = [
            Region::Oregon,
            Region::Iowa,
            Region::Montreal,
            Region::Belgium,
            Region::Taiwan,
            Region::Sydney,
            Region::Custom(6),
        ];
        let t = Topology::paper(&regions);
        assert_eq!(t.regions(), 7);
        assert_eq!(t.latency(0, 6), t.latency(0, 5));
    }

    #[test]
    fn uniform_topology_is_uniform() {
        let regions = [Region::Custom(0), Region::Custom(1), Region::Custom(2)];
        let t = Topology::uniform(&regions, SimDuration::from_millis(50), 200.0, 8000.0);
        assert_eq!(t.latency(0, 1), t.latency(1, 2));
        assert_eq!(t.latency(0, 0).as_millis_f64(), 0.3);
    }
}
