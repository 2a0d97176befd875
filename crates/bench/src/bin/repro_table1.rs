//! Table 1 reproduction: inter- and intra-region round-trip times and
//! bandwidths.
//!
//! The paper *measured* these on Google Cloud; we *configure* the
//! simulator with them (docs/ARCHITECTURE.md, "Table 1 → the simulated
//! topology"). This binary validates the network substrate: it prints the
//! configured matrix in the paper's format and then checks that the
//! simulator's effective one-way delay and per-flow transfer rate of
//! every region pair match the configuration.

use rdb_common::region::Region;
use rdb_common::time::SimDuration;
use rdb_simnet::topology::{Topology, TABLE1_BW_MBIT, TABLE1_RTT_MS};

fn main() {
    let regions = Region::PAPER_ORDER;
    let topo = Topology::paper(&regions);
    assert_eq!(TABLE1_RTT_MS.len(), regions.len(), "RTT matrix rows");
    assert_eq!(TABLE1_RTT_MS[0].len(), regions.len(), "RTT matrix columns");
    assert_eq!(TABLE1_BW_MBIT.len(), regions.len(), "bandwidth matrix rows");
    assert_eq!(
        TABLE1_BW_MBIT[0].len(),
        regions.len(),
        "bandwidth matrix columns"
    );

    println!("==== Table 1: ping round-trip times (ms) ====");
    print!("{:>10}", "");
    for r in &regions {
        print!("{:>9}", r.abbrev());
    }
    println!();
    for (i, r) in regions.iter().enumerate() {
        print!("{:>10}", r.to_string());
        for (j, rtt) in TABLE1_RTT_MS[i].iter().enumerate() {
            if j < i {
                print!("{:>9}", "");
            } else if i == j {
                print!("{:>9}", "<=1");
            } else {
                print!("{rtt:>9.0}");
            }
        }
        println!();
    }

    println!();
    println!("==== Table 1: bandwidth (Mbit/s) ====");
    print!("{:>10}", "");
    for r in &regions {
        print!("{:>9}", r.abbrev());
    }
    println!();
    for (i, r) in regions.iter().enumerate() {
        print!("{:>10}", r.to_string());
        for (j, bw) in TABLE1_BW_MBIT[i].iter().enumerate() {
            if j < i {
                print!("{:>9}", "");
            } else {
                print!("{bw:>9.0}");
            }
        }
        println!();
    }

    // Validate the simulator reproduces the configuration.
    println!();
    println!("==== simulator validation ====");
    let mut worst_lat_err: f64 = 0.0;
    let mut worst_bw_err: f64 = 0.0;
    for i in 0..regions.len() {
        for j in 0..regions.len() {
            if i == j {
                continue;
            }
            // One-way delay must be RTT/2.
            let lat = topo.latency(i, j).as_millis_f64();
            let expect = TABLE1_RTT_MS[i][j] / 2.0;
            worst_lat_err = worst_lat_err.max((lat - expect).abs());
            // Per-flow rate: serialize 1 MB and compare.
            let d = topo.pipe_ser_delay(i, j, 1_000_000);
            let measured_mbit = 8.0 / d.as_secs_f64();
            let cfg_mbit = TABLE1_BW_MBIT[i.min(j)][i.max(j)];
            worst_bw_err = worst_bw_err.max((measured_mbit - cfg_mbit).abs() / cfg_mbit);
        }
    }
    println!("max one-way latency error vs RTT/2:        {worst_lat_err:.6} ms");
    println!(
        "max per-flow bandwidth relative error:     {:.6}%",
        worst_bw_err * 100.0
    );
    println!(
        "latency ratio global/local (paper: 33x-270x): {:.0}x .. {:.0}x",
        TABLE1_RTT_MS[0][1] / 1.0,
        TABLE1_RTT_MS[3][5] / 1.0
    );
    assert!(worst_lat_err < 1e-3, "latency model mismatch");
    assert!(worst_bw_err < 1e-3, "bandwidth model mismatch");

    let one_way = SimDuration::from_micros(80_500);
    println!("Oregon -> Sydney one-way (configured): {one_way} (Table 1: RTT 161 ms / 2)");
    println!("network substrate matches Table 1. OK");
}
