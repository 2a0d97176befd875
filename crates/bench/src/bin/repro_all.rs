//! Run every reproduction in sequence (tables, figures, ablation).
//!
//! `cargo run --release -p rdb-bench --bin repro_all [-- --quick]`
//!
//! Pass `--quick` for a fast smoke pass (fewer data points, shorter
//! simulation windows).

#![forbid(unsafe_code)]

use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let bins = [
        "repro_table1",
        "repro_table2",
        "repro_fig10",
        "repro_fig11",
        "repro_fig12",
        "repro_fig13",
        "ablation_fanout",
        "repro_scenarios",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in bins {
        println!();
        println!("########################################################");
        println!("# {bin}");
        println!("########################################################");
        let mut cmd = Command::new(dir.join(bin));
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e} (build with --release first)"));
        assert!(status.success(), "{bin} failed");
    }
    println!();
    println!("all reproductions complete.");
}
