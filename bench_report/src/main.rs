//! `bench_report`: the end-to-end + per-layer benchmark of the fabric.
//!
//! ```text
//! bench_report --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload. The last line of stdout is one JSON
//!     object: {"correct", "attempted", "failed", "metrics"}; --trace 0
//!     carries the end-to-end metrics, --trace 1 the per-layer metrics.
//! bench_report [--seed <n>] [--seconds <s>] [--quick]
//!     The full report: every workload, 3 untraced + 1 traced child
//!     runs each, medians with spreads and a noise stamp.
//! ```
//!
//! Exit code 0 only when every correctness check passed. See README.md
//! next to `Cargo.toml` for the glossary and the calibration.

mod catalog;
mod fabric;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use fabric::{Counters, RunResult, RunSpec};
use layers::ReplaySize;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;
use workloads::{Workload, WARMUP};

/// Measured window of one run, in seconds (`run_seconds`).
const RUN_SECONDS: u64 = 10;
/// Boots per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Idle time before a run touches the fabric. On the calibration host a
/// run inherits its predecessor's CPU state: straight after 15 s of two
/// busy cores (another workload's run, a build, a plain spin loop) the
/// open-loop workload costs 110–120 µs of CPU per transaction, after 5 s
/// of idleness 60 µs. Settling first makes a run independent of whatever
/// ran before it; `--quick` smoke runs skip it.
const SETTLE: Duration = Duration::from_secs(5);
/// Everything a healthy run does outside warm-up and window — boots,
/// shutdown, audits, the layer replay — fits in this with room to spare.
/// The watchdog ends the run 20 s after budget: a stalled fabric (an open
/// loop blocked in `submit` never returns) yields a number, never a hang.
const OVERHEAD_BUDGET: Duration = Duration::from_secs(70);
const WATCHDOG_GRACE: Duration = Duration::from_secs(20);

/// Where the benchmark may write: durable data, replay engines, traces.
/// Next to the running binary, so inside the build directory wherever cargo
/// was told to put it, which is inside the checkout and git-ignored.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .expect("the running binary has a path")
        .with_file_name("bench_report.out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        quick: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The driver-facing result line. A value that is not finite has no JSON
/// form and is left out: the run that produced it is already incorrect.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .filter(|(_, value)| value.is_finite())
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                catalog::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Everything a traced run prints: the fabric run's layer metrics, the
/// layer replay's, and the span count.
fn traced_metrics(
    w: &Workload,
    seed: u64,
    size: ReplaySize,
    mut layers: Vec<(&'static str, f64)>,
    end_to_end: &[(&'static str, f64)],
    out_dir: &Path,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let measured = end_to_end
        .iter()
        .find(|m| m.0 == "throughput_txn_s")
        .map_or(f64::NAN, |m| m.1);
    layers.extend(layers::replay(w, seed, size, measured, out_dir, tracer));
    layers.push(("trace.spans", tracer.spans().len() as f64));
    layers
}

/// Run one workload once in this process and print the result line.
/// Returns the process exit code.
fn run_once(w: &'static Workload, seed: u64, window: Duration, traced: bool, quick: bool) -> i32 {
    let size = if quick {
        ReplaySize::QUICK
    } else {
        ReplaySize::FULL
    };
    let out_dir = out_dir();
    let counters = Arc::new(Counters::default());
    let watchdog = Arc::clone(&counters);
    let settle = if quick { Duration::ZERO } else { SETTLE };
    let deadline = settle + WARMUP + window + OVERHEAD_BUDGET + WATCHDOG_GRACE;
    let scratch = out_dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!(
            "bench_report: {} still running after {deadline:?}: the fabric stalled",
            w.name
        );
        let attempted = watchdog.attempted.load(Relaxed).max(1);
        println!(
            "{}",
            result_json(false, attempted, watchdog.failed().max(1), &[])
        );
        fabric::remove_data_dirs(&scratch);
        std::process::exit(1);
    });

    std::thread::sleep(settle);
    let tracer = Tracer::new(traced);
    let spec = RunSpec {
        workload: w,
        seed,
        warmup: WARMUP,
        window,
        setups: if traced { 1 } else { SETUPS },
        traced,
        out_dir: &out_dir,
    };
    let RunResult {
        end_to_end,
        layers,
        mut violations,
    } = fabric::run(&spec, &tracer, &counters);
    let metrics = if traced {
        let layers = traced_metrics(w, seed, size, layers, &end_to_end, &out_dir, &tracer);
        let path = out_dir.join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = trace::write_jsonl(&path, &tracer.spans()) {
            violations.push(format!("write {}: {e}", path.display()));
        }
        layers
    } else {
        end_to_end
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            violations.push(format!("metric {name} is {value}"));
        }
    }
    for v in &violations {
        eprintln!("bench_report: {}: VIOLATION: {v}", w.name);
    }
    let line = result_json(
        violations.is_empty(),
        counters.attempted.load(Relaxed).max(1),
        counters.failed(),
        &metrics,
    );
    println!("{line}");
    i32::from(!violations.is_empty())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_report: {e}");
            std::process::exit(2);
        }
    };
    let seconds = if args.quick { 1 } else { args.seconds };
    let code = match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(w) => run_once(
                w,
                args.seed,
                Duration::from_secs(seconds),
                args.traced,
                args.quick,
            ),
            None => {
                eprintln!("bench_report: no workload called {name}");
                2
            }
        },
        None => report::run(args.seed, seconds, args.quick),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload geobft_tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("geobft_tcp"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10, true));
        assert!(args("--seconds 0").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_json(
            true,
            1000,
            0,
            &[("setup_s", 0.8127), ("commit_p50_ms", 1.5)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"commit_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    /// `--quick` smoke run of the headline workload, traced, through the
    /// whole pipeline: fabric run, correctness gate, layer replay, trace
    /// file. 1 s is also the smallest window `--seconds` accepts: too short
    /// to reach the memory mark, and the run must be correct all the same.
    /// Numbers from a 1 s window are not comparable to anything.
    #[test]
    fn quick_geobft_mem_run_is_correct_and_complete() {
        let w = workloads::find("geobft_mem").unwrap();
        let out_dir = out_dir().join(format!("test-{}", std::process::id()));
        let tracer = Tracer::new(true);
        let counters = Counters::default();
        let spec = RunSpec {
            workload: w,
            seed: 3,
            warmup: Duration::from_millis(300),
            window: Duration::from_secs(1),
            setups: 1,
            traced: true,
            out_dir: &out_dir,
        };
        let result = fabric::run(&spec, &tracer, &counters);
        assert_eq!(result.violations, Vec::<String>::new());
        assert_eq!(counters.failed(), 0);
        let names: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(
            result.end_to_end.iter().map(|m| m.0).collect::<Vec<_>>(),
            names
        );
        assert!(result
            .end_to_end
            .iter()
            .all(|m| m.1.is_finite() && m.1 > 0.0));

        let layers = traced_metrics(
            w,
            3,
            ReplaySize::QUICK,
            result.layers,
            &result.end_to_end,
            &out_dir,
            &tracer,
        );
        let mut got: Vec<&str> = layers.iter().map(|m| m.0).collect();
        let mut want: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "a traced run emits exactly the per-layer catalogue"
        );
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
