//! The full report: every workload run as child processes of this binary
//! (each child is one `--workload` run, so peak RSS, CPU time and stalls
//! are isolated per run), interleaved round-robin so host drift hits all
//! workloads equally, summarised as medians with spreads and stamped
//! with what the numbers were measured on.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::{host_steal, median, spread, steal_pct};
use crate::workloads::{WARMUP, WORKLOADS};
use serde::value::Value;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::process::Command;

/// Untraced repeats per workload; an end-to-end number is their median.
const REPEATS: usize = 3;
/// Host steal above this marks the whole report `disturbed`.
const STEAL_LIMIT_PCT: f64 = 10.0;

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    let value = serde_json::from_str_value(line).ok()?;
    let map = value.as_map()?;
    let metrics = field(map, "metrics")?
        .as_map()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), number(field(m.as_map()?, "value")?)?)))
        .collect();
    Some(ChildResult {
        correct: matches!(field(map, "correct")?, Value::Bool(true)),
        attempted: number(field(map, "attempted")?)? as u64,
        failed: number(field(map, "failed")?)? as u64,
        metrics,
    })
}

/// Run one workload once in a child process. A child ends itself when
/// the fabric stalls (the watchdog in `main.rs`), so waiting is bounded.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = parse_result_line(stdout.lines().last()?)?;
    Some(ChildResult {
        correct: result.correct && output.status.success(),
        ..result
    })
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run and print the full report; returns the process exit code.
pub fn run(seed: u64, seconds: u64, quick: bool) -> i32 {
    let repeats = if quick { 1 } else { REPEATS };
    let steal_before = host_steal();
    let mut untraced: Vec<Vec<ChildResult>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Option<ChildResult>> = WORKLOADS.iter().map(|_| None).collect();
    let mut all_correct = true;
    for round in 0..=repeats {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let is_traced = round == repeats;
            eprintln!(
                "bench_report: {} run {}/{}{}",
                w.name,
                round + 1,
                repeats + 1,
                if is_traced { " (traced)" } else { "" }
            );
            match run_child(w.name, seed, seconds, is_traced, quick) {
                Some(r) => {
                    all_correct &= r.correct && r.failed == 0;
                    if is_traced {
                        traced[i] = Some(r);
                    } else {
                        untraced[i].push(r);
                    }
                }
                None => {
                    eprintln!("bench_report: {}: child printed no result", w.name);
                    all_correct = false;
                }
            }
        }
    }
    let steal = steal_pct(steal_before, host_steal());

    let mut body = String::new();
    let mut disturbed = steal > STEAL_LIMIT_PCT;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(body, "\n== {} — {}", w.name, w.why);
        let _ = writeln!(
            body,
            "  end-to-end (median of {} untraced runs; spread = (max-min)/median)",
            untraced[i].len()
        );
        for (name, unit, _, bound) in END_TO_END {
            let values: Vec<f64> = untraced[i]
                .iter()
                .filter_map(|r| r.metrics.get(*name).copied())
                .collect();
            let s = spread(&values);
            let over = s > *bound;
            disturbed |= over;
            let _ = writeln!(
                body,
                "    {name:<44} {:>14.4} {unit:<6} spread {:>5.1}%  bound {:>4.1}%{}",
                median(&values),
                s * 100.0,
                bound * 100.0,
                if over { "  SPREAD OVER BOUND" } else { "" },
            );
        }
        let runs = untraced[i].iter().chain(traced[i].iter());
        let (attempted, failed) = runs.fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        let _ = writeln!(
            body,
            "    {:<44} {:>14.4} {:<6} ({failed} of {attempted} batches, all runs)",
            "failed_ops_pct",
            100.0 * failed as f64 / attempted.max(1) as f64,
            "%",
        );
        let _ = writeln!(body, "  per-layer (the traced run)");
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = traced[i].as_ref().and_then(|r| r.metrics.get(*name)) {
                let _ = writeln!(body, "    {name:<44} {v:>14.4} {unit}");
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "bench_report rev={} nproc={cores} window={seconds}s warmup={}s seed={seed} repeats={repeats} steal={steal:.1}%{}{}",
        git_rev(),
        WARMUP.as_secs(),
        if quick { " NOT-COMPARABLE(--quick)" } else { "" },
        if disturbed { " DISTURBED" } else { "" },
    );
    print!("{body}");
    println!(
        "\ncorrectness: {}",
        if all_correct {
            "every check passed"
        } else {
            "FAILED (see stderr)"
        }
    );
    i32::from(!all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;
    use std::collections::HashSet;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(well_formed(name), "metric name {name}");
            assert!(seen.insert(name), "metric name {name} used twice");
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok),
                "unit {unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(
                well_formed(w.name) && seen.insert(w.name),
                "workload name {}",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "why of {}",
                w.name
            );
            assert!(find(w.name).is_some());
        }
        for (name, _, better, bound) in END_TO_END {
            assert!(["higher", "lower"].contains(better));
            assert!(*bound > 0.0 && *bound <= 0.25, "bound of {name}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s carries the largest bound"
        );
    }

    fn text<'a>(map: &'a [(String, Value)], key: &str) -> &'a str {
        match field(map, key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn rows<'a>(root: &'a [(String, Value)], key: &str) -> Vec<&'a [(String, Value)]> {
        let seq = field(root, key).and_then(Value::as_seq).expect(key);
        seq.iter().map(|row| row.as_map().expect(key)).collect()
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert!(on_disk.len() <= 64 * 1024);
        let root = serde_json::from_str_value(&on_disk).expect("BENCHMARK.json parses");
        let root = root.as_map().unwrap();
        assert_eq!(
            field(root, "run_seconds").and_then(number),
            Some(crate::RUN_SECONDS as f64)
        );
        let workloads: Vec<(&str, &str)> = rows(root, "workloads")
            .into_iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, want);
        let end_to_end: Vec<(&str, &str, &str, f64)> = rows(root, "end_to_end")
            .into_iter()
            .map(|m| {
                let bound = field(m, "bound").and_then(number).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        assert_eq!(end_to_end, END_TO_END);
        let per_layer: Vec<(&str, &str, &str)> = rows(root, "per_layer")
            .into_iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        assert_eq!(per_layer, PER_LAYER);
    }

    #[test]
    fn result_lines_round_trip_through_the_parser() {
        let line = crate::result_json(
            true,
            12,
            0,
            &[("setup_s", 0.5), ("rss_first_50ktxn_mb", 321.25)],
        );
        let r = parse_result_line(&line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert_eq!(r.metrics["rss_first_50ktxn_mb"], 321.25);
        // A run with no commit in its window has NaN metrics; they are
        // left out and the counts still arrive.
        let line = crate::result_json(
            false,
            7,
            7,
            &[("commit_p50_ms", f64::NAN), ("setup_s", 0.5)],
        );
        let r = parse_result_line(&line).unwrap();
        assert_eq!((r.correct, r.attempted, r.failed), (false, 7, 7));
        assert_eq!(r.metrics.keys().collect::<Vec<_>>(), ["setup_s"]);
        assert!(parse_result_line("not json").is_none());
        assert!(
            !parse_result_line(&crate::result_json(false, 1, 1, &[]))
                .unwrap()
                .correct
        );
    }
}
