//! Shared infrastructure for the reproduction binaries: argument
//! handling, result tables, and JSON report emission.
//!
//! Every `repro_*` binary regenerates one table or figure of the paper
//! (see docs/ARCHITECTURE.md, "Reproduction binaries → figures", for the
//! index) and prints:
//!
//! 1. a human-readable table mirroring the paper's rows/series, and
//! 2. one JSON line per data point, when `--json <path>` is given.

use rdb_simnet::RunMetrics;
use std::fs::File;
use std::io::Write as _;

/// Command-line options shared by the repro binaries.
#[derive(Debug, Clone)]
pub struct ReproArgs {
    /// Shrink windows and client counts for a fast smoke run.
    pub quick: bool,
    /// Optional JSON-lines output path.
    pub json: Option<String>,
}

impl ReproArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> ReproArgs {
        let mut args = ReproArgs {
            quick: false,
            json: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--json" => args.json = it.next(),
                "--help" | "-h" => {
                    eprintln!("options: --quick  --json <path>");
                    std::process::exit(0);
                }
                other => eprintln!("ignoring unknown argument {other}"),
            }
        }
        args
    }
}

/// Collects data points and renders them.
pub struct Report {
    title: String,
    points: Vec<RunMetrics>,
}

impl Report {
    /// Start a report.
    pub fn new(title: impl Into<String>) -> Report {
        let title = title.into();
        println!("==== {title} ====");
        Report {
            title,
            points: Vec::new(),
        }
    }

    /// Add (and echo) one data point.
    pub fn push(&mut self, m: RunMetrics) {
        println!("{}", m.summary());
        self.points.push(m);
    }

    /// The collected points.
    pub fn points(&self) -> &[RunMetrics] {
        &self.points
    }

    /// Render a `protocol x x-axis` metric matrix like the paper's
    /// figures. `xs` labels columns; `key` extracts the column value of a
    /// point; `value` extracts the plotted metric.
    pub fn matrix(
        &self,
        x_label: &str,
        xs: &[String],
        key: impl Fn(&RunMetrics) -> String,
        value: impl Fn(&RunMetrics) -> f64,
        unit: &str,
    ) {
        println!();
        println!("{} — {} by {}", self.title, unit, x_label);
        print!("{:<10}", "protocol");
        for x in xs {
            print!("{x:>12}");
        }
        println!();
        let mut protocols: Vec<String> = Vec::new();
        for p in &self.points {
            if !protocols.contains(&p.protocol) {
                protocols.push(p.protocol.clone());
            }
        }
        for proto in protocols {
            print!("{proto:<10}");
            for x in xs {
                let v = self
                    .points
                    .iter()
                    .find(|p| p.protocol == proto && key(p) == *x)
                    .map(&value);
                match v {
                    Some(v) if unit.contains("latency") => print!("{v:>12.3}"),
                    Some(v) => print!("{v:>12.0}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
    }

    /// Write JSON lines if requested.
    pub fn write_json(&self, args: &ReproArgs) {
        if let Some(path) = &args.json {
            let mut f = File::create(path).expect("create json output");
            for p in &self.points {
                let line = serde_json::to_string(p).expect("serialize point");
                writeln!(f, "{line}").expect("write json line");
            }
            println!("(wrote {} data points to {path})", self.points.len());
        }
    }
}

/// Speed-ratio helper for the "who wins by what factor" checks.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::INFINITY
    } else {
        a / b
    }
}
