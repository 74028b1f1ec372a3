//! End-to-end benchmark of `ssa-server`.
//!
//! ```text
//! perfbench --server-bin PATH --workload study_tasks|refine|live_orders
//!           --seed N --seconds S --trace 0|1
//! perfbench --server-bin PATH --selftest
//! ```
//!
//! Boots the release server, uploads seeded inputs over HTTP, drives one
//! workload over raw keep-alive TCP for `--seconds`, checks every reply
//! against an in-process replay, and prints one JSON result line last.
//! `--trace 1` reports per-layer metrics instead of end-to-end ones.
//! See `perfbench/README.md`.

mod client;
mod inputs;
mod live;
mod refine;
mod replay;
mod run;
mod server;
mod stats;
mod study;
mod trace;

use stats::{Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["study_tasks", "refine", "live_orders"];

/// Sizes of one invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// TPC-H scale factor of the generated tables.
    pub scale: f64,
    /// Rows of the live `orders` sheet before the feed starts.
    pub live_rows: usize,
    /// Independent windows per untraced run, each on a freshly booted
    /// server; every metric reports their median.
    pub windows: usize,
    pub server_bin: PathBuf,
    pub work_root: PathBuf,
}

impl Config {
    /// Length of one timed window: `--seconds` split over the untraced
    /// run's windows. A traced run measures an untraced and a traced
    /// window, each on its own server, and then replays in-process for
    /// as long again, so each takes half of `--seconds`.
    pub fn window(&self) -> std::time::Duration {
        let parts = if self.trace { 2.0 } else { self.windows as f64 };
        std::time::Duration::from_secs_f64(self.seconds / parts)
    }
}

/// What a workload reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
}

fn parse_args() -> Result<(Config, bool), String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 10.0,
        live_rows: 100_000,
        windows: 5,
        server_bin: PathBuf::new(),
        work_root: PathBuf::from(".bench_work"),
    };
    let mut selftest = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => cfg.trace = value()? == "1",
            "--server-bin" => cfg.server_bin = PathBuf::from(value()?),
            "--selftest" => selftest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !cfg.server_bin.is_file() {
        return Err(format!("server binary {:?} not found", cfg.server_bin));
    }
    if !selftest && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((cfg, selftest))
}

/// Run one workload end to end.
pub fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_root)
        .map_err(|e| format!("create {}: {e}", cfg.work_root.display()))?;
    match cfg.workload.as_str() {
        "study_tasks" => study::main(cfg),
        "refine" => refine::main(cfg),
        "live_orders" => live::main(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The result line the benchmark ends with.
pub fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        out.metrics.to_json()
    )
}

fn print_summary(cfg: &Config, out: &Outcome) {
    println!(
        "# {} seed={} seconds={} trace={} scale={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.scale
    );
    for (name, value, unit) in out.metrics.entries() {
        println!("#   {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "#   checks: {} attempted, {} failed",
        out.tally.attempted, out.tally.failed
    );
    for note in &out.tally.notes {
        println!("#   failure: {note}");
    }
}

fn main() -> ExitCode {
    let (cfg, self_test) = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if self_test {
        return selftest(&cfg);
    }
    match run_workload(&cfg) {
        Ok(out) => {
            print_summary(&cfg, &out);
            println!("{}", result_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every workload at a tiny size, untraced and traced, and require
/// every check to pass and every metric to print with its unit.
pub fn selftest(base: &Config) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload: w.to_string(),
                seconds: 1.5,
                trace,
                scale: 0.5,
                live_rows: 3000,
                windows: 2,
                ..base.clone()
            };
            let out = match run_workload(&cfg) {
                Ok(o) => o,
                Err(e) => {
                    println!("FAIL {w} trace={}: {e}", trace as u8);
                    ok = false;
                    continue;
                }
            };
            let want: Vec<(String, &str)> = if trace {
                trace::per_layer_names()
            } else {
                trace::END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect()
            };
            let got: Vec<(String, &str)> = out
                .metrics
                .entries()
                .iter()
                .map(|(n, _, u)| (n.clone(), *u))
                .collect();
            let mut problems = Vec::new();
            if got != want {
                problems.push(format!("metric set differs: got {got:?}"));
            }
            // Every printed metric is declared, with its unit, in the
            // benchmark definition at the repository root.
            if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
                let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
                for (name, unit) in &got {
                    if !compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")) {
                        problems.push(format!("{name} ({unit}) is not in BENCHMARK.json"));
                    }
                }
            }
            if out.tally.failed > 0 || out.tally.attempted == 0 {
                problems.push(format!("checks: {:?}", out.tally));
            }
            if !trace {
                for (n, v, _) in out.metrics.entries() {
                    if *v <= 0.0 {
                        problems.push(format!("{n} is {v}"));
                    }
                }
            }
            let line = result_line(&out);
            if problems.is_empty() {
                println!(
                    "ok   {w} trace={} ({} checks) {line}",
                    trace as u8, out.tally.attempted
                );
            } else {
                ok = false;
                println!("FAIL {w} trace={}: {}", trace as u8, problems.join("; "));
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
