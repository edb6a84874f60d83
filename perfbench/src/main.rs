//! Seeded fault-grading benchmark: `.rnl` netlist text and pattern sets
//! in, `CampaignReport` out, timed end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the run's spans are written to `<work-dir>/../spans-<workload>-
//! seed<n>.jsonl`. Everything else goes to standard error.

mod spans;
mod stats;
mod stores;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{RunConfig, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let work_dir = work_dir.unwrap_or_else(|| {
        PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()))
    });
    let spans_out = trace.then(|| {
        work_dir
            .parent()
            .unwrap_or(&work_dir)
            .join(format!("spans-{name}-seed{seed}.jsonl"))
    });
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        work_dir: work_dir.clone(),
        spans_out,
    };

    let outcome = workload::run(spec, &cfg);
    let _ = std::fs::remove_dir_all(&work_dir);

    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
