//! E21 — million-gate campaign *execution*: cold/warm/worker-scaling
//! ladder over the packed engine's execution phase.
//!
//! E20 made campaign *setup* (plan build, collapse, compilation) scale
//! and cache; this experiment measures what is left once setup is
//! amortized — the execution phase itself: level-blocked sweep kernels
//! for golden-chunk evaluation (built on all workers), and the
//! chunk-major, zero-allocation detection passes (one work-stealing
//! pass per golden chunk, each worker loading each chunk once).
//!
//! Per rung (50 k and 200 k gates):
//!
//! * **cold vs warm** — the cached campaign with a wiped store vs a
//!   populated one, min-of-N (the same estimator that fixed E20's
//!   warm-slower-than-cold artifact);
//! * **exec phase split** — one telemetry-on pass records the
//!   `exec.golden_ms` / `exec.walk_ms` / `exec.trace_ms` histograms,
//!   so the golden/walk/trace shares are measured, not inferred;
//! * **worker scaling** — the identical campaign at 4096 patterns (16
//!   golden chunks at W=4) on 1 worker and on every host CPU; the two
//!   reports must be identical, and the ratio is recorded as a number.
//!
//! A perf-regression guard compares this host's warm 200 k campaign
//! against the committed `BENCH_bigcircuit.json` baseline and fails
//! beyond +25 % — skipped (with a note) on < 4-CPU hosts, under
//! environment drift, or when no baseline is stamped.
//!
//! Set `E21_SMOKE=1` for a seconds-scale CI run: the 200 k rung with a
//! reduced pattern block and telemetry on, asserting 1-worker ≡
//! all-CPU reports and exporting the run journal to `e21_smoke.jsonl`
//! for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog, env_json, guard_regression, host_cpus, warn_env_drift};
use rescue_core::campaign::{ArtifactStore, Campaign};
use rescue_core::faults::collapse::{collapse_with, CollapsedUniverse};
use rescue_core::faults::simulate::{FaultSimulator, PackedOptions};
use rescue_core::faults::universe;
use rescue_core::netlist::generate::{scaling_ladder, ScaleRung};
use rescue_core::netlist::renumber;
use rescue_core::netlist::Netlist;
use rescue_core::telemetry::{journal, metrics, TelemetryConfig};
use std::time::Instant;

const PATTERNS: usize = 256;
const SCALING_PATTERNS: usize = 4096;
const SMOKE_PATTERNS: usize = 64;
const MEASURE_RUNS: usize = 3;
/// Warm-campaign regression tolerance vs the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1) ^ 0x5851_f42d_4c95_7f2d;
    (0..count)
        .map(|_| {
            (0..n_inputs)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s & 1 == 1
                })
                .collect()
        })
        .collect()
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Min-of-`n` timing with an untimed per-repetition `setup`.
fn secs_min<T>(n: usize, mut setup: impl FnMut(), mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n.max(1) {
        setup();
        let (o, t) = secs(&mut f);
        best = best.min(t);
        out = Some(o);
    }
    (out.expect("n >= 1"), best)
}

/// One prepared rung: everything execution needs, setup paid up front.
struct ExecRung {
    name: &'static str,
    lev: Netlist,
    faults: Vec<rescue_core::faults::Fault>,
    collapsed: CollapsedUniverse,
    patterns: Vec<Vec<bool>>,
    scaling_patterns: Vec<Vec<bool>>,
}

impl ExecRung {
    fn prepare(rung: &ScaleRung, workers: usize, n_patterns: usize, n_scaling: usize) -> ExecRung {
        blog!("  [{}] building {} gates...", rung.name, rung.gates);
        let net = rung.build();
        let (lev, _) = renumber::levelized(&net);
        let faults = universe::stuck_at_universe(&lev);
        let collapsed = collapse_with(&lev, &faults, workers);
        let n_inputs = lev.primary_inputs().len();
        ExecRung {
            name: rung.name,
            patterns: random_patterns(n_inputs, n_patterns, rung.seed ^ 0x9e37),
            scaling_patterns: random_patterns(n_inputs, n_scaling, rung.seed ^ 0x7f4a),
            lev,
            faults,
            collapsed,
        }
    }
}

struct ExecResult {
    name: &'static str,
    t_cold: f64,
    t_warm: f64,
    golden_ms: u64,
    walk_ms: u64,
    trace_ms: u64,
    t_one: f64,
    t_all: f64,
}

impl ExecResult {
    fn scaling(&self) -> f64 {
        self.t_one / self.t_all
    }
}

fn run_exec(rung: &ExecRung, workers: usize, runs: usize) -> ExecResult {
    let campaign = Campaign::new(0, workers);
    let opts = PackedOptions::wide(4)
        .with_collapsed(&rung.collapsed)
        .traced();

    // Cold vs warm through the artifact cache, min-of-N with the store
    // wiped (outside the timed region) before every cold repetition.
    let dir = std::env::temp_dir().join(format!("rescue-e21-{}-{}", rung.name, std::process::id()));
    let (cold, t_cold) = secs_min(
        runs,
        || {
            std::fs::remove_dir_all(&dir).ok();
        },
        || {
            let store = ArtifactStore::open(&dir);
            let sim = FaultSimulator::new_cached(&rung.lev, &store);
            sim.campaign_packed(
                &rung.faults,
                &rung.patterns,
                &campaign,
                opts.with_artifacts(&store),
            )
        },
    );
    let store = ArtifactStore::open(&dir);
    let (warm, t_warm) = secs_min(
        runs,
        || {},
        || {
            let sim = FaultSimulator::new_cached(&rung.lev, &store);
            sim.campaign_packed(
                &rung.faults,
                &rung.patterns,
                &campaign,
                opts.with_artifacts(&store),
            )
        },
    );
    assert_eq!(
        cold.report.first_detection(),
        warm.report.first_detection(),
        "{} rung: warm cache pass diverged from cold",
        rung.name
    );

    // Phase split: one telemetry-on pass over the same warm campaign;
    // the exec.* histograms are process-cumulative, so diff the sums.
    let telemetry_was_on = rescue_core::telemetry::enabled();
    let before = metrics::snapshot();
    TelemetryConfig::on().install();
    {
        let sim = FaultSimulator::new_cached(&rung.lev, &store);
        sim.campaign_packed(
            &rung.faults,
            &rung.patterns,
            &campaign,
            opts.with_artifacts(&store),
        );
    }
    if !telemetry_was_on {
        TelemetryConfig::off().install();
    }
    let after = metrics::snapshot();
    let phase_ms = |name: &str| {
        after.histogram(name).map_or(0, |h| h.sum) - before.histogram(name).map_or(0, |h| h.sum)
    };
    std::fs::remove_dir_all(&dir).ok();

    // Worker scaling on the long pattern block: 1 worker vs all CPUs.
    let sim = FaultSimulator::new(&rung.lev);
    let scaling_run = |workers: usize| {
        let campaign = Campaign::new(0, workers);
        secs_min(
            runs,
            || {},
            || sim.campaign_packed(&rung.faults, &rung.scaling_patterns, &campaign, opts),
        )
    };
    let (one, t_one) = scaling_run(1);
    let (all, t_all) = scaling_run(workers);
    assert_eq!(
        one.report, all.report,
        "{} rung: {workers}-worker report differs from the 1-worker report",
        rung.name
    );

    ExecResult {
        name: rung.name,
        t_cold,
        t_warm,
        golden_ms: phase_ms("exec.golden_ms"),
        walk_ms: phase_ms("exec.walk_ms"),
        trace_ms: phase_ms("exec.trace_ms"),
        t_one,
        t_all,
    }
}

fn smoke(rung: &ScaleRung, workers: usize) {
    TelemetryConfig::on().install();
    let mark = journal::mark();
    // 8x the campaign block for the scaling run: at W=4 that is two
    // 256-lane chunks, so more than one chunk-major pass executes.
    let prepared = ExecRung::prepare(rung, workers, SMOKE_PATTERNS, 8 * SMOKE_PATTERNS);
    let r = run_exec(&prepared, workers, 1);
    let j = journal::Journal::take_since(mark);
    TelemetryConfig::off().install();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e21_smoke.jsonl");
    j.export_jsonl(std::path::Path::new(path))
        .expect("write smoke journal");
    blog!(
        "  smoke [{}]: cold {:.0} ms, warm {:.0} ms, exec golden/walk/trace \
         {}/{}/{} ms, 1 vs {workers} workers {:.2}x, {} journal events -> {path}",
        r.name,
        r.t_cold * 1e3,
        r.t_warm * 1e3,
        r.golden_ms,
        r.walk_ms,
        r.trace_ms,
        r.scaling(),
        j.len()
    );
}

fn bench(c: &mut Criterion) {
    banner("E21", "million-gate campaign execution");
    let workers = host_cpus();
    let ladder = scaling_ladder();
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bigcircuit.json");

    if std::env::var("E21_SMOKE").is_ok_and(|v| v == "1") {
        smoke(&ladder[1], workers);
        return;
    }

    let results: Vec<ExecResult> = ladder[..2]
        .iter()
        .map(|rung| {
            let prepared = ExecRung::prepare(rung, workers, PATTERNS, SCALING_PATTERNS);
            run_exec(&prepared, workers, MEASURE_RUNS)
        })
        .collect();

    for r in &results {
        blog!(
            "\n  {} rung ({} patterns, min of {MEASURE_RUNS}): cold {:>7.1} ms   warm {:>7.1} ms",
            r.name,
            PATTERNS,
            r.t_cold * 1e3,
            r.t_warm * 1e3
        );
        blog!(
            "    exec phases (telemetry): golden {} ms   walk {} ms   trace {} ms",
            r.golden_ms,
            r.walk_ms,
            r.trace_ms
        );
        blog!(
            "    worker scaling ({SCALING_PATTERNS} patterns): 1 worker {:>7.1} ms   \
             {workers} workers {:>7.1} ms ({:.2}x)",
            r.t_one * 1e3,
            r.t_all * 1e3,
            r.scaling()
        );
        assert!(
            r.t_warm <= r.t_cold,
            "{} rung: warm ({:.1} ms) slower than cold ({:.1} ms) at min-of-{MEASURE_RUNS}",
            r.name,
            r.t_warm * 1e3,
            r.t_cold * 1e3
        );
    }

    // Perf-regression guard: this host's warm 200k campaign vs the
    // committed BENCH_bigcircuit.json figure (+25 % budget). Skips on
    // small hosts, drift or a missing baseline — see guard_regression.
    let r200 = &results[1];
    let guarded = guard_regression(
        baseline_path,
        "200k",
        "campaign_warm",
        r200.t_warm,
        REGRESSION_TOLERANCE,
    );

    let rung_json = |r: &ExecResult| {
        format!(
            "{{\n      \"seconds\": {{\n        \"campaign_cold\": {:.6},\n        \
             \"campaign_warm\": {:.6}\n      }},\n      \"exec_ms\": {{\n        \
             \"golden\": {},\n        \"walk\": {},\n        \"trace\": {}\n      }},\n      \
             \"scaling\": {{\n        \"patterns\": {SCALING_PATTERNS},\n        \
             \"campaign_1_worker\": {:.6},\n        \"campaign_all_workers\": {:.6},\n        \
             \"speedup\": {:.2}\n      }}\n    }}",
            r.t_cold,
            r.t_warm,
            r.golden_ms,
            r.walk_ms,
            r.trace_ms,
            r.t_one,
            r.t_all,
            r.scaling(),
        )
    };
    let rungs: Vec<String> = results
        .iter()
        .map(|r| format!("\"{}\": {}", r.name, rung_json(r)))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e21_exec\",\n  {},\n  \"patterns\": {PATTERNS},\n  \
         \"measure_runs\": {MEASURE_RUNS},\n  \"regression_guard_ran\": {},\n  \
         \"rungs\": {{\n    {}\n  }}\n}}\n",
        env_json(workers, 256),
        guarded,
        rungs.join(",\n    "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    warn_env_drift(path);
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    // Criterion entry: the steady-state warm execution on the 50k rung.
    let prepared = ExecRung::prepare(&ladder[0], workers, PATTERNS, PATTERNS);
    let sim = FaultSimulator::new(&prepared.lev);
    let opts = PackedOptions::wide(4)
        .with_collapsed(&prepared.collapsed)
        .traced();
    let campaign = Campaign::new(0, workers);
    c.bench_function("e21_exec_50k_warm", |b| {
        b.iter(|| {
            std::hint::black_box(sim.campaign_packed(
                &prepared.faults,
                &prepared.patterns,
                &campaign,
                opts,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
