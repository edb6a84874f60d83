//! The three fault-grading workloads and the measured run around them.
//!
//! A run generates its inputs from the seed (a `.rnl` netlist text and
//! one pattern set per iteration), then repeats iterations of the
//! workload's op on fresh patterns, at `nproc` workers and at 1 worker,
//! until `seconds` have passed (`campaign_s`, `campaign_1w_s`).
//! Spread evenly among them, `setup_reps` cold repetitions set up from
//! the text into an empty artifact cache and result store and take the
//! first `CampaignReport` (`setup_s`, `first_report_s`); the warm ops
//! run on the latest repetition's design.
//!
//! Every verdict is checked outside the timed region. A traced run also
//! turns on the program's telemetry, times the store layer and runs an
//! untraced op next to each traced one to price the tracing itself.

use crate::spans::SpanLog;
use crate::stats::{median, overhead_fraction, parallel_efficiency, ratio, residual_s};
use crate::stores::{HalfFill, TimedStore};
use rescue_campaign::{ArtifactStore, Campaign, FsStore, ResultStore};
use rescue_faults::collapse::{collapse_with, CollapsedUniverse};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{CampaignReport, CampaignRun, FaultSimulator, PackedOptions};
use rescue_faults::{universe, Fault};
use rescue_netlist::{format, generate, renumber, Netlist};
use rescue_sim::parallel::pack_patterns;
use rescue_telemetry::metrics::{self, MetricsSnapshot};
use rescue_telemetry::TelemetryConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Packed lane width of every campaign (256 patterns per walk).
const LANE_WIDTH: usize = 4;
/// Faults per op checked against the full-resimulation oracle.
const REFERENCE_FAULTS: usize = 8;
/// Patterns of the oracle check (one 64-lane word).
const REFERENCE_PATTERNS: usize = 64;
/// Op iterations a run makes even when `seconds` is already spent.
const MIN_ITERATIONS: usize = 3;

/// Which campaign entry point an op calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `campaign_packed` with the warm artifact cache.
    Plain,
    /// `campaign_packed_durable` resuming a half-filled `FsStore`.
    Durable,
}

/// One named workload: a `random_logic` recipe, the patterns per op and
/// the campaign entry point.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub inputs: usize,
    pub gates: usize,
    pub outputs: usize,
    pub patterns: usize,
    pub mode: Mode,
    pub setup_reps: usize,
}

/// The workloads, by name (see `BENCHMARK.json` for why each exists).
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "regrade_1m",
        inputs: 64,
        gates: 1_000_000,
        outputs: 16,
        patterns: 256,
        mode: Mode::Plain,
        setup_reps: 5,
    },
    Spec {
        name: "deep_patterns_200k",
        inputs: 48,
        gates: 200_000,
        outputs: 12,
        patterns: 4096,
        mode: Mode::Plain,
        setup_reps: 7,
    },
    Spec {
        name: "durable_resume_200k",
        inputs: 48,
        gates: 200_000,
        outputs: 12,
        patterns: 1024,
        mode: Mode::Durable,
        setup_reps: 7,
    },
];

/// Run settings from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub spans_out: Option<PathBuf>,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// SplitMix64 of `seed` on stream `stream`: independent sub-seeds for
/// the netlist, each op's patterns and each oracle sample.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Xorshift64 stream, never seeded with zero.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` random input vectors of width `n_inputs`.
fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| (0..n_inputs).map(|_| rng.next() & 1 == 1).collect())
        .collect()
}

/// The workload's netlist as `.rnl` text, from the seed.
fn netlist_text(spec: &Spec, seed: u64) -> String {
    let net = generate::random_logic(spec.inputs, spec.gates, spec.outputs, derive_seed(seed, 0));
    format::to_text(&net)
}

/// Order-sensitive digest of a report's first-detection vector.
fn verdict_digest(report: &CampaignReport) -> u64 {
    report
        .first_detection()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
            let v = d.map_or(u64::MAX, |p| p as u64);
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
        })
}

/// Bytes held by a report's two vectors.
fn report_bytes(report: &CampaignReport) -> usize {
    std::mem::size_of_val(report.faults()) + std::mem::size_of_val(report.first_detection())
}

/// Attempts and failed verdict checks of one run.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    /// Counts one checked campaign call; `problems` lists what failed.
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: check failed: {what}: {p}");
            }
        }
    }
}

/// Everything a warm op needs, built by the last setup repetition.
struct Design {
    lev: Netlist,
    faults: Vec<Fault>,
    collapsed: CollapsedUniverse,
    artifacts: ArtifactStore,
}

impl Design {
    fn opts(&self) -> PackedOptions<'_> {
        PackedOptions::wide(LANE_WIDTH)
            .with_collapsed(&self.collapsed)
            .traced()
            .with_artifacts(&self.artifacts)
    }

    fn call(
        &self,
        sim: &FaultSimulator,
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        store: Option<&dyn ResultStore>,
    ) -> CampaignRun {
        match store {
            None => sim.campaign_packed(&self.faults, patterns, campaign, self.opts()),
            Some(s) => {
                sim.campaign_packed_durable(&self.faults, patterns, campaign, self.opts(), s, 0)
            }
        }
    }
}

/// Checks a report's shape and, on a seeded sample of faults, its
/// verdicts over the first pattern word against the oracle.
struct Oracle {
    reference: ReferenceFaultSimulator,
}

impl Oracle {
    fn check(
        &self,
        design: &Design,
        patterns: &[Vec<bool>],
        report: &CampaignReport,
        seed: u64,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        if report.faults() != design.faults.as_slice() {
            problems.push("report fault list differs from the universe".to_string());
        }
        if report.patterns() != patterns.len() {
            problems.push(format!(
                "report covers {} patterns, expected {}",
                report.patterns(),
                patterns.len()
            ));
        }
        if report.first_detection().len() != design.faults.len() {
            return problems;
        }
        let prefix = &patterns[..REFERENCE_PATTERNS.min(patterns.len())];
        let words = pack_patterns(prefix);
        let golden = self.reference.golden(&design.lev, &words);
        let live = if prefix.len() == 64 {
            u64::MAX
        } else {
            (1u64 << prefix.len()) - 1
        };
        // Most of a random design's faults cannot reach an output, so a
        // uniform sample alone rarely tests a detection: draw half the
        // sample from faults the report detects within the prefix, a
        // quarter from those it detects later, a quarter uniformly.
        let mut early = Vec::new();
        let mut late = Vec::new();
        for (fi, d) in report.first_detection().iter().enumerate() {
            match d {
                Some(p) if *p < prefix.len() => early.push(fi),
                Some(_) => late.push(fi),
                None => {}
            }
        }
        let mut rng = Rng::new(seed);
        for k in 0..REFERENCE_FAULTS {
            let fi = match k % 4 {
                0 | 1 if !early.is_empty() => early[rng.below(early.len())],
                2 if !late.is_empty() => late[rng.below(late.len())],
                _ => rng.below(design.faults.len()),
            };
            let fault = design.faults[fi];
            let mask = self
                .reference
                .detection_mask(&design.lev, &words, &golden, fault)
                & live;
            let expected = (mask != 0).then(|| mask.trailing_zeros() as usize);
            let got = report.first_detection()[fi].filter(|&p| p < prefix.len());
            if got != expected {
                problems.push(format!(
                    "fault {fault}: first detection {got:?} in the first {} patterns, oracle says {expected:?}",
                    prefix.len()
                ));
            }
        }
        problems
    }
}

/// Which way an op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// `nproc` workers; traced in a traced run.
    Full,
    /// One worker; traced in a traced run.
    Single,
    /// `nproc` workers with telemetry off (traced runs only).
    Untraced,
}

/// Timings and counters of one timed op.
#[derive(Debug, Clone, Default)]
struct OpSample {
    total_s: f64,
    arena_s: f64,
    call_s: f64,
    unattributed_s: f64,
    exec_s: f64,
    golden_ms: u64,
    detect_ms: u64,
    steals: u64,
    store_s: (f64, f64, f64),
    plan_hits: u64,
    plan_misses: u64,
    walked: usize,
    traced_fraction: f64,
    obs_walks: u64,
    stem_fallbacks: u64,
    dropped: u64,
    report_bytes: usize,
    units_executed_frac: f64,
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

fn histogram_sum_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.histogram(name).map_or(0, |h| h.sum) - before.histogram(name).map_or(0, |h| h.sum)
}

fn set_telemetry(on: bool) {
    if on {
        TelemetryConfig::on().install();
    } else {
        TelemetryConfig::off().install();
    }
}

fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    path.to_path_buf()
}

/// Per-setup-repetition layer times.
#[derive(Debug, Default)]
struct SetupSample {
    setup_s: f64,
    first_report_s: f64,
    parse_s: f64,
    levelize_s: f64,
    universe_s: f64,
    collapse_s: f64,
    compile_s: f64,
    unattributed_s: f64,
}

struct Runner<'a> {
    spec: &'a Spec,
    cfg: &'a RunConfig,
    workers: usize,
    log: SpanLog,
    checks: Checks,
}

impl Runner<'_> {
    /// One setup repetition from text to the first report, into empty
    /// caches under `dir`. Returns the design, the report and the layer
    /// times.
    fn setup(
        &mut self,
        text: &str,
        patterns: &[Vec<bool>],
        dir: &Path,
    ) -> (Design, CampaignReport, SetupSample) {
        let artifacts = ArtifactStore::open(dir);
        let store = FsStore::open(dir.join("store"));
        let log = &mut self.log;
        let root = log.begin("first_report", None);
        let setup = log.begin("setup", Some(root));

        let span = log.begin("netlist.parse", Some(setup));
        let net = format::from_text(text).expect("generated .rnl text parses");
        let parse_s = log.end(span);
        let span = log.begin("netlist.levelize", Some(setup));
        let (lev, _) = renumber::levelized(&net);
        let levelize_s = log.end(span);
        let span = log.begin("faults.universe", Some(setup));
        let faults = universe::stuck_at_universe(&lev);
        let universe_s = log.end(span);
        let span = log.begin("faults.collapse", Some(setup));
        let collapsed = collapse_with(&lev, &faults, self.workers);
        let collapse_s = log.end(span);
        let span = log.begin("sim.compile", Some(setup));
        let sim = FaultSimulator::new_cached(&lev, &artifacts);
        let compile_s = log.end(span);
        let setup_s = log.end(setup);

        let design = Design {
            lev,
            faults,
            collapsed,
            artifacts,
        };
        let span = log.begin("faults.campaign_call", Some(root));
        let campaign = Campaign::new(self.cfg.seed, self.workers);
        let store = (self.spec.mode == Mode::Durable).then_some(&store as &dyn ResultStore);
        let run = design.call(&sim, patterns, &campaign, store);
        log.end(span);
        let first_report_s = log.end(root);
        drop((net, sim));
        let sample = SetupSample {
            setup_s,
            first_report_s,
            parse_s,
            levelize_s,
            universe_s,
            collapse_s,
            compile_s,
            unattributed_s: log.self_time(setup),
        };
        (design, run.report, sample)
    }

    /// One timed op: warm arena load plus the campaign call.
    fn op(
        &mut self,
        design: &Design,
        patterns: &[Vec<bool>],
        workers: usize,
        store: Option<&dyn ResultStore>,
        traced: bool,
    ) -> (CampaignRun, OpSample) {
        set_telemetry(traced);
        let timed = store.filter(|_| traced).map(TimedStore::new);
        let store = timed.as_ref().map(|t| t as &dyn ResultStore).or(store);
        let campaign = Campaign::new(self.cfg.seed, workers);
        let before = traced.then(metrics::snapshot);

        let log = &mut self.log;
        let root = log.begin("op", None);
        let span = log.begin("sim.arena_load", Some(root));
        let sim = FaultSimulator::new_cached(&design.lev, &design.artifacts);
        let arena_s = log.end(span);
        let span = log.begin("faults.campaign_call", Some(root));
        let run = design.call(&sim, patterns, &campaign, store);
        let call_s = log.end(span);
        drop(sim);
        let total_s = log.end(root);

        let mut s = OpSample {
            total_s,
            arena_s,
            call_s,
            unattributed_s: log.self_time(root),
            exec_s: run.stats.elapsed_ns as f64 / 1e9,
            steals: run.stats.chunks_stolen,
            walked: run.stats.faults_walked,
            traced_fraction: run.stats.traced_fraction(),
            report_bytes: report_bytes(&run.report),
            units_executed_frac: ratio(
                run.stats.units_executed as f64,
                run.stats.units_total as f64,
            ),
            store_s: timed.as_ref().map_or((0.0, 0.0, 0.0), TimedStore::seconds),
            ..OpSample::default()
        };
        if let Some(before) = before {
            let after = metrics::snapshot();
            s.golden_ms = histogram_sum_delta(&before, &after, "exec.golden_ms");
            s.detect_ms = histogram_sum_delta(&before, &after, "exec.trace_ms")
                + histogram_sum_delta(&before, &after, "exec.walk_ms");
            s.plan_hits = counter_delta(&before, &after, "plan.cache_hits");
            s.plan_misses = counter_delta(&before, &after, "plan.cache_misses");
            s.obs_walks = counter_delta(&before, &after, "fault.obs_walks");
            s.stem_fallbacks = counter_delta(&before, &after, "fault.stem_fallbacks");
            s.dropped = counter_delta(&before, &after, "fault.dropped");
            // The program's own span journal is not read here; drop it
            // so a long traced run does not accumulate it.
            drop(rescue_telemetry::journal::Journal::drain());
        }
        set_telemetry(false);
        (run, s)
    }
}

/// Runs `spec` under `cfg`.
pub fn run(spec: &Spec, cfg: &RunConfig) -> Outcome {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut r = Runner {
        spec,
        cfg,
        workers,
        log: SpanLog::default(),
        checks: Checks::default(),
    };
    let text = netlist_text(spec, cfg.seed);
    let variants: &[Variant] = if cfg.trace {
        &[Variant::Full, Variant::Single, Variant::Untraced]
    } else {
        &[Variant::Full, Variant::Single]
    };
    let mut setups: Vec<SetupSample> = Vec::new();
    let mut samples: Vec<(Variant, usize, OpSample)> = Vec::new();
    let mut current: Option<Design> = None;
    let mut oracle: Option<Oracle> = None;
    let mut op_seconds = 0.0;
    let mut it = 0usize;
    while it < MIN_ITERATIONS || setups.len() < spec.setup_reps || op_seconds < cfg.seconds {
        let patterns = random_patterns(
            spec.inputs,
            spec.patterns,
            derive_seed(cfg.seed, 1 + it as u64),
        );
        // Cold repetitions are spread evenly over the op iterations, so
        // every metric samples the whole run, not one stretch of it. The
        // iteration after a repetition runs on the same patterns and
        // must reproduce its cold report.
        let reps = setups.len();
        let mut expected = None;
        if reps < spec.setup_reps
            && reps as f64 <= spec.setup_reps as f64 * op_seconds / cfg.seconds
        {
            drop(current.take());
            set_telemetry(cfg.trace);
            let dir = fresh_dir(&cfg.work_dir.join("setup"));
            let (design, report, sample) = r.setup(&text, &patterns, &dir);
            set_telemetry(false);
            let oracle = oracle.get_or_insert_with(|| Oracle {
                reference: ReferenceFaultSimulator::new(&design.lev),
            });
            let sample_seed = derive_seed(cfg.seed, (1 << 33) + reps as u64);
            let problems = oracle.check(&design, &patterns, &report, sample_seed);
            r.checks.record("cold first report", problems);
            expected = Some(verdict_digest(&report));
            eprintln!(
                "perfbench: setup {reps}: setup {:.4} s, first report {:.4} s",
                sample.setup_s, sample.first_report_s
            );
            setups.push(sample);
            current = Some(design);
        }
        let design = current.as_ref().expect("the first iteration sets up");
        let oracle = oracle.as_ref().expect("the first iteration sets up");
        let iteration_start = Instant::now();
        let op_dir = fresh_dir(&cfg.work_dir.join("op"));
        let stores: Vec<FsStore> = (0..variants.len())
            .map(|v| FsStore::open(op_dir.join(format!("store{v}"))))
            .collect();
        if spec.mode == Mode::Durable {
            let sim = FaultSimulator::new_cached(&design.lev, &design.artifacts);
            let campaign = Campaign::new(cfg.seed, workers);
            let fill = HalfFill::new(stores.iter().map(|s| s as &dyn ResultStore).collect());
            drop(design.call(&sim, &patterns, &campaign, Some(&fill)));
            let plain = design.call(&sim, &patterns, &campaign, None);
            let digest = verdict_digest(&plain.report);
            let mut problems = Vec::new();
            if *expected.get_or_insert(digest) != digest {
                problems.push("plain campaign disagrees with the cold first report".to_string());
            }
            r.checks.record("plain campaign", problems);
            expected = Some(digest);
        }
        let n = variants.len();
        for k in 0..n {
            let vi = (it + k) % n;
            let variant = variants[vi];
            let store = (spec.mode == Mode::Durable).then_some(&stores[vi] as &dyn ResultStore);
            let op_workers = if variant == Variant::Single {
                1
            } else {
                workers
            };
            let traced = cfg.trace && variant != Variant::Untraced;
            let (run, sample) = r.op(design, &patterns, op_workers, store, traced);
            let digest = verdict_digest(&run.report);
            // The first op of an iteration is also checked against the
            // oracle; every later one must reproduce its verdicts.
            let mut problems = if k == 0 {
                let sample_seed = derive_seed(cfg.seed, (1 << 32) + it as u64);
                oracle.check(design, &patterns, &run.report, sample_seed)
            } else {
                Vec::new()
            };
            if *expected.get_or_insert(digest) != digest {
                problems.push(format!(
                    "{variant:?} op {it} at {op_workers} worker(s) disagrees with the expected verdicts"
                ));
            }
            if spec.mode == Mode::Durable {
                let st = &run.stats;
                if st.units_cached == 0
                    || st.units_executed == 0
                    || st.units_cached + st.units_executed != st.units_total
                {
                    problems.push(format!(
                        "durable op resumed {} cached + {} executed of {} units",
                        st.units_cached, st.units_executed, st.units_total
                    ));
                }
            }
            drop(run);
            eprintln!(
                "perfbench: op {it} {variant:?} workers {op_workers}: total {:.4} s, arena {:.4} s, call {:.4} s",
                sample.total_s, sample.arena_s, sample.call_s
            );
            r.checks.record("warm op", problems);
            samples.push((variant, it, sample));
        }
        drop(stores);
        let _ = std::fs::remove_dir_all(&op_dir);
        op_seconds += iteration_start.elapsed().as_secs_f64();
        it += 1;
    }

    if let Some(path) = &cfg.spans_out {
        if let Err(e) = std::fs::write(path, r.log.to_jsonl()) {
            eprintln!("perfbench: could not write spans to {path:?}: {e}");
        }
    }
    for (name, n, total, own) in r.log.layer_totals() {
        eprintln!(
            "perfbench: layer {name:<22} spans {n:>4}  total {total:>9.4} s  self {own:>9.4} s"
        );
    }

    let pick = |v: Variant| -> Vec<&OpSample> {
        samples
            .iter()
            .filter(|(x, _, _)| *x == v)
            .map(|(_, _, s)| s)
            .collect()
    };
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
    let full = pick(Variant::Full);
    let single = pick(Variant::Single);
    let campaign_s = med(full.iter().map(|s| s.total_s).collect());
    let campaign_1w_s = med(single.iter().map(|s| s.total_s).collect());
    let setup = |f: fn(&SetupSample) -> f64| med(setups.iter().map(f).collect());

    let metrics = if !cfg.trace {
        vec![
            ("setup_s", setup(|s| s.setup_s), "s"),
            ("first_report_s", setup(|s| s.first_report_s), "s"),
            ("campaign_s", campaign_s, "s"),
            ("campaign_1w_s", campaign_1w_s, "s"),
            (
                "peak_rss_mb",
                crate::stats::peak_rss_mb().unwrap_or(0.0),
                "MB",
            ),
        ]
    } else {
        let untraced_s = med(pick(Variant::Untraced).iter().map(|s| s.total_s).collect());
        let fm = |f: fn(&OpSample) -> f64| med(full.iter().map(|s| f(s)).collect());
        // Deterministic counts come from op 0 at one worker, whose work
        // does not depend on scheduling.
        let first = samples
            .iter()
            .find(|(v, i, _)| *v == Variant::Single && *i == 0)
            .map(|(_, _, s)| s.clone())
            .unwrap_or_default();
        let hits: u64 = full.iter().map(|s| s.plan_hits).sum();
        let misses: u64 = full.iter().map(|s| s.plan_misses).sum();
        vec![
            ("netlist.parse_s", setup(|s| s.parse_s), "s"),
            ("netlist.levelize_s", setup(|s| s.levelize_s), "s"),
            ("sim.compile_s", setup(|s| s.compile_s), "s"),
            ("sim.arena_load_s", fm(|s| s.arena_s), "s"),
            ("faults.universe_s", setup(|s| s.universe_s), "s"),
            ("faults.collapse_s", setup(|s| s.collapse_s), "s"),
            ("faults.campaign_call_s", fm(|s| s.call_s), "s"),
            ("faults.golden_ms", fm(|s| s.golden_ms as f64), "ms"),
            ("faults.detect_ms", fm(|s| s.detect_ms as f64), "ms"),
            (
                "faults.residual_s",
                fm(|s| residual_s(s.call_s, s.golden_ms, s.detect_ms)),
                "s",
            ),
            ("faults.walked", first.walked as f64, "count"),
            ("faults.traced_fraction", first.traced_fraction, "ratio"),
            ("faults.obs_walks", first.obs_walks as f64, "count"),
            (
                "faults.stem_fallbacks",
                first.stem_fallbacks as f64,
                "count",
            ),
            ("faults.dropped", first.dropped as f64, "count"),
            ("faults.report_bytes", first.report_bytes as f64, "bytes"),
            ("campaign.exec_s", fm(|s| s.exec_s), "s"),
            (
                "campaign.parallel_eff",
                parallel_efficiency(campaign_1w_s, campaign_s, workers),
                "ratio",
            ),
            ("campaign.chunks_stolen", fm(|s| s.steals as f64), "count"),
            (
                "campaign.plan_cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            ("campaign.store_get_s", fm(|s| s.store_s.0), "s"),
            ("campaign.store_put_s", fm(|s| s.store_s.1), "s"),
            ("campaign.store_claim_s", fm(|s| s.store_s.2), "s"),
            (
                "campaign.units_executed_frac",
                first.units_executed_frac,
                "ratio",
            ),
            (
                "telemetry.overhead_frac",
                overhead_fraction(campaign_s, untraced_s),
                "ratio",
            ),
            ("op.unattributed_s", fm(|s| s.unattributed_s), "s"),
            ("setup.unattributed_s", setup(|s| s.unattributed_s), "s"),
        ]
    };
    Outcome {
        attempted: r.checks.attempted,
        failed: r.checks.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `section` of the repository's
    /// `BENCHMARK.json`.
    fn benchmark_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed name")].to_string())
            .collect()
    }

    #[test]
    fn seeds_derive_distinct_streams() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        assert_eq!(random_patterns(5, 3, 9), random_patterns(5, 3, 9));
        assert_ne!(random_patterns(5, 3, 9), random_patterns(5, 3, 10));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(benchmark_names("workloads"), names);
    }

    /// A small design through the whole run, both modes, untraced and
    /// traced: every check passes and the metrics printed are exactly
    /// the ones `BENCHMARK.json` lists. One test, because telemetry is
    /// process-global.
    #[test]
    fn small_runs_pass_their_checks_and_print_the_listed_metrics() {
        let end_to_end = benchmark_names("end_to_end");
        let per_layer = benchmark_names("per_layer");
        for mode in [Mode::Plain, Mode::Durable] {
            let spec = Spec {
                name: "small",
                inputs: 16,
                gates: 6000,
                outputs: 4,
                patterns: 300,
                mode,
                setup_reps: 2,
            };
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: 3,
                    seconds: 0.01,
                    trace,
                    work_dir: std::env::temp_dir().join(format!(
                        "perfbench-test-{}-{mode:?}-{trace}",
                        std::process::id()
                    )),
                    spans_out: None,
                };
                let out = run(&spec, &cfg);
                let _ = std::fs::remove_dir_all(&cfg.work_dir);
                assert_eq!(out.failed, 0, "{mode:?} trace={trace}");
                let per_iteration = 2 + usize::from(trace) + usize::from(mode == Mode::Durable);
                assert_eq!(out.attempted, 2 + MIN_ITERATIONS * per_iteration);
                let names: Vec<String> = out.metrics.iter().map(|m| m.0.to_string()).collect();
                assert_eq!(&names, if trace { &per_layer } else { &end_to_end });
                assert!(out.metrics.iter().all(|m| m.1.is_finite()));
                let value = |n: &str| out.metrics.iter().find(|m| m.0 == n).map(|m| m.1);
                if trace && mode == Mode::Durable {
                    let frac = value("campaign.units_executed_frac").expect("listed");
                    assert!(frac > 0.0 && frac < 1.0, "resumed about half: {frac}");
                }
                if !trace {
                    assert!(value("campaign_s").expect("listed") > 0.0);
                }
            }
        }
    }
}
