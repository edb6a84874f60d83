//! Parallel-pattern fault simulation with fault dropping.
//!
//! [`FaultSimulator`] runs on the [`CompiledNetlist`] flat arena and
//! detects stuck-at faults through one packed path
//! ([`FaultSimulator::campaign_packed`]) built on the event-driven
//! engine from [`crate::engine`]: per (site, chunk) it evaluates only the
//! gates a fault effect actually reaches, level by level, with
//! touched-list undo so campaigns allocate nothing per fault. Verdicts
//! are bit-identical to the full-resimulation oracle in
//! [`crate::reference`] (enforced by property tests).

use crate::collapse::CollapsedUniverse;
use crate::engine::{Detector, FaultScratch, WideScratch};
use crate::model::{BridgingFault, Fault, FaultKind, FaultSite};
use crate::trace::TraceScratch;
use rescue_campaign::{
    ArtifactStore, Campaign, CampaignManifest, CampaignStats, ContentHash, DurableRun, ResultStore,
    Schedule, ShardedRun, StatsDelta,
};
use rescue_netlist::{GateKind, Netlist};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::parallel::{live_mask, pack_patterns};
use rescue_sim::wide::{pack_patterns_wide_into, PackedWord, SimWord, SUPPORTED_LANE_WIDTHS};
use rescue_telemetry::{metrics, span};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Outcome of a fault-simulation campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    faults: Vec<Fault>,
    /// For each fault: index of the first detecting pattern, or `None`.
    first_detection: Vec<Option<usize>>,
    patterns: usize,
}

impl CampaignReport {
    /// Assembles a report from raw verdicts (used by alternative engines
    /// such as the slicing-accelerated campaign in `rescue-safety`).
    ///
    /// # Panics
    ///
    /// Panics when the verdict vector length differs from the fault list.
    pub fn from_parts(
        faults: Vec<Fault>,
        first_detection: Vec<Option<usize>>,
        patterns: usize,
    ) -> Self {
        assert_eq!(faults.len(), first_detection.len(), "one verdict per fault");
        CampaignReport {
            faults,
            first_detection,
            patterns,
        }
    }

    /// The fault list the campaign ran over.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// First detecting pattern per fault (`None` = undetected).
    pub fn first_detection(&self) -> &[Option<usize>] {
        &self.first_detection
    }

    /// Number of patterns applied.
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Detected fault count.
    pub fn detected_count(&self) -> usize {
        self.first_detection.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage in `[0, 1]` (1.0 for an empty fault list).
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            return 1.0;
        }
        self.detected_count() as f64 / self.faults.len() as f64
    }

    /// The faults no pattern detected.
    pub fn undetected(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.first_detection)
            .filter(|(_, d)| d.is_none())
            .map(|(f, _)| *f)
            .collect()
    }
}

/// A campaign verdict plus its observability record.
///
/// The report stays `Eq`-comparable (determinism tests rely on that);
/// wall-clock figures live in the attached [`CampaignStats`].
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The (deterministic) campaign verdicts.
    pub report: CampaignReport,
    /// Throughput, worker timing and lane-occupancy figures.
    pub stats: CampaignStats,
}

/// Engine configuration for [`FaultSimulator::campaign_packed`]: the
/// packed lane width, an optional collapsed universe and tracing. The
/// default (lane width 1, none of the rest) is the engine behind
/// [`FaultSimulator::campaign`].
#[derive(Debug, Clone, Copy)]
pub struct PackedOptions<'a> {
    /// Word width in 64-lane limbs: 1 (`u64`, 64 patterns per walk) or
    /// 2 / 4 / 8 ([`PackedWord`], up to 512 patterns per walk).
    pub lane_width: usize,
    /// When set, the engine walks only equivalence-class representatives
    /// and expands their verdicts to the rest of the universe via
    /// [`CollapsedUniverse::representative`]. Sound because equivalent
    /// faults have identical detection masks on every pattern set.
    pub collapsed: Option<&'a CollapsedUniverse>,
    /// When set, detection runs through the critical-path-tracing /
    /// event-walk hybrid ([`Detector::detect_traced`]): observability
    /// words come from backward sensitization over fanout-free regions,
    /// and the event-driven walk is reserved for reconvergent stems.
    /// Verdicts stay bit-identical to the walking engine for every lane
    /// width, schedule, worker count and collapse setting.
    pub tracing: bool,
}

impl Default for PackedOptions<'_> {
    fn default() -> Self {
        PackedOptions {
            lane_width: 1,
            collapsed: None,
            tracing: false,
        }
    }
}

impl<'a> PackedOptions<'a> {
    /// Options for a wide-word campaign at `lane_width` 64-lane limbs.
    pub fn wide(lane_width: usize) -> Self {
        PackedOptions {
            lane_width,
            ..PackedOptions::default()
        }
    }

    /// Walks only representatives of `collapsed`, expanding verdicts to
    /// the full universe afterwards.
    pub fn with_collapsed(mut self, collapsed: &'a CollapsedUniverse) -> Self {
        self.collapsed = Some(collapsed);
        self
    }

    /// Detects through the critical-path-tracing hybrid instead of one
    /// observability walk per site.
    pub fn traced(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Has no effect: campaigns build no per-fault-list plan, so there
    /// is nothing left to cache per campaign (the compiled arena is
    /// cached through [`FaultSimulator::new_cached`]). Kept only so the
    /// benchmark crate's existing call compiles until the benchmark
    /// change that removes it.
    pub fn with_artifacts(self, _artifacts: &'a ArtifactStore) -> Self {
        self
    }
}

/// Compiled-arena fault simulator over one netlist.
///
/// Supports stuck-at faults on outputs and pins, transition-delay faults
/// via pattern pairs, bridging faults, and sequential (multi-cycle)
/// stuck-at simulation.
///
/// # Examples
///
/// See [`crate`] docs for a complete campaign example.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    compiled: CompiledNetlist,
    /// [`crate::content::hash_netlist`] of the arena: known up front
    /// when the arena came through the artifact cache, computed on first
    /// use otherwise. Campaign keys reuse it, so the design is hashed at
    /// most once per simulator.
    netlist_hash: OnceLock<ContentHash>,
}

impl FaultSimulator {
    /// Prepares a simulator for `netlist` (compiles the flat arena).
    pub fn new(netlist: &Netlist) -> Self {
        FaultSimulator {
            compiled: CompiledNetlist::new(netlist),
            netlist_hash: OnceLock::new(),
        }
    }

    /// [`FaultSimulator::new`] through a compiled-artifact cache: the
    /// arena is keyed by [`crate::content::compiled_key`] (computed from
    /// the source netlist without compiling), so a warm cache decodes the
    /// stored arena instead of recompiling. The decoded arena is
    /// byte-identical to a fresh compile; a cold or corrupt cache
    /// compiles and publishes (overwriting a bad entry).
    ///
    /// `plan.cache_hits` / `plan.cache_misses` count how setups split. A
    /// publish that fails (full disk, vanished cache directory) keeps the
    /// compiled arena and counts in `plan.cache_write_errors`: the cache
    /// only ever costs the next run a recompile, never this run its
    /// result.
    pub fn new_cached(netlist: &Netlist, artifacts: &ArtifactStore) -> Self {
        let hash = crate::content::hash_netlist_source(netlist);
        let key = crate::content::compiled_key_of(hash);
        let compiled = match artifacts
            .load(key)
            .and_then(|bytes| CompiledNetlist::from_bytes(&bytes))
        {
            Some(compiled) => {
                metrics::counter("plan.cache_hits").add(1);
                compiled
            }
            None => {
                metrics::counter("plan.cache_misses").add(1);
                let compiled = CompiledNetlist::new(netlist);
                if artifacts.save(key, &compiled.to_bytes()).is_err() {
                    metrics::counter("plan.cache_write_errors").add(1);
                }
                compiled
            }
        };
        FaultSimulator {
            compiled,
            netlist_hash: OnceLock::from(hash),
        }
    }

    /// Content hash of the simulated design
    /// ([`crate::content::hash_netlist`]), computed at most once.
    fn netlist_hash(&self) -> ContentHash {
        *self
            .netlist_hash
            .get_or_init(|| crate::content::hash_netlist(&self.compiled))
    }

    /// The compiled arena this simulator evaluates on.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
    }

    /// Ablation hook forwarding [`CompiledNetlist::set_sweep`]: toggles
    /// the level-blocked sweep kernels (when the arena is levelized) for
    /// every campaign this simulator runs. Verdicts are identical either
    /// way; only throughput moves. Benches use it to report the sweep
    /// speedup as a measured number.
    pub fn set_sweep(&mut self, enabled: bool) {
        self.compiled.set_sweep(enabled);
    }

    /// Golden (fault-free) 64-way evaluation. `words[i]` is input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the primary-input count.
    pub fn golden(&self, words: &[u64]) -> Vec<u64> {
        self.eval_full(words, None, None)
    }

    /// Evaluates 64 packed patterns with `fault` active; returns all gate
    /// values. Only stuck-at kinds are meaningful here.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or a non-stuck-at fault kind.
    pub fn with_stuck(&self, words: &[u64], fault: Fault) -> Vec<u64> {
        let value = fault
            .kind()
            .stuck_value()
            .expect("with_stuck requires a stuck-at fault");
        self.eval_full(words, Some((fault.site(), value)), None)
    }

    /// Evaluates with a wired-AND/OR bridge active (two-pass resolution).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn with_bridge(&self, words: &[u64], bridge: BridgingFault) -> Vec<u64> {
        let golden = self.eval_full(words, None, None);
        let va = golden[bridge.a.index()];
        let vb = golden[bridge.b.index()];
        let v = if bridge.wired_and { va & vb } else { va | vb };
        self.eval_full(words, None, Some((bridge, v)))
    }

    /// Full-design 64-way evaluation over the compiled arena with
    /// optional stuck/bridge forcing. This is the non-incremental path,
    /// used by the value-inspection APIs; campaigns go through the cone
    /// engine instead.
    fn eval_full(
        &self,
        words: &[u64],
        stuck: Option<(FaultSite, bool)>,
        bridge: Option<(BridgingFault, u64)>,
    ) -> Vec<u64> {
        let c = &self.compiled;
        let pis = c.primary_inputs();
        assert_eq!(words.len(), pis.len(), "input word count mismatch");
        let mut values = vec![0u64; c.len()];
        for (i, &pi) in pis.iter().enumerate() {
            values[pi as usize] = words[i];
        }
        let (stuck_out, stuck_pin, stuck_word) = match stuck {
            Some((FaultSite::Output(g), v)) => {
                (Some(g.index()), None, if v { u64::MAX } else { 0 })
            }
            Some((FaultSite::Pin { gate, pin }, v)) => (
                None,
                Some((gate.index(), pin)),
                if v { u64::MAX } else { 0 },
            ),
            None => (None, None, 0),
        };
        // Sources (Input/Dff) sit outside eval_order; apply output/bridge
        // forces on them up front — nothing evaluates before them.
        let source = |g: usize| matches!(c.kind(g), GateKind::Input | GateKind::Dff);
        if let Some(g) = stuck_out {
            if source(g) {
                values[g] = stuck_word;
            }
        }
        if let Some((br, v)) = bridge {
            for g in [br.a.index(), br.b.index()] {
                if source(g) {
                    values[g] = v;
                }
            }
        }
        for &g in c.eval_order() {
            let gi = g as usize;
            let mut v = match stuck_pin {
                Some((fg, fp)) if fg == gi => c.eval_word_pin_forced(gi, &values, fp, stuck_word),
                _ => c.eval_word(gi, &values),
            };
            if stuck_out == Some(gi) {
                v = stuck_word;
            }
            if let Some((br, bv)) = bridge {
                if br.a.index() == gi || br.b.index() == gi {
                    v = bv;
                }
            }
            values[gi] = v;
        }
        values
    }

    /// Runs a stuck-at campaign with fault dropping: each fault is
    /// simulated only until its first detection, only where its effect
    /// propagates, and the whole campaign stops once every fault is
    /// detected.
    /// The serial, 64-lane [`FaultSimulator::campaign_packed`].
    ///
    /// # Panics
    ///
    /// Panics if any simulated pattern width differs from the
    /// primary-input count.
    pub fn campaign(&self, faults: &[Fault], patterns: &[Vec<bool>]) -> CampaignReport {
        self.campaign_packed(
            faults,
            patterns,
            &Campaign::serial(),
            PackedOptions::default(),
        )
        .report
    }

    /// PPSFP stuck-at campaign with fault dropping through the shared
    /// [`Campaign`] driver: per-chunk golden words are computed once and
    /// shared read-only, and every worker detects through the packed
    /// observability path ([`Detector::detect_packed`]) — one
    /// event-driven walk per (site, pattern word), shared by all faults
    /// at that site. The fault list is handed out per the
    /// campaign's [`rescue_campaign::Schedule`]: static contiguous shards
    /// or the work-stealing chunk queue (the default — fault dropping
    /// makes per-fault cost wildly non-uniform, which static shards
    /// handle worst).
    ///
    /// `opts` picks the engine configuration: a wide [`SimWord`] lane
    /// width (2/4/8 × 64 packed patterns per walk, autovectorized), a
    /// collapsed universe (walk equivalence-class representatives only,
    /// expand verdicts to the rest for free) and critical-path tracing.
    /// The design's PO-reachability sweep is the campaign's only
    /// detection setup, shared by the walk list and the engine. Verdicts
    /// are bit-identical to the full-resimulation oracle for every width,
    /// schedule, worker count and option; the returned [`CampaignRun`]
    /// adds throughput, lane-occupancy, drop and steal figures, and
    /// [`CampaignStats::faults_walked`] records how much walking the
    /// collapse saved.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported lane width
    /// ([`SUPPORTED_LANE_WIDTHS`]) or a pattern width mismatch.
    pub fn campaign_packed(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: PackedOptions,
    ) -> CampaignRun {
        self.run_packed(faults, patterns, campaign, &opts, None)
    }

    /// [`FaultSimulator::campaign_packed`] made durable: the campaign
    /// becomes the deterministic plan of content-addressed units from
    /// [`FaultSimulator::durable_plan`], unit verdicts persist through
    /// `store`, and only the units the store is missing are executed.
    /// A killed run resumes where it stopped; a second process pointed
    /// at the same store shares the work via create-exclusive claims
    /// without ever double-executing a unit; re-submitting a finished
    /// campaign executes zero units. Verdicts and stats tallies are
    /// bit-identical to [`FaultSimulator::campaign_packed`] for every
    /// store state, worker count, schedule and unit grain;
    /// [`CampaignStats::units_cached`] / `units_executed` record how the
    /// run split between store and engine.
    ///
    /// `unit_faults` is the unit grain in walked faults (0 =
    /// [`DEFAULT_UNIT_FAULTS`]).
    ///
    /// # Panics
    ///
    /// Panics on an unsupported lane width, a pattern width mismatch, or
    /// a wedged peer holding claims past the wait limit.
    pub fn campaign_packed_durable(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: PackedOptions,
        store: &dyn ResultStore,
        unit_faults: usize,
    ) -> CampaignRun {
        self.run_packed(
            faults,
            patterns,
            campaign,
            &opts,
            Some((store, unit_faults)),
        )
    }

    /// Runtime lane-width dispatch shared by the plain and durable packed
    /// campaigns; `durable` names the result store and unit grain of a
    /// durable run.
    fn run_packed(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: &PackedOptions,
        durable: Option<(&dyn ResultStore, usize)>,
    ) -> CampaignRun {
        match opts.lane_width {
            1 => self.packed_w::<u64>(faults, patterns, campaign, opts, durable),
            2 => self.packed_w::<PackedWord<2>>(faults, patterns, campaign, opts, durable),
            4 => self.packed_w::<PackedWord<4>>(faults, patterns, campaign, opts, durable),
            8 => self.packed_w::<PackedWord<8>>(faults, patterns, campaign, opts, durable),
            w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
        }
    }

    /// The width-generic packed campaign: reachability, walk list and
    /// golden chunks, then [`drain_walk`] runs the walk list (in-process
    /// or through the durable store) and [`finish_packed`] expands the
    /// verdicts into the report.
    fn packed_w<Wd: SimWord>(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: &PackedOptions,
        durable: Option<(&dyn ResultStore, usize)>,
    ) -> CampaignRun {
        let c = &self.compiled;
        let stage = if durable.is_some() {
            rescue_campaign::fleet::set_stage("fault.campaign_durable");
            "fault.campaign_durable"
        } else {
            "fault.campaign"
        };
        let _campaign = span!(stage, faults = faults.len());
        let det = Detector::with_workers(c, campaign.workers);
        let (walk, expand) = self.walk_list(faults, opts, &det, campaign.workers);
        let durable = durable.map(|(store, unit_faults)| {
            let manifest = self.manifest_for(faults, patterns, opts, walk.len(), unit_faults);
            (manifest, store)
        });
        let chunks = self.golden_chunks::<Wd>(patterns, campaign.workers);
        let (results, mut stats) = if opts.tracing {
            let engine = TraceEngine { c, det: &det };
            let (results, mut stats) =
                drain_walk(campaign, &walk, &engine, &chunks, durable.as_ref());
            stats.faults_traced = det.statically_traced(c, &walk);
            (results, stats)
        } else {
            let engine = WalkEngine { c, det: &det };
            drain_walk(campaign, &walk, &engine, &chunks, durable.as_ref())
        };
        stats.injections = faults.len();
        stats.faults_walked = walk.len();
        finish_packed::<Wd>(
            faults,
            patterns,
            opts,
            &chunks,
            expand.as_deref(),
            results,
            stats,
            campaign.workers,
        )
    }

    /// The deterministic unit plan a durable campaign executes: the walk
    /// list (collapsed representatives when collapsing is on) partitioned
    /// at `unit_faults` grain, keyed under
    /// [`crate::content::campaign_hash`]. Worker count, schedule and
    /// seed are deliberately absent from the key — any process
    /// configuration resumes the same plan.
    pub fn durable_plan(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        opts: &PackedOptions,
        unit_faults: usize,
    ) -> CampaignManifest {
        let (walk, _) = self.walk_list(faults, opts, &Detector::new(&self.compiled), 1);
        self.manifest_for(faults, patterns, opts, walk.len(), unit_faults)
    }

    fn manifest_for(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        opts: &PackedOptions,
        walk_len: usize,
        unit_faults: usize,
    ) -> CampaignManifest {
        let grain = if unit_faults == 0 {
            DEFAULT_UNIT_FAULTS
        } else {
            unit_faults
        };
        CampaignManifest::build(
            crate::content::campaign_hash_of(self.netlist_hash(), faults, patterns, opts),
            walk_len,
            grain,
        )
    }

    /// Collapse prefilter shared by the plain and durable packed
    /// campaigns: walk each equivalence class once, in order of first
    /// appearance, then look up the campaign's PO reachability (`det`)
    /// for the representatives — structurally unobservable classes share
    /// the all-zero detection mask and expand to "undetected" without a
    /// walk. Exact because
    /// equivalent faults have identical detection masks (the property
    /// the `collapse` tests pin down), so even first-detection indices
    /// expand unchanged. The returned map remembers which walked slot
    /// answers each original fault ([`UNOBSERVED`] = unobservable class,
    /// never detected; the map itself is `None` when collapsing is off).
    ///
    /// The per-fault representative lookups run on up to `workers`
    /// threads over contiguous fault shards; only the observable faults
    /// — a small fraction of a large universe — are then numbered
    /// serially, in shard order, so the walk list is the same for every
    /// worker count.
    fn walk_list(
        &self,
        faults: &[Fault],
        opts: &PackedOptions,
        det: &Detector,
        workers: usize,
    ) -> (Vec<Fault>, Option<Vec<u32>>) {
        let Some(cu) = opts.collapsed else {
            return (faults.to_vec(), None);
        };
        let mut map = vec![0u32; faults.len()];
        let observed = for_shards(&mut map, workers, |offset, shard| {
            let mut observed = Vec::new();
            for (i, (slot, &f)) in shard.iter_mut().zip(&faults[offset..]).enumerate() {
                let rep = cu.representative(f);
                if det.observable(rep.site().gate().index()) {
                    observed.push((offset + i, rep));
                } else {
                    *slot = UNOBSERVED;
                }
            }
            observed
        });
        let mut slot_of = std::collections::HashMap::new();
        let mut walk = Vec::new();
        for (i, rep) in observed.into_iter().flatten() {
            map[i] = *slot_of.entry(rep).or_insert_with(|| {
                walk.push(rep);
                walk.len() as u32 - 1
            });
        }
        (walk, Some(map))
    }

    /// Golden values and live mask per chunk, computed once and shared
    /// read-only by all workers. The live mask is the one shared
    /// ragged-tail guard: a final chunk of fewer than `Wd::LANES`
    /// patterns must not let dead lanes report detections.
    ///
    /// Chunks are independent, so up to `workers` scoped threads each
    /// fill one contiguous arena of whole chunks (one allocation plus
    /// one input-packing buffer per thread — the setup half of the
    /// zero-alloc steady state). One arena per thread, rather than one
    /// for the campaign, spreads the zeroing and page faults of first
    /// touch, which cost as much as the evaluation itself, over the
    /// threads. One chunk or one worker builds inline. Wall-clock is
    /// recorded in the `exec.golden_ms` histogram when telemetry is
    /// enabled.
    fn golden_chunks<Wd: SimWord>(
        &self,
        patterns: &[Vec<bool>],
        workers: usize,
    ) -> GoldenChunks<Wd> {
        let start = Instant::now();
        let n_gates = self.compiled.len();
        let n_chunks = patterns.len().div_ceil(Wd::LANES);
        let per_part = n_chunks.div_ceil(workers.max(1)).max(1);
        // Fills `part` (allocated, not yet touched) with the golden
        // images of `chunks`, one `n_gates` slice each.
        let build = |chunks: std::ops::Range<usize>, mut part: Vec<Wd>| {
            part.resize(chunks.len() * n_gates, Wd::ZERO);
            let mut inputs: Vec<Wd> = Vec::new();
            for (i, ci) in chunks.enumerate() {
                let p = ci * Wd::LANES;
                let chunk = &patterns[p..(p + Wd::LANES).min(patterns.len())];
                pack_patterns_wide_into(chunk, &mut inputs);
                self.compiled
                    .eval_words_fill(&inputs, None, &mut part[i * n_gates..(i + 1) * n_gates])
                    .expect("input word count mismatch");
            }
            part
        };
        let parts = if per_part >= n_chunks {
            vec![build(0..n_chunks, Vec::new())]
        } else {
            std::thread::scope(|scope| {
                let build = &build;
                let handles: Vec<_> = (0..n_chunks)
                    .step_by(per_part)
                    .map(|first| {
                        let chunks = first..(first + per_part).min(n_chunks);
                        // Allocated on this thread, first touched on the
                        // builder: the page faults run in parallel, but
                        // the memory stays with this thread's allocator
                        // arena instead of being retained by a
                        // short-lived builder's.
                        let part = Vec::with_capacity(chunks.len() * n_gates);
                        scope.spawn(move || build(chunks, part))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("golden build thread panicked"))
                    .collect()
            })
        };
        if rescue_telemetry::enabled() {
            metrics::histogram("exec.golden_ms", &metrics::pow2_bounds(16))
                .record(start.elapsed().as_millis() as u64);
        }
        GoldenChunks {
            parts,
            per_part,
            live: patterns
                .chunks(Wd::LANES)
                .map(|chunk| Wd::live_mask(chunk.len()))
                .collect(),
            n_gates,
        }
    }

    /// Transition-delay campaign over consecutive pattern *pairs*
    /// `(patterns[i], patterns[i+1])`: a slow-to-rise fault is detected by
    /// a pair that launches a rising transition at the site and where the
    /// late value (stuck-at-0 behaviour during capture) reaches an output.
    ///
    /// Packs 64 consecutive pairs per word: the launch word holds
    /// patterns `i..i+64`, the capture word patterns `i+1..i+65`, and the
    /// equivalent stuck-at fault is detected on the capture golden with
    /// [`Detector::detect_packed`], masked by the live lanes whose
    /// pair launches the transition.
    ///
    /// Returns the report with pattern index = index of the capture
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or a non-transition fault in `faults`.
    pub fn transition_campaign(&self, faults: &[Fault], patterns: &[Vec<bool>]) -> CampaignReport {
        let c = &self.compiled;
        // Per fault: site gate, rising?, and the stuck-at fault that
        // holds the late value during capture.
        let sites: Vec<(usize, bool, Fault)> = faults
            .iter()
            .map(|f| {
                let FaultSite::Output(g) = f.site() else {
                    panic!("transition faults sit on outputs");
                };
                let rising = match f.kind() {
                    FaultKind::SlowToRise => true,
                    FaultKind::SlowToFall => false,
                    _ => panic!("transition_campaign requires transition faults"),
                };
                (
                    g.index(),
                    rising,
                    Fault::stuck_at(FaultSite::Output(g), !rising),
                )
            })
            .collect();
        let det = Detector::new(c);
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        let mut g_launch: Vec<u64> = Vec::new();
        let mut g_capture: Vec<u64> = Vec::new();
        let mut scratch = FaultScratch::new(c.len());
        let pairs = patterns.len().saturating_sub(1);
        for base in (0..pairs).step_by(64) {
            let n = (pairs - base).min(64);
            c.eval_words_into(
                &pack_patterns(&patterns[base..base + n]),
                None,
                &mut g_launch,
            )
            .expect("input word count mismatch");
            c.eval_words_into(
                &pack_patterns(&patterns[base + 1..base + 1 + n]),
                None,
                &mut g_capture,
            )
            .expect("input word count mismatch");
            scratch.load_golden(&g_capture);
            let live = live_mask(n);
            for (fi, &(g, rising, eq)) in sites.iter().enumerate() {
                if first_detection[fi].is_some() {
                    continue;
                }
                let (launch, capture) = (g_launch[g], g_capture[g]);
                let launched = live
                    & if rising {
                        !launch & capture
                    } else {
                        launch & !capture
                    };
                if launched == 0 {
                    continue; // no pair in this word launches the transition
                }
                let mask = det.detect_packed(c, &g_capture, &mut scratch, eq) & launched;
                if mask != 0 {
                    first_detection[fi] = Some(base + mask.trailing_zeros() as usize + 1);
                }
            }
        }
        CampaignReport {
            faults: faults.to_vec(),
            first_detection,
            patterns: patterns.len(),
        }
    }

    /// Sequential stuck-at campaign: applies `stimuli` cycle by cycle to a
    /// golden and a faulty machine (both starting from the all-zero state)
    /// and reports the first cycle whose primary outputs differ.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or non-stuck-at faults.
    pub fn campaign_seq(&self, faults: &[Fault], stimuli: &[Vec<bool>]) -> CampaignReport {
        let c = &self.compiled;
        let po_count = c.po_drivers().len();
        let mut values = vec![false; c.len()];
        let mut state = vec![false; c.dffs().len()];
        // Golden per-cycle primary-output trace, flattened.
        let mut golden_pos: Vec<bool> = Vec::with_capacity(stimuli.len() * po_count);
        for inputs in stimuli {
            self.seq_cycle(inputs, None, &mut values, &mut state);
            golden_pos.extend(c.po_drivers().iter().map(|&g| values[g as usize]));
        }
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        for (fi, &fault) in faults.iter().enumerate() {
            let value = fault
                .kind()
                .stuck_value()
                .expect("campaign_seq requires stuck-at faults");
            state.iter_mut().for_each(|b| *b = false);
            for (cycle, inputs) in stimuli.iter().enumerate() {
                self.seq_cycle(inputs, Some((fault.site(), value)), &mut values, &mut state);
                let golden = &golden_pos[cycle * po_count..(cycle + 1) * po_count];
                let diff = c
                    .po_drivers()
                    .iter()
                    .zip(golden)
                    .any(|(&g, &want)| values[g as usize] != want);
                if diff {
                    first_detection[fi] = Some(cycle);
                    break;
                }
            }
        }
        CampaignReport {
            faults: faults.to_vec(),
            first_detection,
            patterns: stimuli.len(),
        }
    }

    /// One clock cycle of two-valued evaluation with optional stuck
    /// forcing; `values` and `state` are reusable buffers, `state` is
    /// advanced to the next cycle.
    fn seq_cycle(
        &self,
        inputs: &[bool],
        stuck: Option<(FaultSite, bool)>,
        values: &mut [bool],
        state: &mut [bool],
    ) {
        let c = &self.compiled;
        assert_eq!(
            inputs.len(),
            c.primary_inputs().len(),
            "stimulus width mismatch"
        );
        values.fill(false);
        for (i, &pi) in c.primary_inputs().iter().enumerate() {
            values[pi as usize] = inputs[i];
        }
        for (i, &dff) in c.dffs().iter().enumerate() {
            values[dff as usize] = state[i];
        }
        if let Some((FaultSite::Output(g), v)) = stuck {
            if matches!(c.kind(g.index()), GateKind::Input | GateKind::Dff) {
                values[g.index()] = v;
            }
        }
        for &g in c.eval_order() {
            let gi = g as usize;
            let mut v = match stuck {
                Some((FaultSite::Pin { gate, pin }, fv)) if gate.index() == gi => {
                    c.eval_bool_pin_forced(gi, values, pin, fv)
                }
                _ => c.eval_bool(gi, values),
            };
            if let Some((FaultSite::Output(fg), fv)) = stuck {
                if fg.index() == gi {
                    v = fv;
                }
            }
            values[gi] = v;
        }
        for (i, &d) in c.dff_d().iter().enumerate() {
            state[i] = values[d as usize];
        }
    }
}

/// Default durable-campaign unit grain, in walked faults per unit.
/// Matches the work-stealing chunk ceiling so one unit is a few
/// scheduler chunks: coarse enough that store round-trips stay noise,
/// fine enough that a killed run loses little finished work.
pub const DEFAULT_UNIT_FAULTS: usize = 256;

/// The per-chunk golden data of one campaign: every chunk's golden
/// values in a few flat arenas of `per_part` whole chunks each
/// (`n_gates` words per chunk; one arena per building thread) plus the
/// live mask per chunk. Chunk access is a slice borrow — nothing on the
/// steady-state execution path allocates.
struct GoldenChunks<Wd> {
    parts: Vec<Vec<Wd>>,
    per_part: usize,
    live: Vec<Wd>,
    n_gates: usize,
}

impl<Wd: SimWord> GoldenChunks<Wd> {
    /// Number of golden chunks (pattern words).
    fn len(&self) -> usize {
        self.live.len()
    }

    /// Chunk `ci`'s golden values and live mask.
    fn chunk(&self, ci: usize) -> (&[Wd], Wd) {
        let at = ci % self.per_part * self.n_gates;
        (
            &self.parts[ci / self.per_part][at..at + self.n_gates],
            self.live[ci],
        )
    }

    /// Live masks of every chunk, in chunk order.
    fn live_masks(&self) -> &[Wd] {
        &self.live
    }
}

/// The packed detection interface shared by the plain and durable
/// campaign paths: one fault in, one `Wd` detection mask out, with the
/// drop bookkeeping the engines keep in their scratch. Implemented by
/// the event-driven walker ([`WalkEngine`]) and the critical-path
/// tracing hybrid ([`TraceEngine`]), so the campaign inner loop
/// ([`detect_chunk`]) is written exactly once.
trait PackedDetect<Wd: SimWord>: Sync {
    /// Per-worker mutable state.
    type Scratch;
    /// The `exec.*` histogram recording this engine's drain wall-clock.
    const EXEC_METRIC: &'static str;
    fn scratch(&self) -> Self::Scratch;
    /// Can any fault rooted at `gate` ever reach a primary output?
    fn observable(&self, gate: usize) -> bool;
    /// Prepares the scratch for golden chunk `chunk` — a no-op when that
    /// chunk is already resident (the engines tag their scratch with the
    /// loaded chunk), so the slices a worker claims within one
    /// chunk-major pass share one load and one warm memo.
    fn load(&self, scratch: &mut Self::Scratch, chunk: u32, golden: &[Wd]);
    /// Detection mask of `fault` under the loaded chunk.
    fn detect(&self, scratch: &mut Self::Scratch, golden: &[Wd], fault: Fault) -> Wd;
    /// Records one fault retired before the final chunk (fault dropping).
    fn note_drop(&self, scratch: &mut Self::Scratch);
    /// Flushes the scratch's counters to the telemetry registry.
    fn flush(&self, scratch: &mut Self::Scratch);
}

/// Per-worker durable drain state: the engine scratch plus the pooled
/// active-fault and per-chunk verdict lists, so steady-state unit
/// execution reuses every buffer across the units a worker claims
/// instead of reallocating per unit.
struct DrainScratch<S> {
    inner: S,
    active: Vec<u32>,
    hits: Vec<Option<usize>>,
}

impl<S> DrainScratch<S> {
    fn new(inner: S) -> Self {
        DrainScratch {
            inner,
            active: Vec::new(),
            hits: Vec::new(),
        }
    }
}

/// The event-driven packed walker ([`Detector::detect_packed`]).
struct WalkEngine<'a> {
    c: &'a CompiledNetlist,
    det: &'a Detector,
}

impl<Wd: SimWord> PackedDetect<Wd> for WalkEngine<'_> {
    type Scratch = WideScratch<Wd>;
    const EXEC_METRIC: &'static str = "exec.walk_ms";

    fn scratch(&self) -> WideScratch<Wd> {
        WideScratch::new(self.c.len())
    }

    fn observable(&self, gate: usize) -> bool {
        self.det.observable(gate)
    }

    fn load(&self, scratch: &mut WideScratch<Wd>, chunk: u32, golden: &[Wd]) {
        scratch.load_chunk(chunk, golden);
    }

    fn detect(&self, scratch: &mut WideScratch<Wd>, golden: &[Wd], fault: Fault) -> Wd {
        self.det.detect_packed(self.c, golden, scratch, fault)
    }

    fn note_drop(&self, scratch: &mut WideScratch<Wd>) {
        scratch.counters.dropped += 1;
    }

    fn flush(&self, scratch: &mut WideScratch<Wd>) {
        scratch.counters.flush_to_metrics();
    }
}

/// The hybrid CPT engine ([`Detector::detect_traced`]): observability
/// by backward tracing over fanout-free regions, event-driven walks only
/// at reconvergent stems (shared by the whole region below).
struct TraceEngine<'a> {
    c: &'a CompiledNetlist,
    det: &'a Detector,
}

impl<Wd: SimWord> PackedDetect<Wd> for TraceEngine<'_> {
    type Scratch = TraceScratch<Wd>;
    const EXEC_METRIC: &'static str = "exec.trace_ms";

    fn scratch(&self) -> TraceScratch<Wd> {
        TraceScratch::new(self.c.len())
    }

    fn observable(&self, gate: usize) -> bool {
        self.det.observable(gate)
    }

    fn load(&self, scratch: &mut TraceScratch<Wd>, chunk: u32, golden: &[Wd]) {
        scratch.load_chunk(chunk, golden);
    }

    fn detect(&self, scratch: &mut TraceScratch<Wd>, golden: &[Wd], fault: Fault) -> Wd {
        self.det.detect_traced(self.c, golden, scratch, fault)
    }

    fn note_drop(&self, scratch: &mut TraceScratch<Wd>) {
        scratch.inner.counters.dropped += 1;
    }

    fn flush(&self, scratch: &mut TraceScratch<Wd>) {
        scratch.inner.counters.flush_to_metrics();
    }
}

/// Resets `active` to the positions of `faults` whose site can reach a
/// primary output. Structurally unobservable faults can never be
/// detected, so they retire before the first chunk instead of asking the
/// engine on every one; the survivors keep site-consecutive order, which
/// keeps the one-entry observability cache hot.
fn observable_positions<Wd: SimWord, E: PackedDetect<Wd>>(
    engine: &E,
    faults: &[Fault],
    active: &mut Vec<u32>,
) {
    active.clear();
    active.extend(
        (0..faults.len() as u32)
            .filter(|&fi| engine.observable(faults[fi as usize].site().gate().index())),
    );
}

/// Detects the faults at `positions` of `faults` under golden chunk
/// `ci`, replacing `hits` with one verdict per position: the first
/// detecting pattern index, or `None`. This is the single campaign inner
/// loop, shared by the plain chunk-major passes and the durable per-unit
/// sweep, which is what keeps their verdicts bit-identical.
fn detect_chunk<Wd: SimWord, E: PackedDetect<Wd>>(
    engine: &E,
    scratch: &mut E::Scratch,
    chunks: &GoldenChunks<Wd>,
    ci: usize,
    faults: &[Fault],
    positions: &[u32],
    hits: &mut Vec<Option<usize>>,
) {
    let (golden, live) = chunks.chunk(ci);
    engine.load(scratch, ci as u32, golden);
    let last = ci + 1 == chunks.len();
    hits.clear();
    hits.extend(positions.iter().map(|&fi| {
        let mask = engine.detect(scratch, golden, faults[fi as usize]) & live;
        let lane = mask.first_lane()?;
        if !last {
            // Retired early: later chunks never walk this fault's cone.
            engine.note_drop(scratch);
        }
        Some(ci * Wd::LANES + lane)
    }));
}

/// Fault dropping: removes from `active` every position that `hits` (one
/// verdict per position, in order) detected, recording its first
/// detection in `first`. Undetected positions stay active, in order.
fn retire(active: &mut Vec<u32>, hits: &[Option<usize>], first: &mut [Option<usize>]) {
    let mut hits = hits.iter();
    active.retain(
        |&fi| match *hits.next().expect("one verdict per active position") {
            Some(p) => {
                first[fi as usize] = Some(p);
                false
            }
            None => true,
        },
    );
}

/// Drains one durable unit over every golden chunk with fault dropping.
/// A unit is the crash-safety boundary, so it sweeps all chunks itself
/// rather than joining the chunk-major passes of [`execute_packed`].
fn drain_unit<Wd: SimWord, E: PackedDetect<Wd>>(
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    scratch: &mut DrainScratch<E::Scratch>,
    range: &[Fault],
) -> Vec<Option<usize>> {
    let mut first: Vec<Option<usize>> = vec![None; range.len()];
    let DrainScratch {
        inner,
        active,
        hits,
    } = scratch;
    observable_positions(engine, range, active);
    for ci in 0..chunks.len() {
        if active.is_empty() {
            break; // every detectable fault in this unit dropped
        }
        detect_chunk(engine, inner, chunks, ci, range, active, hits);
        retire(active, hits, &mut first);
    }
    // Unit granularity: one registry touch per work call, never per
    // fault.
    engine.flush(inner);
    first
}

/// Executes the walk list chunk-major: one pass per golden chunk over
/// the walk positions still undetected after the earlier chunks, each
/// pass handed out under the campaign's schedule. Every fault still
/// meets the chunks in order and drops at its first detection, so the
/// verdicts equal the 1-worker run's for every worker count and
/// schedule. Each worker's scratch is built on first use and kept
/// across passes, so a worker loads each golden chunk at most once and
/// keeps its observability memo warm for the whole pass.
///
/// The returned run carries the first detection per walk position,
/// worker busy time summed per worker over the passes, and the summed
/// slice and steal counts.
fn execute_packed<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
) -> ShardedRun<Option<usize>>
where
    E::Scratch: Send,
{
    let start = Instant::now();
    let pool: Vec<Mutex<Option<E::Scratch>>> =
        (0..campaign.workers).map(|_| Mutex::new(None)).collect();
    let mut out = ShardedRun {
        results: vec![None; walk.len()],
        worker_ns: Vec::new(),
        elapsed_ns: 0,
        chunks: 0,
        steals: 0,
    };
    let mut active = Vec::new();
    observable_positions(engine, walk, &mut active);
    for ci in 0..chunks.len() {
        if active.is_empty() {
            break; // every detectable fault dropped
        }
        let scratch = |w: usize| pool[w].lock().expect("a campaign worker panicked");
        let work = |slot: &mut std::sync::MutexGuard<Option<E::Scratch>>,
                    _offset: usize,
                    slice: &[u32]| {
            let scratch = slot.get_or_insert_with(|| engine.scratch());
            let mut hits = Vec::with_capacity(slice.len());
            detect_chunk(engine, scratch, chunks, ci, walk, slice, &mut hits);
            // Slice granularity: one registry touch per work call.
            engine.flush(scratch);
            hits
        };
        let pass = match campaign.schedule {
            Schedule::Static => campaign.run_ranges(&active, scratch, work),
            Schedule::Dynamic { .. } => campaign.run_dynamic(&active, scratch, work),
        };
        retire(&mut active, &pass.results, &mut out.results);
        if out.worker_ns.len() < pass.worker_ns.len() {
            out.worker_ns.resize(pass.worker_ns.len(), 0);
        }
        for (total, ns) in out.worker_ns.iter_mut().zip(&pass.worker_ns) {
            *total += ns;
        }
        out.chunks += pass.chunks;
        out.steals += pass.steals;
    }
    out.elapsed_ns = start.elapsed().as_nanos() as u64;
    out
}

/// Drains the walk list through `engine`: chunk-major passes
/// ([`execute_packed`]) for a plain campaign, or the manifest's units
/// through the result store ([`run_durable`]) when `durable` is set.
/// Returns the first detection per walk position and the run's timing
/// and unit figures. Wall-clock is recorded in the engine's `exec.*`
/// histogram when telemetry is enabled.
fn drain_walk<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    durable: Option<&(CampaignManifest, &dyn ResultStore)>,
) -> (Vec<Option<usize>>, CampaignStats)
where
    E::Scratch: Send,
{
    let start = Instant::now();
    let drained = match durable {
        None => {
            let run = execute_packed(campaign, walk, engine, chunks);
            let stats = CampaignStats::from_run(walk.len(), &run);
            (run.results, stats)
        }
        Some((manifest, store)) => {
            let run = run_durable(campaign, walk, engine, chunks, manifest, *store);
            let stats = CampaignStats {
                elapsed_ns: run.elapsed_ns,
                workers: run.worker_ns.len(),
                worker_ns: run.worker_ns,
                chunks_stolen: run.steals,
                units_total: run.units_total,
                // "Cached" from this run's point of view is everything it
                // did not execute itself: store hits plus units a
                // concurrent peer published while we waited.
                units_cached: run.units_cached + run.units_waited,
                units_executed: run.units_executed,
                ..CampaignStats::default()
            };
            (run.results, stats)
        }
    };
    if rescue_telemetry::enabled() {
        metrics::histogram(E::EXEC_METRIC, &metrics::pow2_bounds(16))
            .record(start.elapsed().as_millis() as u64);
    }
    drained
}

/// Runs the walk list through [`Campaign::run_store`]: the manifest's
/// units drain through [`drain_unit`], with verdicts persisted (and
/// answered) through the result store.
fn run_durable<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    manifest: &CampaignManifest,
    store: &dyn ResultStore,
) -> DurableRun<Option<usize>>
where
    E::Scratch: Send,
{
    let n_chunks = chunks.len();
    campaign.run_store(
        walk,
        manifest,
        store,
        |_w| DrainScratch::new(engine.scratch()),
        |scratch: &mut DrainScratch<E::Scratch>, _offset: usize, range: &[Fault]| {
            drain_unit(engine, chunks, scratch, range)
        },
        encode_verdicts,
        decode_verdicts,
        move |rs: &[Option<usize>]| unit_delta::<Wd>(rs, n_chunks),
    )
}

/// Persisted verdict payload of one unit: a `u64` count followed by one
/// little-endian `u64` first-detection index per walked fault, with
/// `u64::MAX` standing in for "never detected".
fn encode_verdicts(rs: &[Option<usize>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rs.len() * 8);
    out.extend_from_slice(&(rs.len() as u64).to_le_bytes());
    for r in rs {
        out.extend_from_slice(&r.map_or(u64::MAX, |p| p as u64).to_le_bytes());
    }
    out
}

/// Inverse of [`encode_verdicts`]; `None` marks the payload corrupt
/// (truncated or miscounted), which forces re-execution of the unit.
fn decode_verdicts(bytes: &[u8]) -> Option<Vec<Option<usize>>> {
    if bytes.len() < 8 {
        return None;
    }
    let (head, body) = bytes.split_at(8);
    let n = u64::from_le_bytes(head.try_into().unwrap()) as usize;
    if body.len() != n.checked_mul(8)? {
        return None;
    }
    Some(
        body.chunks_exact(8)
            .map(|c| {
                let v = u64::from_le_bytes(c.try_into().unwrap());
                (v != u64::MAX).then_some(v as usize)
            })
            .collect(),
    )
}

/// Deterministic stats contribution of one unit, persisted next to its
/// verdicts so a resumed campaign's merged delta matches an
/// uninterrupted run bit for bit. Drop counts follow the report rule:
/// detected before the final pattern word.
fn unit_delta<Wd: SimWord>(rs: &[Option<usize>], n_chunks: usize) -> StatsDelta {
    let detected = rs.iter().flatten().count() as u64;
    let dropped = rs
        .iter()
        .flatten()
        .filter(|&&p| p / Wd::LANES + 1 < n_chunks)
        .count() as u64;
    StatsDelta {
        injections: rs.len() as u64,
        detected,
        undetected: rs.len() as u64 - detected,
        dropped,
        faults_walked: rs.len() as u64,
        ..StatsDelta::default()
    }
}

/// Walk-list map entry of a fault whose class cannot reach a primary
/// output: never walked, never detected.
const UNOBSERVED: u32 = u32::MAX;

/// Below this many items the report bookkeeping passes stay on the
/// calling thread: starting threads would cost more than the pass.
const PARALLEL_BOOKKEEPING_MIN: usize = 1 << 16;

/// Runs `f(offset, shard)` over up to `workers` contiguous shards of
/// `items` — on scoped threads when `items` is large enough to pay for
/// them — and returns the results in shard order.
fn for_shards<T: Send, R: Send>(
    items: &mut [T],
    workers: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() < PARALLEL_BOOKKEEPING_MIN {
        return vec![f(0, items)];
    }
    let per = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(per)
            .enumerate()
            .map(|(k, shard)| scope.spawn(move || f(k * per, shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("report bookkeeping thread panicked"))
            .collect()
    })
}

/// Shared tail of the plain and durable packed campaigns: lane
/// telemetry, verdict expansion over the full universe and the final
/// tally/drop accounting. `stats` arrives with the timing, worker and
/// unit figures already filled by the respective driver.
///
/// The expansion and the tallies run over `workers` fault shards, while
/// one more thread copies the fault list into the report.
#[allow(clippy::too_many_arguments)]
fn finish_packed<Wd: SimWord>(
    faults: &[Fault],
    patterns: &[Vec<bool>],
    opts: &PackedOptions,
    chunks: &GoldenChunks<Wd>,
    expand: Option<&[u32]>,
    results: Vec<Option<usize>>,
    mut stats: CampaignStats,
    workers: usize,
) -> CampaignRun {
    let n_chunks = chunks.len();
    if rescue_telemetry::enabled() {
        // Bounds cover every supported width (64 * {1, 2, 4, 8}) so
        // one histogram serves all lane widths.
        let lanes = rescue_telemetry::metrics::histogram(
            "fault.packed_lanes",
            &[8, 16, 24, 32, 40, 48, 56, 64, 128, 192, 256, 384, 512],
        );
        for live in chunks.live_masks() {
            lanes.record(live.count_ones() as u64);
        }
        rescue_telemetry::metrics::gauge("fault.lane_width").set(Wd::LANES as i64);
        rescue_telemetry::metrics::gauge("fault.collapse_ratio_pct")
            .set((stats.collapse_ratio() * 100.0).round() as i64);
        if opts.tracing {
            rescue_telemetry::metrics::gauge("fault.traced_fraction_pct")
                .set((stats.traced_fraction() * 100.0).round() as i64);
        }
    }
    for live in chunks.live_masks() {
        stats.record_lanes(live.count_ones() as u64, Wd::LANES as u64);
    }
    let (report_faults, first_detection, tallies) = std::thread::scope(|scope| {
        let copy = (faults.len() >= PARALLEL_BOOKKEEPING_MIN && workers > 1)
            .then(|| scope.spawn(|| faults.to_vec()));
        // Expand representative verdicts back over the full universe;
        // an unobserved slot is an unobservable class, never detected.
        let (mut first_detection, walked) = match expand {
            None => (results, Vec::new()),
            Some(_) => (vec![None; faults.len()], results),
        };
        let tallies = for_shards(&mut first_detection, workers, |offset, shard| {
            if let Some(map) = expand {
                for (first, &slot) in shard.iter_mut().zip(&map[offset..]) {
                    if slot != UNOBSERVED {
                        *first = walked[slot as usize];
                    }
                }
            }
            // A fault counts as dropped when it retired before the final
            // pattern word (same rule as the fault.dropped counter).
            let detected = shard.iter().flatten();
            let dropped = detected
                .clone()
                .filter(|&&p| p / Wd::LANES + 1 < n_chunks)
                .count();
            (detected.count(), dropped)
        });
        let report_faults = match copy {
            Some(h) => h.join().expect("fault list copy thread panicked"),
            None => faults.to_vec(),
        };
        (report_faults, first_detection, tallies)
    });
    stats.tally.detected = tallies.iter().map(|t| t.0).sum();
    stats.tally.undetected = faults.len() - stats.tally.detected;
    stats.dropped = tallies.iter().map(|t| t.1).sum();
    let report = CampaignReport {
        faults: report_faults,
        first_detection,
        patterns: patterns.len(),
    };
    // At the end, so the peak includes the report; left unset where
    // the peak cannot be read.
    if let Some(bytes) = rescue_telemetry::enabled()
        .then(metrics::peak_rss_bytes)
        .flatten()
    {
        metrics::gauge("mem.peak_rss_bytes").set(i64::try_from(bytes).unwrap_or(i64::MAX));
    }
    CampaignRun { report, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use rescue_netlist::{generate, NetlistBuilder};

    fn exhaustive_patterns(n: usize) -> Vec<Vec<bool>> {
        (0..(1u32 << n))
            .map(|p| (0..n).map(|i| p >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn c17_full_coverage_exhaustive() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let sim = FaultSimulator::new(&c);
        let report = sim.campaign(&faults, &exhaustive_patterns(5));
        assert_eq!(
            report.coverage(),
            1.0,
            "c17 is fully testable: {:?}",
            report.undetected()
        );
        assert_eq!(report.patterns(), 32);
    }

    #[test]
    fn redundant_fault_is_undetectable() {
        // y = a OR (a AND b): the AND gate's sa0 is redundant.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let x = b.input("b");
        let g = b.and(a, x);
        let y = b.or(a, g);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        let f = Fault::stuck_at(FaultSite::Output(g), false);
        let report = sim.campaign(&[f], &exhaustive_patterns(2));
        assert_eq!(report.detected_count(), 0, "redundant fault undetectable");
    }

    #[test]
    fn pin_fault_differs_from_output_fault() {
        // Fanout stem: x feeds two ANDs. A pin sa1 on one branch is not
        // the same as the stem's output sa1.
        let mut b = NetlistBuilder::new("stem");
        let x = b.input("x");
        let p = b.input("p");
        let q = b.input("q");
        let g1 = b.and(x, p);
        let g2 = b.and(x, q);
        b.output("y1", g1);
        b.output("y2", g2);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        let pats = exhaustive_patterns(3);
        let stem = Fault::stuck_at(FaultSite::Output(x), true);
        let branch = Fault::stuck_at(FaultSite::Pin { gate: g1, pin: 0 }, true);
        let r = sim.campaign(&[stem, branch], &pats);
        assert_eq!(r.detected_count(), 2);
        // x=0,p=1,q=1: stem fault corrupts both outputs, branch only y1.
        let words = pack_patterns(&[vec![false, true, true]]);
        let golden = sim.golden(&words);
        let fs = sim.with_stuck(&words, stem);
        let fb = sim.with_stuck(&words, branch);
        assert_eq!(fs[g2.index()] & 1, 1, "stem corrupts second branch");
        assert_eq!(fb[g2.index()] & 1, golden[g2.index()] & 1);
    }

    #[test]
    fn bridge_fault_detection() {
        let mut b = NetlistBuilder::new("br");
        let a = b.input("a");
        let c = b.input("c");
        let n1 = b.buf(a);
        let n2 = b.buf(c);
        b.output("y1", n1);
        b.output("y2", n2);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        // a=1, c=0: wired-AND forces both to 0 -> y1 flips.
        let words = pack_patterns(&[vec![true, false]]);
        let v = sim.with_bridge(
            &words,
            BridgingFault {
                a: n1,
                b: n2,
                wired_and: true,
            },
        );
        assert_eq!(v[n1.index()] & 1, 0);
        let v = sim.with_bridge(
            &words,
            BridgingFault {
                a: n1,
                b: n2,
                wired_and: false,
            },
        );
        assert_eq!(v[n2.index()] & 1, 1, "wired-OR pulls the 0 net up");
    }

    #[test]
    fn transition_faults_need_transitions() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        let faults = universe::transition_universe(&n);
        // Constant stimulus: no transitions, nothing detected.
        let r = sim.transition_campaign(&faults, &[vec![false], vec![false]]);
        assert_eq!(r.detected_count(), 0);
        // 0 -> 1 launches rising transitions through a and y.
        let r = sim.transition_campaign(&faults, &[vec![false], vec![true]]);
        let detected: Vec<String> = faults
            .iter()
            .zip(r.first_detection())
            .filter(|(_, d)| d.is_some())
            .map(|(f, _)| f.to_string())
            .collect();
        assert!(detected.iter().any(|f| f.contains("str")), "{detected:?}");
        // slow-to-fall needs 1 -> 0.
        let r = sim.transition_campaign(&faults, &[vec![true], vec![false]]);
        let has_stf = faults
            .iter()
            .zip(r.first_detection())
            .any(|(f, d)| d.is_some() && f.kind() == FaultKind::SlowToFall);
        assert!(has_stf);
    }

    #[test]
    fn sequential_campaign_detects_through_state() {
        // Shift register: a stuck fault at the serial input shows up at the
        // output only n cycles later.
        let s = generate::shift_register(3);
        let sin = s.primary_inputs()[0];
        let sim = FaultSimulator::new(&s);
        let f = Fault::stuck_at(FaultSite::Output(sin), false);
        // Drive 1s; fault forces 0s; first output divergence at cycle 3.
        let stim: Vec<Vec<bool>> = (0..6).map(|_| vec![true]).collect();
        let r = sim.campaign_seq(&[f], &stim);
        assert_eq!(r.first_detection()[0], Some(3));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn campaign_records_peak_rss() {
        let _serial = rescue_telemetry::exclusive();
        rescue_telemetry::TelemetryConfig::on().install();
        let net = generate::c17();
        let faults = universe::stuck_at_universe(&net);
        FaultSimulator::new(&net).campaign(&faults, &exhaustive_patterns(5));
        let peak = metrics::gauge("mem.peak_rss_bytes").get();
        rescue_telemetry::TelemetryConfig::off().install();
        assert!(peak > 0, "mem.peak_rss_bytes = {peak}");
    }

    #[test]
    fn coverage_of_empty_fault_list_is_one() {
        let c = generate::c17();
        let sim = FaultSimulator::new(&c);
        let r = sim.campaign(&[], &exhaustive_patterns(5));
        assert_eq!(r.coverage(), 1.0);
    }
}
