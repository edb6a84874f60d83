//! Equivalence of the PPSFP packed observability path against the
//! full-resimulation oracle, and of the work-stealing scheduler against
//! the static sharded driver.
//!
//! [`Detector::detect_packed`] factors detection into one
//! observability walk per (site, 64-pattern word) shared by every fault
//! at that site; these tests pin down that the factoring is **exact** —
//! detection masks per word equal [`ReferenceFaultSimulator`]'s, and
//! `first_detection` vectors match with and without fault dropping, for
//! every worker count, schedule and chunk grain — and that
//! `Campaign::run_dynamic` is verdict- and order-identical to
//! `run_sharded` no matter which worker claims which chunk.

use proptest::prelude::*;
use rescue_campaign::{Campaign, MemStore, Schedule};
use rescue_faults::engine::{Detector, FaultScratch};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::cone::comb_fanout_cone;
use rescue_netlist::generate;
use rescue_sim::parallel::{live_mask, pack_patterns};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-word detection masks from the packed observability path equal
    /// the reference oracle's for every fault on every chunk, including
    /// partial last chunks (73 patterns = 64 + 9).
    #[test]
    fn detect_packed_masks_match_scalar(seed in 1u64..500) {
        let net = generate::random_logic(7, 90, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(7, 73, seed);
        let sim = FaultSimulator::new(&net);
        let oracle = ReferenceFaultSimulator::new(&net);
        let c = sim.compiled();
        let det = Detector::new(c);
        let mut packed = FaultScratch::new(c.len());
        for chunk in patterns.chunks(64) {
            let words = pack_patterns(chunk);
            let golden = sim.golden(&words);
            let live = live_mask(chunk.len());
            packed.load_golden(&golden);
            for &fault in &faults {
                prop_assert_eq!(
                    det.detect_packed(c, &golden, &mut packed, fault) & live,
                    oracle.detection_mask(&net, &words, &golden, fault) & live,
                    "{}", fault
                );
            }
        }
    }

    /// The full packed campaign — with fault dropping — produces the
    /// same `first_detection` vector as the reference dropping campaign,
    /// for 1, 2, 4 and 8 workers under both schedules and several
    /// explicit chunk grains, on the mostly-dead `random_logic` family
    /// and on `observable_logic`, whose faults almost all propagate to an
    /// output.
    #[test]
    fn packed_campaign_matches_scalar_any_schedule(seed in 1u64..300) {
        for net in [
            generate::random_logic(8, 110, 4, seed),
            generate::observable_logic(8, 110, 16, seed),
        ] {
            let faults = universe::stuck_at_universe(&net);
            let patterns = random_patterns(8, 180, seed);
            let sim = FaultSimulator::new(&net);
            let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
            for workers in [1usize, 2, 4, 8] {
                for schedule in [
                    Schedule::Static,
                    Schedule::Dynamic { chunk: 0 },
                    Schedule::Dynamic { chunk: 1 },
                    Schedule::Dynamic { chunk: 17 },
                ] {
                    let run = sim.campaign_packed(
                        &faults,
                        &patterns,
                        &Campaign::new(0, workers).with_schedule(schedule),
                        PackedOptions::default(),
                    );
                    prop_assert_eq!(
                        run.report.first_detection(),
                        oracle.first_detection(),
                        "{}: workers = {}, schedule = {:?}", net.name(), workers, schedule
                    );
                }
            }
        }
    }

    /// Without dropping — every fault probed on every word — the packed
    /// path still reproduces the oracle's masks fault-for-fault, so the
    /// shared observability word is exact even for faults the dropping
    /// campaign would have retired long ago.
    #[test]
    fn packed_without_dropping_matches_scalar(seed in 1u64..300) {
        let net = generate::random_logic(6, 70, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(6, 100, seed);
        let sim = FaultSimulator::new(&net);
        let oracle = ReferenceFaultSimulator::new(&net);
        let c = sim.compiled();
        let det = Detector::new(c);
        let mut packed = FaultScratch::new(c.len());
        let mut first_oracle = vec![None; faults.len()];
        let mut first_packed = vec![None; faults.len()];
        for (ci, chunk) in patterns.chunks(64).enumerate() {
            let words = pack_patterns(chunk);
            let golden = sim.golden(&words);
            let live = live_mask(chunk.len());
            packed.load_golden(&golden);
            // No `continue` on prior detection: both paths keep probing.
            for (fi, &fault) in faults.iter().enumerate() {
                let mo = oracle.detection_mask(&net, &words, &golden, fault) & live;
                let mp = det.detect_packed(c, &golden, &mut packed, fault) & live;
                prop_assert_eq!(mo, mp, "{}", fault);
                for (first, mask) in [(&mut first_oracle, mo), (&mut first_packed, mp)] {
                    if first[fi].is_none() && mask != 0 {
                        first[fi] = Some(ci * 64 + mask.trailing_zeros() as usize);
                    }
                }
            }
        }
        prop_assert_eq!(first_oracle, first_packed);
    }

    /// `run_dynamic` is result- and order-identical to `run_sharded`
    /// across worker counts and chunk grains (reshard stability), with
    /// chunk/steal accounting that adds up.
    #[test]
    fn run_dynamic_matches_run_sharded(len in 0usize..400, seed in 0u64..100) {
        let items: Vec<u64> = (0..len as u64).collect();
        let baseline = Campaign::new(seed, 1)
            .run_sharded(&items, |_| (), |_, i, &x| (i, x.wrapping_mul(seed | 1)));
        for workers in [1usize, 2, 3, 4, 8] {
            for chunk in [0usize, 1, 7, 64] {
                let campaign = Campaign::new(seed, workers)
                    .with_schedule(Schedule::Dynamic { chunk });
                let run = campaign.run_dynamic(
                    &items,
                    |_| (),
                    |_, offset, shard| {
                        shard
                            .iter()
                            .enumerate()
                            .map(|(i, &x)| (offset + i, x.wrapping_mul(seed | 1)))
                            .collect()
                    },
                );
                prop_assert_eq!(&baseline.results, &run.results,
                    "workers = {}, chunk = {}", workers, chunk);
                if len > 0 {
                    let grain = campaign.chunk_size(len);
                    // Serial runs (and single-chunk queues) take the
                    // inline fast path: one whole-range chunk.
                    let expect = if workers == 1 || len.div_ceil(grain) == 1 {
                        1
                    } else {
                        len.div_ceil(grain)
                    };
                    prop_assert_eq!(run.chunks, expect);
                }
            }
        }
    }
}

/// Sites whose fanout cone reaches no primary output are statically
/// unobservable: the packed path must report 0 for every fault there,
/// and `Detector::observable` must agree with a direct cone scan.
#[test]
fn unobservable_sites_detect_nothing() {
    let net = generate::random_logic(10, 400, 2, 99);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(10, 64, 99);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let det = Detector::new(c);
    let words = pack_patterns(&patterns);
    let golden = sim.golden(&words);
    let mut scratch = FaultScratch::new(c.len());
    scratch.load_golden(&golden);
    let mut unobservable = 0;
    for &fault in &faults {
        let root = fault.site().gate();
        let reachable = comb_fanout_cone(&net, &[root])
            .iter()
            .any(|&g| c.is_po(g.index()));
        assert_eq!(det.observable(root.index()), reachable);
        if !reachable {
            unobservable += 1;
            assert_eq!(det.detect_packed(c, &golden, &mut scratch, fault), 0);
        }
    }
    assert!(
        unobservable > 0,
        "workload should exercise the pruning path"
    );
}

/// Universes large enough for the walk list and the report expansion to
/// run sharded over worker threads. At every worker count the collapsed
/// campaign gives the 1-worker uncollapsed report and tallies, and the
/// walk list keeps its order: a durable run reuses the units a 1-worker
/// run stored.
#[test]
fn sharded_bookkeeping_matches_one_worker() {
    let net = generate::random_logic(16, 14_000, 8, 11);
    let faults = universe::stuck_at_universe(&net);
    assert!(faults.len() > 1 << 16, "universe too small to shard");
    let collapsed = rescue_faults::collapse::collapse(&net, &faults);
    let patterns = random_patterns(16, 100, 11);
    let sim = FaultSimulator::new(&net);
    let plain = PackedOptions::default().traced();
    let oracle = sim.campaign_packed(&faults, &patterns, &Campaign::new(1, 1), plain);
    let opts = plain.with_collapsed(&collapsed);
    let store = MemStore::new();
    for workers in [1, 2, 3] {
        let campaign = Campaign::new(1, workers);
        let run = sim.campaign_packed(&faults, &patterns, &campaign, opts);
        assert_eq!(run.report, oracle.report, "{workers} workers");
        assert_eq!(run.stats.tally, oracle.stats.tally, "{workers} workers");
        assert_eq!(run.stats.dropped, oracle.stats.dropped, "{workers} workers");
        let durable = sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &store, 64);
        assert_eq!(durable.report, oracle.report, "{workers} workers, durable");
        assert!(
            durable.stats.units_total > 1,
            "the plan should span several units"
        );
        let executed = if workers == 1 {
            durable.stats.units_total
        } else {
            0
        };
        assert_eq!(
            durable.stats.units_executed, executed,
            "{workers} workers, durable"
        );
    }
}
