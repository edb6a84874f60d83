//! Parallel plan construction and the compiled-artifact cache must be
//! invisible: sharded builds byte-identical to serial ones, cache reloads
//! byte-identical to fresh builds, verdicts unchanged through both.
//!
//! These properties are the entire correctness argument for the
//! million-gate scaling work — the benchmarks only measure speed because
//! this suite pins equivalence.

use proptest::prelude::*;
use rescue_campaign::{ArtifactStore, Campaign};
use rescue_faults::engine::{po_reachable, po_reachable_with, CampaignPlan};
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::trace::TracePlan;
use rescue_faults::{collapse, universe};
use rescue_netlist::generate;
use rescue_sim::compiled::CompiledNetlist;

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1);
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

fn scratch_store(tag: &str, seed: u64) -> (std::path::PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!(
        "rescue-plan-eq-{tag}-{seed}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir);
    (dir, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded cone construction concatenates to exactly the serial CSR,
    /// for both the full and the observability-restricted plan family.
    #[test]
    fn parallel_plan_build_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let serial = CampaignPlan::build(&c, &faults);
        let parallel = CampaignPlan::build_with(&c, &faults, workers);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.to_bytes(), parallel.to_bytes());
        let serial_obs = CampaignPlan::build_observable(&c, &faults);
        let parallel_obs = CampaignPlan::build_observable_with(&c, &faults, workers);
        prop_assert_eq!(&serial_obs, &parallel_obs);
        prop_assert_eq!(serial_obs.to_bytes(), parallel_obs.to_bytes());
    }

    /// Trace-plan construction (net classification + chain ascent + the
    /// restricted cone build) shards without changing a byte.
    #[test]
    fn parallel_trace_build_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let serial = TracePlan::build(&c, &faults);
        let parallel = TracePlan::build_with(&c, &faults, workers);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.to_bytes(), parallel.to_bytes());
    }

    /// Sharded collapse produces the same representatives and the same
    /// per-fault representative mapping as the serial rule pass.
    #[test]
    fn parallel_collapse_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let serial = collapse::collapse(&net, &faults);
        let parallel = collapse::collapse_with(&net, &faults, workers);
        prop_assert_eq!(serial.representatives(), parallel.representatives());
        for &f in &faults {
            prop_assert_eq!(serial.representative(f), parallel.representative(f));
        }
    }

    /// Wire round trips reconstruct plans exactly, so a cache hit is
    /// indistinguishable from a fresh build.
    #[test]
    fn plan_wire_round_trips(seed in 1u64..500) {
        let net = generate::random_logic(8, 120, 4, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let plan = CampaignPlan::build(&c, &faults);
        prop_assert_eq!(CampaignPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);
        let tplan = TracePlan::build(&c, &faults);
        prop_assert_eq!(TracePlan::from_bytes(&tplan.to_bytes()).unwrap(), tplan);
        let compiled_bytes = c.to_bytes();
        prop_assert_eq!(CompiledNetlist::from_bytes(&compiled_bytes).unwrap(), c);
    }

    /// End to end through the artifact store: a cold campaign publishes
    /// its plans, a warm one reloads them, and verdicts are identical to
    /// running with no cache at all — across lane widths, collapse and
    /// tracing settings.
    #[test]
    fn cached_campaign_matches_uncached(
        seed in 1u64..200,
        wide in any::<bool>(),
        tracing in any::<bool>(),
        collapsed in any::<bool>(),
    ) {
        let lane_width = if wide { 4 } else { 1 };
        let net = generate::random_logic(6, 80, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(6, 48, seed);
        let campaign = Campaign::new(seed, 2);
        let cu = collapse::collapse(&net, &faults);
        let mut opts = PackedOptions::wide(lane_width);
        if tracing {
            opts = opts.traced();
        }
        if collapsed {
            opts = opts.with_collapsed(&cu);
        }
        let baseline =
            FaultSimulator::new(&net).campaign_packed(&faults, &patterns, &campaign, opts);

        let (dir, store) = scratch_store("e2e", seed);
        for pass in ["cold", "warm"] {
            let sim = FaultSimulator::new_cached(&net, &store);
            let run = sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store));
            prop_assert_eq!(
                run.report.first_detection(),
                baseline.report.first_detection(),
                "{} cache pass diverged",
                pass
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The small-design proptests above stay under the serial-fallback
/// thresholds for the level sweep, net classification and collapse; this
/// one design is big enough to force every parallel code path.
#[test]
fn parallel_paths_engage_above_thresholds() {
    let net = generate::random_logic(24, 40_000, 8, 11);
    let c = CompiledNetlist::new(&net);
    assert_eq!(po_reachable(&c), po_reachable_with(&c, 4));

    let faults = universe::stuck_at_universe(&net);
    assert!(
        faults.len() > 1 << 14,
        "universe must cross the collapse threshold"
    );
    let serial = collapse::collapse(&net, &faults);
    let parallel = collapse::collapse_with(&net, &faults, 4);
    assert_eq!(serial.representatives(), parallel.representatives());

    // A strided fault subset keeps the cone DFS affordable while still
    // exercising the sharded builders on a >2^15-gate design.
    let subset: Vec<_> = faults.iter().copied().step_by(97).collect();
    assert_eq!(
        CampaignPlan::build(&c, &subset).to_bytes(),
        CampaignPlan::build_with(&c, &subset, 4).to_bytes()
    );
    assert_eq!(
        TracePlan::build(&c, &subset).to_bytes(),
        TracePlan::build_with(&c, &subset, 4).to_bytes()
    );
}

/// A cache whose directory vanished fails every publish; the campaign
/// keeps the plans it built and reports exactly what an uncached run
/// reports.
#[test]
fn failed_artifact_write_keeps_the_campaign() {
    let net = generate::random_logic(6, 60, 3, 4);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(6, 64, 4);
    let sim = FaultSimulator::new(&net);
    let (dir, store) = scratch_store("gone", 4);
    std::fs::remove_dir_all(&dir).unwrap();
    for opts in [PackedOptions::default(), PackedOptions::default().traced()] {
        let plain = sim.campaign_packed(&faults, &patterns, &Campaign::serial(), opts);
        let cached = sim.campaign_packed(
            &faults,
            &patterns,
            &Campaign::serial(),
            opts.with_artifacts(&store),
        );
        assert_eq!(cached.report, plain.report);
    }
    assert!(
        !dir.exists(),
        "a failed publish must not recreate the cache"
    );
}
