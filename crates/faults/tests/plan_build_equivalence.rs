//! Parallel setup passes and the compiled-artifact cache must be
//! invisible: sharded collapse and reachability sweeps identical to
//! serial ones, cache reloads giving the reports of a fresh compile, and
//! a failing cache never failing the campaign.
//!
//! These properties are the correctness argument for the million-gate
//! setup path — the benchmarks only measure speed because this suite
//! pins equivalence.

use proptest::prelude::*;
use rescue_campaign::{ArtifactStore, Campaign};
use rescue_faults::engine::{po_reachable, po_reachable_with};
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::{collapse, content, universe};
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

    /// End to end through the artifact store: a cold simulator compiles
    /// and publishes its arena, a warm one decodes it, and both give the
    /// report of a simulator with no cache at all — across lane widths,
    /// collapse and tracing settings.
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
            prop_assert!(
                store.contains(content::compiled_key(&net)),
                "{} pass left no arena in the cache",
                pass
            );
            let run = sim.campaign_packed(&faults, &patterns, &campaign, opts);
            prop_assert_eq!(
                &run.report,
                &baseline.report,
                "{} cache pass diverged",
                pass
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The small-design proptests above stay under the serial-fallback
/// thresholds for the reachability sweep and collapse; this one design
/// is big enough to force both parallel code paths.
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
}

/// A cache whose directory vanished fails every publish; the simulator
/// keeps the arena it compiled, reports exactly what an uncached
/// simulator reports, and does not recreate the cache.
#[test]
fn failed_artifact_write_keeps_the_campaign() {
    let net = generate::random_logic(6, 60, 3, 4);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(6, 64, 4);
    let plain_sim = FaultSimulator::new(&net);
    let (dir, store) = scratch_store("gone", 4);
    std::fs::remove_dir_all(&dir).unwrap();
    let cached_sim = FaultSimulator::new_cached(&net, &store);
    for opts in [PackedOptions::default(), PackedOptions::default().traced()] {
        let plain = plain_sim.campaign_packed(&faults, &patterns, &Campaign::serial(), opts);
        let cached = cached_sim.campaign_packed(&faults, &patterns, &Campaign::serial(), opts);
        assert_eq!(cached.report, plain.report);
    }
    assert!(
        !dir.exists(),
        "a failed publish must not recreate the cache"
    );
}
