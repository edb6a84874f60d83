//! Property-based tests for the functional-safety analyses.

use proptest::prelude::*;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::{simulate::FaultSimulator, universe};
use rescue_netlist::generate;
use rescue_safety::classify::{classify, FaultClass};
use rescue_safety::metrics::SafetyMetrics;
use rescue_safety::pruning::prune;
use rescue_safety::slicing::{dynamic_slice, sliced_campaign};

fn patterns(n_in: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1);
    (0..count)
        .map(|_| {
            (0..n_in)
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Classification classes partition the fault list, and metrics stay
    /// within their definitional bounds.
    #[test]
    fn classification_partitions(seed in 1u64..200) {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let outs: Vec<String> = net.primary_outputs().iter().map(|(n, _)| n.clone()).collect();
        let pats = patterns(6, 48, seed);
        let r = classify(&net, &faults, &outs, &[], &pats);
        let total = r.count(FaultClass::Safe)
            + r.count(FaultClass::Detected)
            + r.count(FaultClass::Residual)
            + r.count(FaultClass::Latent);
        prop_assert_eq!(total, faults.len());
        let m = SafetyMetrics::from_classification(&r, rescue_radiation::Fit::new(100.0));
        prop_assert!((0.0..=1.0).contains(&m.spfm));
        prop_assert!((0.0..=1.0).contains(&m.lfm));
        prop_assert!(m.pmhf.value() <= 100.0);
    }

    /// Without checkers there can be no Detected or Latent faults.
    #[test]
    fn no_checker_no_detection(seed in 1u64..200) {
        let net = generate::random_logic(6, 40, 2, seed);
        let faults = universe::stuck_at_universe(&net);
        let outs: Vec<String> = net.primary_outputs().iter().map(|(n, _)| n.clone()).collect();
        let r = classify(&net, &faults, &outs, &[], &patterns(6, 32, seed));
        prop_assert_eq!(r.count(FaultClass::Detected), 0);
        prop_assert_eq!(r.count(FaultClass::Latent), 0);
    }

    /// Pruned faults never corrupt a safety output under any stimulus
    /// (checked exhaustively for small input counts).
    #[test]
    fn pruning_is_sound(seed in 1u64..100) {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let safety_out = vec![net.primary_outputs()[0].0.clone()];
        let report = prune(&net, &faults, &safety_out);
        let sim = FaultSimulator::new(&net);
        let exhaustive: Vec<Vec<bool>> = (0..64u32)
            .map(|p| (0..6).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let words = rescue_sim::parallel::pack_patterns(&exhaustive);
        let golden = sim.golden(&words);
        let driver = net.primary_outputs()[0].1;
        for f in report.pruned_coi.iter().chain(&report.pruned_constant) {
            let faulty = sim.with_stuck(&words, *f);
            prop_assert_eq!(
                golden[driver.index()], faulty[driver.index()],
                "pruned fault {} is not safe", f
            );
        }
    }

    /// Slicing equals naive campaigns and every slice contains all the
    /// primary outputs' drivers.
    #[test]
    fn slicing_equivalence(seed in 1u64..60) {
        let net = generate::random_logic(6, 40, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let pats = patterns(6, 32, seed);
        let sliced = sliced_campaign(&net, &faults, &pats);
        let naive = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &pats);
        prop_assert_eq!(sliced.report.first_detection(), naive.first_detection());
        for p in &pats {
            let slice = dynamic_slice(&net, p);
            for (_, out) in net.primary_outputs() {
                prop_assert!(slice.contains(out));
            }
        }
    }
}
