//! Property tests pinning the two execution-path equivalences of the
//! million-gate campaign engine:
//!
//! * the level-blocked **sweep kernels** evaluate byte-for-byte
//!   identically to the gate-order kernels for every supported lane
//!   width (`W ∈ {1, 2, 4, 8}`), including ragged final chunks and the
//!   pin-forced single-gate kernels the cone walks and CPT chain ascent
//!   dispatch through;
//! * **chunk-major execution** (one work-stealing pass per golden chunk
//!   over the faults still undetected) reports exactly the 1-worker
//!   first detections — and the scalar oracle's — for every schedule,
//!   worker count, chunk count and engine family.

use proptest::prelude::*;
use rescue_campaign::{Campaign, Schedule};
use rescue_faults::collapse::collapse;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::{generate, renumber, Netlist};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::{pack_patterns_wide, PackedWord, SimWord};

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

/// Asserts sweep eval == gate-order eval over every chunk of `patterns`
/// (full value arena, byte for byte), plus the pin-forced per-gate
/// kernel on every multi-pin gate of the first chunk.
fn assert_sweep_matches<Wd: SimWord>(c: &mut CompiledNetlist, patterns: &[Vec<bool>]) {
    for (ci, chunk) in patterns.chunks(Wd::LANES).enumerate() {
        let words = pack_patterns_wide::<Wd>(chunk);
        c.set_sweep(true);
        assert!(c.sweep_plan().is_some(), "levelized arena must sweep");
        let mut swept = Vec::new();
        c.eval_words_into(&words, None, &mut swept).unwrap();
        c.set_sweep(false);
        let mut gate_order = Vec::new();
        c.eval_words_into(&words, None, &mut gate_order).unwrap();
        assert_eq!(
            swept,
            gate_order,
            "chunk {ci} ({} patterns, {} lanes)",
            chunk.len(),
            Wd::LANES
        );
        if ci == 0 {
            // The pin-forced kernel the cone walks / CPT sensitization
            // use: force each pin of each gate to the inverse of its
            // driver and compare dispatch paths.
            for g in 0..c.len() {
                for pin in 0..c.pins_of(g).len() {
                    let driver = c.pins_of(g)[pin] as usize;
                    let forced = !gate_order[driver];
                    c.set_sweep(true);
                    let fast = c.eval_word_pin_forced(g, &gate_order, pin, forced);
                    c.set_sweep(false);
                    let slow = c.eval_word_pin_forced(g, &gate_order, pin, forced);
                    assert_eq!(fast, slow, "gate {g} pin {pin}");
                }
            }
        }
    }
    c.set_sweep(true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Levelized sweep eval ≡ gate-order eval byte-for-byte for
    /// W ∈ {1, 2, 4, 8}, including ragged tails.
    #[test]
    fn sweep_eval_matches_gate_order_all_widths(seed in 1u64..400, ragged in 1usize..63) {
        let net = generate::random_logic(8, 220, 4, seed);
        let (lev, _) = renumber::levelized(&net);
        let mut c = CompiledNetlist::new(&lev);
        // One full chunk plus a ragged tail at every width: 64·W + r
        // patterns exercise both the steady-state and tail kernels.
        let pats = |lanes: usize| random_patterns(8, lanes + ragged, seed);
        assert_sweep_matches::<u64>(&mut c, &pats(64));
        assert_sweep_matches::<PackedWord<2>>(&mut c, &pats(128));
        assert_sweep_matches::<PackedWord<4>>(&mut c, &pats(256));
        assert_sweep_matches::<PackedWord<8>>(&mut c, &pats(512));
    }

    /// (b) Chunk-major execution (one work-stealing pass per golden
    /// chunk over the still-undetected faults) reproduces the 1-worker
    /// report and the scalar oracle's first detections for 1–4 workers,
    /// both schedules, one chunk, two chunks and a ragged tail, fewer
    /// faults than workers, lane widths 1 and 4, and tracing and
    /// collapse on and off.
    #[test]
    fn chunk_major_matches_serial_and_oracle(
        seed in 1u64..300,
        chunking in 0usize..3,
        wide: bool,
        tracing: bool,
        collapsing: bool,
        few: bool,
    ) {
        let net: Netlist = generate::random_logic(6, 90, 3, seed);
        let universe = universe::stuck_at_universe(&net);
        // Three faults leave the four-worker runs with idle workers.
        let faults = if few { &universe[..3] } else { &universe[..] };
        let lane_width = if wide { 4 } else { 1 };
        let lanes = 64 * lane_width;
        let n_patterns = [lanes, 2 * lanes, 2 * lanes + 5][chunking];
        let patterns = random_patterns(6, n_patterns, seed);
        let sim = FaultSimulator::new(&net);
        let collapsed = collapse(&net, faults);
        let mut opts = PackedOptions::wide(lane_width);
        if tracing {
            opts = opts.traced();
        }
        if collapsing {
            opts = opts.with_collapsed(&collapsed);
        }
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, faults, &patterns);
        let serial = sim.campaign_packed(faults, &patterns, &Campaign::serial(), opts);
        prop_assert_eq!(serial.report.first_detection(), oracle.first_detection());
        for workers in 1usize..=4 {
            for schedule in [
                Schedule::Static,
                Schedule::Dynamic { chunk: 0 },
                Schedule::Dynamic { chunk: 3 },
            ] {
                let campaign = Campaign::new(7, workers).with_schedule(schedule);
                let run = sim.campaign_packed(faults, &patterns, &campaign, opts);
                prop_assert_eq!(
                    &run.report, &serial.report,
                    "workers={} schedule={:?}", workers, schedule
                );
                prop_assert_eq!(run.stats.dropped, serial.stats.dropped);
                prop_assert!(run.stats.worker_ns.len() <= workers);
            }
        }
    }
}
