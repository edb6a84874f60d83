//! Fault effects stop at flip-flop `D`-pins: on sequential designs the
//! packed campaigns and [`detect_observed`] equal the full-resimulation
//! oracle.
//!
//! Within one pattern word a DFF output holds its (all-zero) state, so a
//! fault effect that reaches a `D`-pin must not propagate past it. The
//! combinational equivalence suites never contain a flip-flop; these
//! tests run an LFSR, a counter, a shift register and a small FSM
//! through the walking and tracing engines at lane widths 1 and 4, with
//! and without collapsing, on 1 and 2 workers, and observe the `D`-pin
//! drivers and the flip-flops themselves through [`detect_observed`].

use rescue_campaign::Campaign;
use rescue_faults::collapse::collapse;
use rescue_faults::engine::{detect_observed, FaultScratch, ObserverGroups};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::{generate, Netlist};
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

fn designs() -> [Netlist; 4] {
    [
        generate::lfsr(5, &[4, 2]),
        generate::counter(4),
        generate::shift_register(4),
        generate::control_fsm(),
    ]
}

#[test]
fn packed_campaigns_match_reference_on_sequential_designs() {
    for net in designs() {
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(net.primary_inputs().len(), 150, 7);
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        let collapsed = collapse(&net, &faults);
        let sim = FaultSimulator::new(&net);
        for tracing in [false, true] {
            for lane_width in [1usize, 4] {
                for collapse_on in [false, true] {
                    for workers in [1usize, 2] {
                        let mut opts = PackedOptions::wide(lane_width);
                        if tracing {
                            opts = opts.traced();
                        }
                        if collapse_on {
                            opts = opts.with_collapsed(&collapsed);
                        }
                        let run = sim.campaign_packed(
                            &faults,
                            &patterns,
                            &Campaign::new(0, workers),
                            opts,
                        );
                        assert_eq!(
                            run.report.first_detection(),
                            oracle.first_detection(),
                            "{}: tracing = {tracing}, W = {lane_width}, \
                             collapse = {collapse_on}, workers = {workers}",
                            net.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn detect_observed_matches_reference_on_sequential_designs() {
    for net in designs() {
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(net.primary_inputs().len(), 100, 11);
        let sim = FaultSimulator::new(&net);
        let c = sim.compiled();
        let oracle = ReferenceFaultSimulator::new(&net);
        let outputs = c.po_drivers().to_vec();
        let state: Vec<u32> = c.dff_d().iter().chain(c.dffs()).copied().collect();
        let observers = ObserverGroups::new(c.len(), &outputs, &state);
        let mut scratch = FaultScratch::new(c.len());
        for chunk in patterns.chunks(64) {
            let words = pack_patterns(chunk);
            let golden = sim.golden(&words);
            let live = live_mask(chunk.len());
            scratch.load_golden(&golden);
            for &fault in &faults {
                let (at_outputs, at_state) =
                    detect_observed(c, &golden, &mut scratch, fault, &observers);
                let faulty = oracle.with_stuck(&net, &words, fault);
                let diff = |gates: &[u32]| {
                    gates
                        .iter()
                        .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]))
                };
                assert_eq!(
                    (at_outputs & live, at_state & live),
                    (diff(&outputs) & live, diff(&state) & live),
                    "{}: {fault}",
                    net.name()
                );
            }
        }
    }
}
