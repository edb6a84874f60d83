//! Fault models and fault simulation for RESCUE-rs.
//!
//! Implements the permanent-fault side of the RESCUE toolflow:
//!
//! * [`model`] — stuck-at, transition-delay and bridging fault models over
//!   gate pins and outputs.
//! * [`universe`] — exhaustive fault-list generation.
//! * [`content`] — canonical byte-stable content hashing of campaigns
//!   (netlist, universe, options, patterns), the keys durable campaigns
//!   are cached under.
//! * [`collapse`] — structural equivalence collapsing.
//! * [`simulate`] — serial and 64-way parallel-pattern fault simulation
//!   with fault dropping, for both combinational and sequential designs.
//! * [`engine`] — the single-fault-propagation core: events propagated
//!   by logic level over the compiled arena, PO-reachability pruning,
//!   touched-list undo.
//! * [`trace`] — critical-path tracing: per-net observability words by
//!   backward sensitization over fanout-free regions, with the exact
//!   event-driven walk kept as the reconvergent-stem fallback.
//! * [`mod@reference`] — the full-resimulation oracle the fast engine is
//!   property-tested against.
//! * [`sample`] — statistical fault-injection sampling theory: how many
//!   faults must be injected for a given error margin and confidence
//!   (the "random fault injection" methodology of paper Section III.B).
//! * [`dictionary`] — fault dictionaries and syndrome-based diagnosis.
//!
//! # Examples
//!
//! Compute stuck-at coverage of random patterns on `c17`:
//!
//! ```
//! use rescue_faults::{simulate::FaultSimulator, universe};
//! use rescue_netlist::generate;
//!
//! let c = generate::c17();
//! let faults = universe::stuck_at_universe(&c);
//! let sim = FaultSimulator::new(&c);
//! let patterns: Vec<Vec<bool>> = (0..32u32)
//!     .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
//!     .collect();
//! let report = sim.campaign(&faults, &patterns);
//! assert!(report.coverage() > 0.9, "c17 is fully testable");
//! ```

pub mod collapse;
pub mod content;
pub mod dictionary;
pub mod engine;
pub mod error;
pub mod model;
pub mod reference;
pub mod sample;
pub mod simulate;
pub mod trace;
pub mod universe;

pub use error::FaultError;
pub use model::{Fault, FaultId, FaultKind, FaultSite};
pub use simulate::{CampaignReport, CampaignRun, FaultSimulator};
