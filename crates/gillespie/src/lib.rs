//! Exact stochastic simulation of chemical reaction networks.
//!
//! This crate implements the standard exact stochastic simulation algorithms
//! (SSA) over the [`crn`] data model:
//!
//! * [`DirectMethod`] — Gillespie's direct method (Gillespie 1977),
//! * [`NextReactionMethod`] — the Gibson–Bruck next-reaction method
//!   (Gibson & Bruck 2000) with a dependency graph and an indexed priority
//!   queue,
//! * [`CompositionRejection`] — the composition–rejection method (Slepoy,
//!   Thompson & Plimpton 2008): log₂-binned propensity groups with
//!   rejection sampling inside a group, `O(1)` expected channel selection
//!   independent of the reaction count.
//!
//! All three produce statistically identical trajectories; they differ only
//! in performance characteristics, which the `bench` crate's `ssa_methods`
//! benchmark quantifies.
//!
//! For high-population ensembles there is additionally [`TauLeaping`] —
//! explicit Poisson tau-leaping with Cao–Gillespie adaptive step selection.
//! It is *approximate*: orders of magnitude faster on dense populations,
//! with a controlled `O(ε)` distribution bias pinned against the exact SSA
//! by the chi-square/Kolmogorov–Smirnov conformance harness in
//! `tests/statistical_validation.rs`. [`StepperKind`] selects between all
//! five at run time, and [`StepperKind::Auto`] picks for you: the
//! [`classify`] portfolio classifier measures the network (size, propensity
//! spread, leap occupancy from a deterministic pilot run) and resolves to
//! the empirically best concrete stepper.
//!
//! On top of the single-trajectory simulators, the [`Ensemble`] runner
//! executes Monte-Carlo ensembles across threads and classifies trajectory
//! outcomes, which is how all of the paper's figures are produced.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gillespie::{DirectMethod, Simulation, SimulationOptions, StopCondition};
//!
//! let crn: crn::Crn = "a + b -> 2 c @ 0.01".parse()?;
//! let initial = crn.state_from_counts([("a", 100), ("b", 100)])?;
//! let options = SimulationOptions::new()
//!     .seed(7)
//!     .stop(StopCondition::exhaustion());
//! let result = Simulation::new(&crn, DirectMethod::new())
//!     .options(options)
//!     .run(&initial)?;
//! // Every a/b pair eventually reacts.
//! assert_eq!(result.final_state.count(crn.require_species("c")?), 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auto;
mod composition_rejection;
mod direct;
pub mod engine;
mod ensemble;
mod error;
mod export;
mod hybrid;
mod next_reaction;
mod outcome;
mod profile;
mod propensity;
mod simulator;
mod stats;
mod stop;
mod tau_leap;
mod trajectory;

pub use auto::{classify, ClassifierReport};
pub use composition_rejection::CompositionRejection;
pub use direct::DirectMethod;
pub use engine::ReactionDependencyGraph;
pub use ensemble::{
    Ensemble, EnsembleOptions, EnsemblePartial, EnsemblePartialParts, EnsembleReport,
    EnsembleTally, OutcomeCount,
};
pub use error::SimulationError;
pub use hybrid::{Hybrid, HybridDiagnostics};
pub use next_reaction::NextReactionMethod;
pub use outcome::{Outcome, OutcomeClassifier, SpeciesThresholdClassifier, ThresholdRule};
pub use profile::SimProfile;
pub use propensity::{propensities, propensity, total_propensity, PropensitySet};
pub use simulator::{
    Simulation, SimulationOptions, SimulationResult, SsaMethod, SsaStepper, StepOutcome,
    StepperKind,
};
pub use stats::{SpeciesStatistics, TrajectorySummary};
pub use stop::StopCondition;
pub use tau_leap::TauLeaping;
pub use trajectory::{RecordingMode, Trajectory, TrajectoryPoint};
