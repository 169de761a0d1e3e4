//! `stochsynth` — a reproduction of *"Synthesizing Stochasticity in
//! Biochemical Systems"* (Fett, Bruck & Riedel, DAC 2007), grown toward a
//! production-scale stochastic simulation and synthesis engine.
//!
//! This facade crate re-exports the workspace's public API so downstream
//! users depend on a single crate:
//!
//! * [`crn`] — the chemical reaction network data model (species, reactions,
//!   states, parsing, structural analysis);
//! * [`gillespie`] — stochastic simulation: the exact direct, next-reaction
//!   and composition–rejection methods, approximate tau-leaping
//!   ([`TauLeaping`](gillespie::TauLeaping)), the hybrid multiscale stepper
//!   ([`Hybrid`](gillespie::Hybrid)) and the parallel Monte-Carlo
//!   [`Ensemble`](gillespie::Ensemble) engine;
//! * [`synthesis`] — the paper's stochastic and deterministic function
//!   modules and their composition;
//! * [`lambda`] — the lambda-phage lysis/lysogeny switch case study;
//! * [`numerics`] — statistics, confidence intervals, histograms, the
//!   chi-square/Kolmogorov–Smirnov distribution-conformance harness and
//!   small linear algebra;
//! * [`cme`] — exact chemical-master-equation verification: reachable
//!   state-space enumeration, sparse generator matrices, uniformization
//!   ([`cme::transient`]) and first-passage outcome analysis
//!   ([`cme::FirstPassage`]) — the noise-free oracle behind the test
//!   suites;
//! * [`service`] — simulation as a service: a dependency-free HTTP/1.1
//!   JSON job server ([`service::serve`], the `stochsynthd` binary) with a
//!   bounded work-stealing scheduler, a deterministic byte-identical
//!   result cache and embeddable [`Server`]/[`Router`] building blocks.
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use stochsynth::{Crn, DirectMethod, Simulation, SimulationOptions, StopCondition};
//!
//! let crn: Crn = "a + b -> 2 c @ 0.01".parse()?;
//! let initial = crn.state_from_counts([("a", 100), ("b", 100)])?;
//! let result = Simulation::new(&crn, DirectMethod::new())
//!     .options(SimulationOptions::new().seed(7).stop(StopCondition::exhaustion()))
//!     .run(&initial)?;
//! assert_eq!(result.final_state.count(crn.require_species("c")?), 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cme;
pub use crn;
pub use gillespie;
pub use lambda;
pub use numerics;
pub use service;
pub use synthesis;

pub use cme::{CmeError, FirstPassage, OutcomeDistribution, PopulationBounds, StateSpace};
pub use crn::{Crn, CrnBuilder, CrnError, Reaction, Species, SpeciesId, State};
pub use gillespie::{
    CompositionRejection, DirectMethod, Ensemble, EnsembleOptions, EnsemblePartial, EnsembleReport,
    Hybrid, NextReactionMethod, Simulation, SimulationError, SimulationOptions, SimulationResult,
    SsaMethod, SsaStepper, StepperKind, StopCondition, TauLeaping,
};
pub use service::{Client, Router, Scheduler, Server, ServiceConfig, ServiceHandle};
pub use synthesis::{StochasticModule, TargetDistribution};
