//! The simulation driver shared by all SSA variants.

use crn::{Crn, State};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::SimulationError;
use crate::profile::SimProfile;
use crate::stop::StopCondition;
use crate::trajectory::{Recorder, RecordingMode, Trajectory};

/// The outcome of asking a stepper for the next reaction event (or leap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A single reaction fired; its index within the network is reported.
    Fired {
        /// Index of the reaction that fired.
        reaction: usize,
    },
    /// An approximate stepper advanced time by one leap, firing a batch of
    /// reactions at once.
    Leaped {
        /// Total number of reaction firings applied during the leap (may be
        /// zero when every Poisson draw came up empty).
        firings: u64,
    },
    /// No reaction can fire (total propensity is zero).
    Exhausted,
}

/// A single-step kernel of an SSA variant (exact or approximate).
///
/// Implementations own whatever per-run caches they need (propensity
/// vectors, putative-time queues, …); [`SsaStepper::initialize`] is called
/// once per trajectory before the first [`SsaStepper::step`].
///
/// The exact implementations are [`DirectMethod`](crate::DirectMethod),
/// [`NextReactionMethod`](crate::NextReactionMethod) and
/// [`CompositionRejection`](crate::CompositionRejection); they are statistically
/// equivalent. [`TauLeaping`](crate::TauLeaping) is approximate: it trades
/// exactness for leaps that fire many reactions per step, and reports
/// [`StepOutcome::Leaped`] instead of [`StepOutcome::Fired`].
pub trait SsaStepper {
    /// Prepares internal caches for a fresh trajectory of `crn` starting in
    /// `state`.
    fn initialize(&mut self, crn: &Crn, state: &State, rng: &mut StdRng);

    /// Selects the next reaction (or leap), applies it to `state`, advances
    /// `time` and reports what happened.
    fn step(
        &mut self,
        crn: &Crn,
        state: &mut State,
        time: &mut f64,
        rng: &mut StdRng,
    ) -> StepOutcome;

    /// Hints that the driver will stop the trajectory once `time` reaches
    /// `t_stop`. Exact steppers ignore this (their per-event dynamics do not
    /// depend on the horizon), but leaping steppers clamp their step size so
    /// the trajectory lands exactly on the stop time instead of overshooting
    /// it — which is what keeps terminal-state distributions comparable with
    /// the exact methods. Called after [`SsaStepper::initialize`], only when
    /// the stop condition implies a time bound.
    fn set_time_limit(&mut self, _t_stop: f64) {}

    /// Work counters accumulated since the last [`SsaStepper::initialize`]
    /// (propensity evaluations, leap and RK45 accept/reject decisions).
    /// Purely observational — implementations must not let the counters
    /// influence stepping. The default reports zeros for uninstrumented
    /// steppers; driver-level `steps` are counted by the trial runner, not
    /// here.
    fn profile(&self) -> SimProfile {
        SimProfile::default()
    }

    /// A short human-readable name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// Boxed steppers forward the trait, so a runtime-selected
/// [`StepperKind::stepper`] can drive a [`Simulation`] directly.
impl SsaStepper for Box<dyn SsaStepper + Send> {
    fn initialize(&mut self, crn: &Crn, state: &State, rng: &mut StdRng) {
        self.as_mut().initialize(crn, state, rng);
    }

    fn step(
        &mut self,
        crn: &Crn,
        state: &mut State,
        time: &mut f64,
        rng: &mut StdRng,
    ) -> StepOutcome {
        self.as_mut().step(crn, state, time, rng)
    }

    fn set_time_limit(&mut self, t_stop: f64) {
        self.as_mut().set_time_limit(t_stop);
    }

    fn profile(&self) -> SimProfile {
        self.as_ref().profile()
    }

    fn name(&self) -> &'static str {
        self.as_ref().name()
    }
}

/// Identifies one of the built-in steppers; useful when the algorithm is
/// chosen at run time (CLI flags, benchmark sweeps, ensemble options).
///
/// The exact variants are statistically equivalent;
/// [`StepperKind::TauLeaping`] is approximate — distributionally faithful
/// within its error-control tolerance (pinned by the conformance harness in
/// `tests/statistical_validation.rs`) but not trajectory-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum StepperKind {
    /// Gillespie's direct method.
    #[default]
    Direct,
    /// Gibson–Bruck next-reaction method.
    NextReaction,
    /// Composition–rejection method: log₂-binned groups with rejection
    /// sampling, `O(1)` expected selection independent of network size
    /// (exact; best for large networks).
    CompositionRejection,
    /// Explicit Poisson tau-leaping with Cao–Gillespie adaptive step
    /// selection (approximate, fast for high-population networks).
    TauLeaping,
    /// Hybrid multiscale stepper: high-propensity channels with population
    /// headroom are tau-leaped or integrated as a deterministic RK45 mean
    /// field, while the slow remainder fires exactly from its integrated
    /// hazard (approximate, built for stiff fast/slow networks).
    Hybrid,
    /// Adaptive portfolio: classify the network (size, propensity spread,
    /// leap occupancy from a short deterministic pilot run) and delegate to
    /// the empirically best concrete stepper. Resolve with
    /// [`StepperKind::resolve`] (or [`classify`](crate::classify) for the
    /// full feature report) before instantiating a stepper; the ensemble
    /// runner and the service do this automatically and record the resolved
    /// concrete kind in their reports.
    Auto,
}

/// Backwards-compatible name for [`StepperKind`], predating the addition of
/// approximate steppers.
pub type SsaMethod = StepperKind;

impl StepperKind {
    /// All built-in *concrete* methods (exact and approximate), convenient
    /// for sweeps. [`StepperKind::Auto`] is deliberately absent: it always
    /// resolves to one of these.
    pub const ALL: [StepperKind; 5] = [
        StepperKind::Direct,
        StepperKind::NextReaction,
        StepperKind::CompositionRejection,
        StepperKind::TauLeaping,
        StepperKind::Hybrid,
    ];

    /// The exact methods only — use this for assertions that rely on exact
    /// per-event statistics.
    pub const EXACT: [StepperKind; 3] = [
        StepperKind::Direct,
        StepperKind::NextReaction,
        StepperKind::CompositionRejection,
    ];

    /// Instantiates a fresh stepper for this method.
    ///
    /// # Panics
    ///
    /// Panics on [`StepperKind::Auto`]: the portfolio is a *selection
    /// policy*, not a stepper, and must be resolved against a concrete
    /// network and initial state first via [`StepperKind::resolve`].
    pub fn stepper(self) -> Box<dyn SsaStepper + Send> {
        match self {
            StepperKind::Direct => Box::new(crate::DirectMethod::new()),
            StepperKind::NextReaction => Box::new(crate::NextReactionMethod::new()),
            StepperKind::CompositionRejection => Box::new(crate::CompositionRejection::new()),
            StepperKind::TauLeaping => Box::new(crate::TauLeaping::new()),
            StepperKind::Hybrid => Box::new(crate::Hybrid::new()),
            StepperKind::Auto => {
                panic!(
                    "StepperKind::Auto must be resolved against a network first: \
                        call `kind.resolve(&crn, &initial)` and instantiate the result"
                )
            }
        }
    }

    /// Resolves this kind to a concrete stepper kind for the given network
    /// and initial state. Concrete kinds return themselves unchanged;
    /// [`StepperKind::Auto`] runs the [`classify`](crate::classify)
    /// portfolio classifier, whose verdict is a deterministic pure function
    /// of `(crn, initial)` — the pilot run uses a fixed internal seed, so
    /// the same request always resolves to the same kind on every thread,
    /// process and machine.
    pub fn resolve(self, crn: &Crn, initial: &State) -> StepperKind {
        match self {
            StepperKind::Auto => crate::auto::classify(crn, initial).resolved,
            concrete => concrete,
        }
    }

    /// A short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StepperKind::Direct => "direct",
            StepperKind::NextReaction => "next-reaction",
            StepperKind::CompositionRejection => "composition-rejection",
            StepperKind::TauLeaping => "tau-leaping",
            StepperKind::Hybrid => "hybrid",
            StepperKind::Auto => "auto",
        }
    }

    /// Returns `true` for the exact SSA variants, `false` for approximate
    /// ones. [`StepperKind::Auto`] reports `false`: it may resolve to
    /// tau-leaping, so exactness cannot be promised before resolution.
    pub fn is_exact(self) -> bool {
        !matches!(
            self,
            StepperKind::TauLeaping | StepperKind::Hybrid | StepperKind::Auto
        )
    }
}

/// Selects an index by inverting the discrete CDF over `weights` (total mass
/// `total`), consuming exactly one uniform draw. Floating-point round-off can
/// land past the last positive weight; the scan walks back to a positive one.
///
/// Shared by [`DirectMethod`](crate::DirectMethod) and tau-leaping's exact
/// fallback steps so both consume the RNG stream identically.
pub(crate) fn select_by_weight(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    use rand::Rng as _;
    let target: f64 = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    let mut chosen = weights.len() - 1;
    for (idx, &w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            chosen = idx;
            break;
        }
    }
    while weights[chosen] <= 0.0 && chosen > 0 {
        chosen -= 1;
    }
    chosen
}

/// Options controlling a single stochastic trajectory.
///
/// The builder-style setters return `self`, so options are typically
/// constructed inline:
///
/// ```
/// use gillespie::{RecordingMode, SimulationOptions, StopCondition};
///
/// let options = SimulationOptions::new()
///     .seed(42)
///     .stop(StopCondition::time(100.0))
///     .recording(RecordingMode::Interval(1.0))
///     .max_events(1_000_000);
/// assert_eq!(options.seed_value(), Some(42));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationOptions {
    seed: Option<u64>,
    stop: StopCondition,
    recording: RecordingMode,
    max_events: u64,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            seed: None,
            stop: StopCondition::Exhaustion,
            recording: RecordingMode::FinalOnly,
            max_events: u64::MAX,
        }
    }
}

impl SimulationOptions {
    /// Creates default options: run to exhaustion, record only the final
    /// state, seed from system entropy, no event limit.
    pub fn new() -> Self {
        SimulationOptions::default()
    }

    /// Uses a fixed RNG seed, making the trajectory reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the stop condition.
    pub fn stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the trajectory recording mode.
    pub fn recording(mut self, recording: RecordingMode) -> Self {
        self.recording = recording;
        self
    }

    /// Sets a hard limit on the number of reaction events; exceeding it is
    /// reported as [`SimulationError::EventLimitExceeded`]. This is a safety
    /// net against networks that never satisfy their stop condition.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Returns the configured seed, if any.
    pub fn seed_value(&self) -> Option<u64> {
        self.seed
    }

    /// Returns the configured stop condition.
    pub fn stop_condition(&self) -> &StopCondition {
        &self.stop
    }

    pub(crate) fn make_rng(&self) -> StdRng {
        match self.seed {
            Some(seed) => StdRng::seed_from_u64(seed),
            None => StdRng::from_entropy(),
        }
    }
}

/// Why a trajectory terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The configured [`StopCondition`] was satisfied.
    ConditionMet,
    /// No reaction could fire any more.
    Exhausted,
}

/// The result of a single stochastic trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// The state at the end of the trajectory.
    pub final_state: State,
    /// The simulated time at the end of the trajectory.
    pub final_time: f64,
    /// The number of reaction events that fired.
    pub events: u64,
    /// Why the trajectory stopped.
    pub stop_reason: StopReason,
    /// Recorded snapshots (depends on [`RecordingMode`]).
    pub trajectory: Trajectory,
}

/// A single-trajectory simulation of a network with a chosen SSA kernel.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct Simulation<'a, S> {
    crn: &'a Crn,
    stepper: S,
    options: SimulationOptions,
}

impl<'a, S: SsaStepper> Simulation<'a, S> {
    /// Creates a simulation of `crn` using the given stepper.
    pub fn new(crn: &'a Crn, stepper: S) -> Self {
        Simulation {
            crn,
            stepper,
            options: SimulationOptions::default(),
        }
    }

    /// Replaces the simulation options.
    pub fn options(mut self, options: SimulationOptions) -> Self {
        self.options = options;
        self
    }

    /// Returns the network being simulated.
    pub fn crn(&self) -> &Crn {
        self.crn
    }

    /// Runs one trajectory from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::StateSizeMismatch`] if the state does not
    /// match the network and [`SimulationError::EventLimitExceeded`] if the
    /// configured hard event limit is hit.
    pub fn run(&mut self, initial: &State) -> Result<SimulationResult, SimulationError> {
        run_with(self.crn, &mut self.stepper, &self.options, initial)
    }

    /// Runs one trajectory from `initial`, accumulating work counters into
    /// `profile`. The result is bit-identical to [`Simulation::run`] —
    /// profiling observes the run without touching the RNG or the dynamics.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Simulation::run`].
    pub fn run_profiled(
        &mut self,
        initial: &State,
        profile: &mut SimProfile,
    ) -> Result<SimulationResult, SimulationError> {
        if initial.species_len() != self.crn.species_len() {
            return Err(SimulationError::StateSizeMismatch {
                network: self.crn.species_len(),
                state: initial.species_len(),
            });
        }
        let mut rng = self.options.make_rng();
        run_trial_profiled(
            self.crn,
            &mut self.stepper,
            &self.options,
            initial.clone(),
            &mut rng,
            profile,
        )
    }
}

/// Runs one trajectory with an explicit stepper; this is the function both
/// [`Simulation::run`] and the ensemble runner share.
pub(crate) fn run_with(
    crn: &Crn,
    stepper: &mut dyn SsaStepper,
    options: &SimulationOptions,
    initial: &State,
) -> Result<SimulationResult, SimulationError> {
    if initial.species_len() != crn.species_len() {
        return Err(SimulationError::StateSizeMismatch {
            network: crn.species_len(),
            state: initial.species_len(),
        });
    }
    let mut rng = options.make_rng();
    run_trial(crn, stepper, options, initial.clone(), &mut rng)
}

/// Runs one trajectory on an owned, already-primed state with an explicit
/// RNG. The state's allocation travels into the returned
/// [`SimulationResult::final_state`], which is how the ensemble engine
/// recycles one state buffer across thousands of trials (it takes the buffer
/// back out of the result and re-primes it with `clone_from`). The caller is
/// responsible for size-checking `state` against `crn`.
pub(crate) fn run_trial(
    crn: &Crn,
    stepper: &mut dyn SsaStepper,
    options: &SimulationOptions,
    state: State,
    rng: &mut StdRng,
) -> Result<SimulationResult, SimulationError> {
    let mut profile = SimProfile::default();
    run_trial_profiled(crn, stepper, options, state, rng, &mut profile)
}

/// [`run_trial`] with work counters folded into `profile`: driver steps are
/// counted here, the stepper's own counters (propensity evaluations, leap
/// and RK45 accept/reject) are collected once after the trajectory ends.
/// Profiling is pure observation — the control flow, RNG consumption and
/// result are identical to the unprofiled path.
pub(crate) fn run_trial_profiled(
    crn: &Crn,
    stepper: &mut dyn SsaStepper,
    options: &SimulationOptions,
    state: State,
    rng: &mut StdRng,
    profile: &mut SimProfile,
) -> Result<SimulationResult, SimulationError> {
    debug_assert_eq!(state.species_len(), crn.species_len());
    let mut state = state;
    let mut time = 0.0f64;
    let mut events = 0u64;
    let mut recorder = Recorder::new(options.recording);
    recorder.record_initial(&state);
    stepper.initialize(crn, &state, rng);
    if let Some(t_stop) = options.stop.time_bound() {
        stepper.set_time_limit(t_stop);
    }

    let stop_reason = loop {
        if options.stop.is_met(time, events, &state) {
            break StopReason::ConditionMet;
        }
        if events >= options.max_events {
            return Err(SimulationError::EventLimitExceeded {
                limit: options.max_events,
            });
        }
        match stepper.step(crn, &mut state, &mut time, rng) {
            StepOutcome::Fired { .. } => {
                profile.steps += 1;
                events += 1;
                recorder.record(time, &state);
            }
            StepOutcome::Leaped { firings } => {
                profile.steps += 1;
                events += firings;
                recorder.record(time, &state);
            }
            StepOutcome::Exhausted => break StopReason::Exhausted,
        }
    };
    profile.merge(&stepper.profile());

    Ok(SimulationResult {
        final_state: state,
        final_time: time,
        events,
        stop_reason,
        trajectory: recorder.trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectMethod;

    fn isomerisation() -> Crn {
        "a -> b @ 1".parse().unwrap()
    }

    #[test]
    fn runs_to_exhaustion() {
        let crn = isomerisation();
        let initial = crn.state_from_counts([("a", 50)]).unwrap();
        let result = Simulation::new(&crn, DirectMethod::new())
            .options(SimulationOptions::new().seed(1))
            .run(&initial)
            .unwrap();
        assert_eq!(result.events, 50);
        assert_eq!(result.stop_reason, StopReason::Exhausted);
        assert_eq!(result.final_state.count(crn.species_id("b").unwrap()), 50);
        assert!(result.final_time > 0.0);
    }

    #[test]
    fn stops_on_event_count() {
        let crn = isomerisation();
        let initial = crn.state_from_counts([("a", 50)]).unwrap();
        let result = Simulation::new(&crn, DirectMethod::new())
            .options(
                SimulationOptions::new()
                    .seed(1)
                    .stop(StopCondition::events(10)),
            )
            .run(&initial)
            .unwrap();
        assert_eq!(result.events, 10);
        assert_eq!(result.stop_reason, StopReason::ConditionMet);
    }

    #[test]
    fn enforces_event_limit() {
        // A source reaction never exhausts.
        let crn: Crn = "0 -> a @ 1".parse().unwrap();
        let initial = crn.zero_state();
        let err = Simulation::new(&crn, DirectMethod::new())
            .options(SimulationOptions::new().seed(1).max_events(100))
            .run(&initial)
            .unwrap_err();
        assert!(matches!(
            err,
            SimulationError::EventLimitExceeded { limit: 100 }
        ));
    }

    #[test]
    fn rejects_mismatched_state() {
        let crn = isomerisation();
        let err = Simulation::new(&crn, DirectMethod::new())
            .run(&State::zero(5))
            .unwrap_err();
        assert!(matches!(err, SimulationError::StateSizeMismatch { .. }));
    }

    #[test]
    fn fixed_seed_reproduces_trajectory() {
        let crn: Crn = "a -> b @ 1\nb -> a @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 100)]).unwrap();
        let opts = SimulationOptions::new()
            .seed(99)
            .stop(StopCondition::events(1000));
        let r1 = Simulation::new(&crn, DirectMethod::new())
            .options(opts.clone())
            .run(&initial)
            .unwrap();
        let r2 = Simulation::new(&crn, DirectMethod::new())
            .options(opts)
            .run(&initial)
            .unwrap();
        assert_eq!(r1.final_state, r2.final_state);
        assert_eq!(r1.final_time, r2.final_time);
    }

    #[test]
    fn recording_every_event_captures_all_states() {
        let crn = isomerisation();
        let initial = crn.state_from_counts([("a", 10)]).unwrap();
        let result = Simulation::new(&crn, DirectMethod::new())
            .options(
                SimulationOptions::new()
                    .seed(3)
                    .recording(RecordingMode::EveryEvent),
            )
            .run(&initial)
            .unwrap();
        // initial snapshot + one per event
        assert_eq!(result.trajectory.len() as u64, result.events + 1);
    }

    #[test]
    fn profiled_run_is_bit_identical_and_counts_work() {
        let crn: Crn = "a -> b @ 1\nb -> a @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("a", 100)]).unwrap();
        let opts = SimulationOptions::new()
            .seed(7)
            .stop(StopCondition::events(500));
        let plain = Simulation::new(&crn, DirectMethod::new())
            .options(opts.clone())
            .run(&initial)
            .unwrap();
        let mut profile = SimProfile::default();
        let profiled = Simulation::new(&crn, DirectMethod::new())
            .options(opts)
            .run_profiled(&initial, &mut profile)
            .unwrap();
        assert_eq!(profiled, plain, "profiling must not perturb the run");
        assert_eq!(profile.steps, 500);
        assert!(
            // Priming evaluates both channels; each event refreshes its
            // dependents.
            profile.propensity_evals > 500,
            "direct method re-evaluates dependents per event: {profile:?}"
        );
        assert_eq!(profile.rk45_accepted, 0);
    }

    #[test]
    fn profiled_tau_leaping_counts_leaps() {
        let crn: Crn = "a -> b @ 1\nb -> a @ 1".parse().unwrap();
        let initial = crn
            .state_from_counts([("a", 10_000), ("b", 10_000)])
            .unwrap();
        let mut profile = SimProfile::default();
        let result = Simulation::new(&crn, crate::TauLeaping::new())
            .options(
                SimulationOptions::new()
                    .seed(5)
                    .stop(StopCondition::time(1.0)),
            )
            .run_profiled(&initial, &mut profile)
            .unwrap();
        assert!(result.events > 1_000);
        assert!(
            profile.leaps_accepted > 0,
            "high-population run must commit leaps: {profile:?}"
        );
        assert!(profile.steps >= profile.leaps_accepted);
    }

    #[test]
    fn ssa_method_enum_creates_steppers() {
        for method in SsaMethod::ALL {
            let stepper = method.stepper();
            assert_eq!(stepper.name(), method.name());
        }
        assert_eq!(SsaMethod::default(), SsaMethod::Direct);
    }
}
