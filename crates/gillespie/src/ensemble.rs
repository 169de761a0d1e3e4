//! Multi-trial Monte-Carlo ensembles.
//!
//! Every figure in the paper is a Monte-Carlo estimate: run many independent
//! trajectories of the same network, classify each one, and report the
//! empirical outcome distribution. [`Ensemble`] does exactly that on top of
//! the engine's [`run_chunked`](crate::engine::run_chunked) fan-out, keeping
//! results *bit-identical regardless of the thread count*:
//!
//! * trial `i` always seeds its RNG with `master_seed + i`;
//! * every worker owns a contiguous trial range and a private accumulator —
//!   no locks anywhere on the hot path;
//! * floating-point statistics accumulate in [`numerics::ExactSum`]
//!   superaccumulators, whose readout is a pure function of the *multiset*
//!   of accumulated values — so even `mean_final_time` is the same to the
//!   last bit for `threads = 1` and `threads = 64`, and for any sharding
//!   of the trial range across processes or machines.
//!
//! Each worker also recycles its stepper and state allocations across all of
//! its trials, so an `N`-trial ensemble performs `O(threads)` setup
//! allocations rather than `O(N)`.

use std::collections::BTreeMap;

use crn::{Crn, State};
use numerics::ExactSum;
use rand::rngs::StdRng;
use rand::SeedableRng as _;
use serde::{Deserialize, Serialize};

use crate::engine::{run_chunked_cancellable, CancelToken};
use crate::error::SimulationError;
use crate::outcome::{Outcome, OutcomeClassifier};
use crate::profile::SimProfile;
use crate::simulator::{run_trial_profiled, SimulationOptions, SimulationResult, StepperKind};

/// Options controlling an ensemble run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleOptions {
    /// Number of independent trajectories.
    pub trials: u64,
    /// Master seed; trial `i` uses `master_seed + i`.
    pub master_seed: u64,
    /// Number of worker threads (`0` means "one per available CPU").
    pub threads: usize,
    /// Which stepper to use (exact SSA variants, tau-leaping, or
    /// [`StepperKind::Auto`] to let the portfolio classifier pick — the
    /// resolved concrete kind is recorded in [`EnsembleReport::method`]).
    pub method: StepperKind,
    /// Per-trajectory options (stop condition, recording, event limit). The
    /// per-trajectory seed is overridden by the ensemble.
    pub simulation: SimulationOptions,
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        EnsembleOptions {
            trials: 1_000,
            master_seed: 0,
            threads: 0,
            method: StepperKind::Direct,
            simulation: SimulationOptions::default(),
        }
    }
}

impl EnsembleOptions {
    /// Creates default options (1000 trials, direct method, auto threads).
    pub fn new() -> Self {
        EnsembleOptions::default()
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the master seed.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the number of worker threads (0 = one per CPU).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the stepper (exact SSA variant or tau-leaping).
    pub fn method(mut self, method: StepperKind) -> Self {
        self.method = method;
        self
    }

    /// Sets the per-trajectory simulation options.
    pub fn simulation(mut self, simulation: SimulationOptions) -> Self {
        self.simulation = simulation;
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The number of trajectories assigned to one outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCount {
    /// The outcome label.
    pub outcome: Outcome,
    /// How many trajectories ended in this outcome.
    pub count: u64,
}

/// Aggregated results of an ensemble run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleReport {
    /// Total number of trajectories run.
    pub trials: u64,
    /// The master seed the ensemble was run with (trial `i` used
    /// `master_seed + i`). Carried in the report so serialised results are
    /// self-describing: a cached response and a fresh re-run of the same
    /// request are distinguishable only by transport metadata, never by the
    /// report body.
    pub master_seed: u64,
    /// The *concrete* stepper kind the trials ran with. When the ensemble
    /// was configured with [`StepperKind::Auto`] this is the kind the
    /// portfolio classifier resolved to — never `Auto` itself — so a report
    /// produced by `Auto` is indistinguishable from one that requested the
    /// resolved kind explicitly (they are bit-identical, which the
    /// determinism suite pins).
    pub method: StepperKind,
    /// Outcome counts, sorted by outcome label.
    pub counts: Vec<OutcomeCount>,
    /// Number of trajectories the classifier could not assign.
    pub undecided: u64,
    /// Mean number of reaction events per trajectory.
    pub mean_events: f64,
    /// Unbiased sample variance of the per-trajectory event count (0 below
    /// two trials). Computed from exact integer sums, so it is — like every
    /// field of the report — bit-identical across thread counts and
    /// shardings.
    pub events_variance: f64,
    /// Mean simulated end time per trajectory.
    pub mean_final_time: f64,
    /// Unbiased sample variance of the simulated end time (0 below two
    /// trials), computed from exact sums of `t` and `fl(t·t)`.
    pub final_time_variance: f64,
}

impl EnsembleReport {
    /// Returns the number of trajectories that ended in `outcome`.
    pub fn count(&self, outcome: &str) -> u64 {
        self.counts
            .iter()
            .find(|c| c.outcome.as_str() == outcome)
            .map(|c| c.count)
            .unwrap_or(0)
    }

    /// Returns the empirical probability of `outcome`.
    pub fn probability(&self, outcome: &str) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.count(outcome) as f64 / self.trials as f64
    }

    /// Returns the empirical probability of `outcome` among *decided*
    /// trajectories only.
    pub fn conditional_probability(&self, outcome: &str) -> f64 {
        let decided = self.trials - self.undecided;
        if decided == 0 {
            return 0.0;
        }
        self.count(outcome) as f64 / decided as f64
    }

    /// Returns the fraction of undecided trajectories.
    pub fn undecided_fraction(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.undecided as f64 / self.trials as f64
    }
}

/// The exact accumulators of a set of finished ensemble trials.
///
/// This is the one place a trial is folded in, a set is merged and the
/// statistics are read out: every [`EnsemblePartial`] carries one, the
/// merged [`EnsembleReport`] is read out of one, and the service's fabric
/// streams a running one over the shards of in-flight jobs. Floating-point
/// sums accumulate in [`numerics::ExactSum`] superaccumulators whose
/// readout is a pure function of the *multiset* of accumulated values, so
/// the readout is bit-identical for any split of the trials and any merge
/// order. Memory is `O(outcomes)` however many trials are folded in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnsembleTally {
    /// Trials folded in.
    trials: u64,
    counts: BTreeMap<Outcome, u64>,
    undecided: u64,
    total_events: u64,
    /// Exact Σ events² (u128: 2⁶⁴ trials of 2³² events each stay in
    /// range), feeding the report's event variance.
    events_squared: u128,
    /// Exact Σ final_time.
    time_sum: ExactSum,
    /// Exact Σ fl(final_time²), feeding the report's time variance.
    time_squared_sum: ExactSum,
}

impl EnsembleTally {
    /// Folds one finished trial and its classification in.
    fn push(&mut self, result: &SimulationResult, outcome: Option<Outcome>) {
        self.trials += 1;
        self.total_events += result.events;
        self.events_squared += u128::from(result.events) * u128::from(result.events);
        self.time_sum.add(result.final_time);
        // Clamp the square at f64::MAX: the superaccumulator rejects
        // infinities, and the clamp is the same pure function of the trial
        // everywhere, so determinism is unaffected.
        self.time_squared_sum
            .add((result.final_time * result.final_time).min(f64::MAX));
        match outcome {
            Some(outcome) => *self.counts.entry(outcome).or_insert(0) += 1,
            None => self.undecided += 1,
        }
    }

    /// Adds another tally's trials, exactly: the readout afterwards equals
    /// that of one tally every trial of both was folded into.
    pub fn merge(&mut self, other: &EnsembleTally) {
        self.trials += other.trials;
        for (outcome, count) in &other.counts {
            *self.counts.entry(outcome.clone()).or_insert(0) += count;
        }
        self.undecided += other.undecided;
        self.total_events += other.total_events;
        self.events_squared += other.events_squared;
        self.time_sum.merge(&other.time_sum);
        self.time_squared_sum.merge(&other.time_squared_sum);
    }

    /// Number of trials folded in.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The mean and unbiased sample variance of the final times (both 0
    /// for an empty tally) — exactly the report's `mean_final_time` and
    /// `final_time_variance` for the same trials.
    pub fn final_time_stats(&mut self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 0.0);
        }
        let total = self.time_sum.value();
        let mean = total / self.trials as f64;
        let variance = sample_variance(self.trials, self.time_squared_sum.value(), total, mean);
        (mean, variance)
    }

    /// Reads the tally out as the report of a whole ensemble; `outcomes`
    /// are listed with a zero count when no trial reached them.
    fn into_report(
        mut self,
        master_seed: u64,
        method: StepperKind,
        outcomes: impl IntoIterator<Item = Outcome>,
    ) -> EnsembleReport {
        for outcome in outcomes {
            self.counts.entry(outcome).or_insert(0);
        }
        let (mean_final_time, final_time_variance) = self.final_time_stats();
        let mean_events = self.total_events as f64 / self.trials as f64;
        EnsembleReport {
            trials: self.trials,
            master_seed,
            method,
            counts: self
                .counts
                .into_iter()
                .map(|(outcome, count)| OutcomeCount { outcome, count })
                .collect(),
            undecided: self.undecided,
            mean_events,
            events_variance: sample_variance(
                self.trials,
                self.events_squared as f64,
                self.total_events as f64,
                mean_events,
            ),
            mean_final_time,
            final_time_variance,
        }
    }
}

/// The accumulated results of one contiguous block of ensemble trials.
///
/// Produced by [`Ensemble::run_range`] and merged back into an
/// [`EnsembleReport`] by [`Ensemble::merge`]. Splitting an ensemble into
/// ranges, running them on arbitrary threads (in any order, on any
/// machine) and merging the partials reproduces the single-threaded report
/// **bit for bit**, because trial `i` always seeds its RNG with
/// `master_seed + i` and the statistics accumulate in an exact
/// [`EnsembleTally`] whose readout is independent of summation order — and
/// therefore of the partitioning. This is the fan-out surface the `service`
/// crate's work-stealing job scheduler and its distributed fabric are built
/// on.
///
/// A partial is `O(outcomes)` memory regardless of how many trials it
/// covers: per-trial data is folded into the tally as each trial finishes,
/// never stored. That is what bounds coordinator and worker memory on
/// million-trial jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsemblePartial {
    /// First trial index of the assigned range (inclusive).
    start: u64,
    /// One past the last trial index of the assigned range.
    end: u64,
    /// The completed trials (all of `end - start` unless the run was
    /// cancelled part-way).
    tally: EnsembleTally,
}

/// The flattened wire form of an [`EnsemblePartial`], for transports that
/// serialise partials between processes (the `service` crate's distributed
/// fabric). Outcomes travel as label strings and the exact sums as their
/// canonical hex encodings, so [`EnsemblePartial::from_parts`]
/// reconstructs a partial that merges bit-identically to the original.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsemblePartialParts {
    /// First trial index (inclusive).
    pub start: u64,
    /// One past the last trial index.
    pub end: u64,
    /// Trials actually completed.
    pub done: u64,
    /// `(outcome label, count)` pairs, sorted by label.
    pub counts: Vec<(String, u64)>,
    /// Undecided trajectories.
    pub undecided: u64,
    /// Σ events over the range.
    pub total_events: u64,
    /// Σ events², rendered as a decimal string (u128 exceeds u64 JSON).
    pub events_squared: String,
    /// Canonical hex encoding of the exact Σ final_time.
    pub time_sum: String,
    /// Canonical hex encoding of the exact Σ fl(final_time²).
    pub time_squared_sum: String,
}

impl EnsemblePartial {
    /// Returns the assigned trial range `(start, end)`.
    pub fn range(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// Returns the number of trials actually completed.
    pub fn completed(&self) -> u64 {
        self.tally.trials
    }

    /// Returns `true` when every trial of the assigned range was run (a
    /// cancelled range stops early and stays incomplete).
    pub fn is_complete(&self) -> bool {
        self.tally.trials == self.end - self.start
    }

    /// The exact accumulators of the completed trials — what distributed
    /// coordinators merge to expose running statistics of an in-flight
    /// job.
    pub fn tally(&self) -> &EnsembleTally {
        &self.tally
    }

    /// Flattens the partial into its wire form.
    pub fn to_parts(&self) -> EnsemblePartialParts {
        let tally = &self.tally;
        EnsemblePartialParts {
            start: self.start,
            end: self.end,
            done: tally.trials,
            counts: tally
                .counts
                .iter()
                .map(|(outcome, &count)| (outcome.as_str().to_string(), count))
                .collect(),
            undecided: tally.undecided,
            total_events: tally.total_events,
            events_squared: tally.events_squared.to_string(),
            time_sum: tally.time_sum.encode(),
            time_squared_sum: tally.time_squared_sum.encode(),
        }
    }

    /// Reconstructs a partial from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidEnsembleConfig`] for malformed
    /// encodings or an inconsistent range.
    pub fn from_parts(parts: EnsemblePartialParts) -> Result<EnsemblePartial, SimulationError> {
        let invalid = |message: String| SimulationError::InvalidEnsembleConfig { message };
        if parts.start >= parts.end || parts.done > parts.end - parts.start {
            return Err(invalid(format!(
                "inconsistent partial range [{}, {}) with {} trials done",
                parts.start, parts.end, parts.done
            )));
        }
        let events_squared = parts
            .events_squared
            .parse::<u128>()
            .map_err(|_| invalid(format!("bad events_squared `{}`", parts.events_squared)))?;
        let time_sum =
            ExactSum::decode(&parts.time_sum).map_err(|e| invalid(format!("bad time_sum: {e}")))?;
        let time_squared_sum = ExactSum::decode(&parts.time_squared_sum)
            .map_err(|e| invalid(format!("bad time_squared_sum: {e}")))?;
        Ok(EnsemblePartial {
            start: parts.start,
            end: parts.end,
            tally: EnsembleTally {
                trials: parts.done,
                counts: parts
                    .counts
                    .into_iter()
                    .map(|(label, count)| (Outcome::new(label), count))
                    .collect(),
                undecided: parts.undecided,
                total_events: parts.total_events,
                events_squared,
                time_sum,
                time_squared_sum,
            },
        })
    }
}

/// A Monte-Carlo ensemble of one network, one initial state and one outcome
/// classifier.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gillespie::{Ensemble, EnsembleOptions, SpeciesThresholdClassifier};
///
/// // A coin flip: whichever of the two decay channels fires first wins.
/// let crn: crn::Crn = "x -> h @ 1\nx -> t @ 1".parse()?;
/// let initial = crn.state_from_counts([("x", 1)])?;
/// let classifier = SpeciesThresholdClassifier::new()
///     .rule_named(&crn, "h", 1, "heads")?
///     .rule_named(&crn, "t", 1, "tails")?;
/// let report = Ensemble::new(&crn, initial, classifier)
///     .options(EnsembleOptions::new().trials(2000).master_seed(1))
///     .run()?;
/// assert!((report.probability("heads") - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Ensemble<'a, C> {
    crn: &'a Crn,
    initial: State,
    classifier: C,
    options: EnsembleOptions,
}

impl<'a, C> Ensemble<'a, C>
where
    C: OutcomeClassifier + Sync,
{
    /// Creates an ensemble over `crn` starting from `initial`.
    pub fn new(crn: &'a Crn, initial: State, classifier: C) -> Self {
        Ensemble {
            crn,
            initial,
            classifier,
            options: EnsembleOptions::default(),
        }
    }

    /// Replaces the ensemble options.
    pub fn options(mut self, options: EnsembleOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidEnsembleConfig`] for zero trials and
    /// propagates the first per-trajectory error encountered (for example an
    /// exceeded event limit).
    pub fn run(&self) -> Result<EnsembleReport, SimulationError> {
        self.run_cancellable(&CancelToken::new())
    }

    /// Runs the ensemble under an externally owned [`CancelToken`].
    ///
    /// Raising the token from another thread makes every worker stop after
    /// its current trial; the run then returns
    /// [`SimulationError::Cancelled`] instead of a (necessarily incomplete)
    /// report. This is the hook job schedulers use to abort in-flight
    /// ensemble work without tearing threads down.
    ///
    /// # Errors
    ///
    /// Everything [`Ensemble::run`] returns, plus
    /// [`SimulationError::Cancelled`] when the token was raised before the
    /// run finished.
    pub fn run_cancellable(&self, cancel: &CancelToken) -> Result<EnsembleReport, SimulationError> {
        self.validate()?;
        // Resolve `Auto` once, before the fan-out, so every worker runs the
        // same concrete stepper and the pilot classification is not repeated
        // per range.
        let method = self.resolved_method();
        let threads = self.options.effective_threads();
        let trials = self.options.trials;
        let partials = run_chunked_cancellable(threads, trials, cancel, |range, token| {
            let mut profile = SimProfile::default();
            self.run_range_on(range.start, range.end, method, token, &mut profile)
        })?;
        if cancel.is_cancelled() {
            return Err(SimulationError::Cancelled);
        }
        self.merge_resolved(partials, method)
    }

    /// Runs the contiguous trial block `[start, end)` on the calling thread
    /// and returns its [`EnsemblePartial`].
    ///
    /// Trial `i` seeds its RNG with `master_seed + i` exactly as the full
    /// run does, so partials computed anywhere — other threads, other
    /// processes — merge back into the bit-identical single-threaded report
    /// via [`Ensemble::merge`]. The `cancel` token is polled between trials;
    /// a cancelled range returns early with
    /// [`EnsemblePartial::is_complete`]` == false`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidEnsembleConfig`] for an empty or
    /// out-of-bounds range and propagates per-trajectory errors.
    pub fn run_range(
        &self,
        start: u64,
        end: u64,
        cancel: &CancelToken,
    ) -> Result<EnsemblePartial, SimulationError> {
        let mut profile = SimProfile::default();
        self.run_range_profiled(start, end, cancel, &mut profile)
    }

    /// [`Ensemble::run_range`] with work counters accumulated into
    /// `profile` (summed across the range's trials).
    ///
    /// The profile is an out-parameter rather than a field of
    /// [`EnsemblePartial`] deliberately: partials are a wire format whose
    /// bytes are pinned by the determinism tests, and profiling must never
    /// alter result bytes. The returned partial is bit-identical to the
    /// unprofiled path's.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Ensemble::run_range`].
    pub fn run_range_profiled(
        &self,
        start: u64,
        end: u64,
        cancel: &CancelToken,
        profile: &mut SimProfile,
    ) -> Result<EnsemblePartial, SimulationError> {
        self.validate()?;
        if start >= end || end > self.options.trials {
            return Err(SimulationError::InvalidEnsembleConfig {
                message: format!(
                    "trial range [{start}, {end}) is not within [0, {})",
                    self.options.trials
                ),
            });
        }
        self.run_range_on(start, end, self.resolved_method(), cancel, profile)
    }

    /// Merges range partials back into the full-ensemble report.
    ///
    /// The partials may arrive in any order; they are sorted by range start
    /// and reduced in trial order, which is what keeps the merged report
    /// bit-identical to a single-threaded [`Ensemble::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidEnsembleConfig`] unless the
    /// partials are all complete and cover `0..trials` exactly once.
    pub fn merge(&self, partials: Vec<EnsemblePartial>) -> Result<EnsembleReport, SimulationError> {
        self.merge_resolved(partials, self.resolved_method())
    }

    /// [`Ensemble::merge`] with the portfolio already resolved, so a full
    /// run classifies the network exactly once.
    fn merge_resolved(
        &self,
        mut partials: Vec<EnsemblePartial>,
        method: StepperKind,
    ) -> Result<EnsembleReport, SimulationError> {
        partials.sort_by_key(|p| p.start);
        let mut expected = 0u64;
        let mut tally = EnsembleTally::default();
        for partial in &partials {
            if partial.start != expected {
                return Err(SimulationError::InvalidEnsembleConfig {
                    message: format!(
                        "partials must tile the trial range: expected a range \
                         starting at {expected}, got [{}, {})",
                        partial.start, partial.end
                    ),
                });
            }
            if !partial.is_complete() {
                return Err(SimulationError::InvalidEnsembleConfig {
                    message: format!(
                        "partial [{}, {}) is incomplete ({} of {} trials run)",
                        partial.start,
                        partial.end,
                        partial.tally.trials,
                        partial.end - partial.start
                    ),
                });
            }
            expected = partial.end;
            tally.merge(&partial.tally);
        }
        if expected != self.options.trials {
            return Err(SimulationError::InvalidEnsembleConfig {
                message: format!(
                    "partials cover only {expected} of {} trials",
                    self.options.trials
                ),
            });
        }

        Ok(tally.into_report(self.options.master_seed, method, self.classifier.outcomes()))
    }

    fn validate(&self) -> Result<(), SimulationError> {
        if self.options.trials == 0 {
            return Err(SimulationError::InvalidEnsembleConfig {
                message: "trials must be positive".to_string(),
            });
        }
        if self.initial.species_len() != self.crn.species_len() {
            return Err(SimulationError::StateSizeMismatch {
                network: self.crn.species_len(),
                state: self.initial.species_len(),
            });
        }
        Ok(())
    }

    /// The configured method with [`StepperKind::Auto`] resolved against
    /// this ensemble's network and initial state (a no-op for concrete
    /// kinds).
    fn resolved_method(&self) -> StepperKind {
        self.options.method.resolve(self.crn, &self.initial)
    }

    /// The shared per-range worker body; `start`/`end` are assumed valid and
    /// `method` is already resolved to a concrete kind.
    fn run_range_on(
        &self,
        start: u64,
        end: u64,
        method: StepperKind,
        cancel: &CancelToken,
        profile: &mut SimProfile,
    ) -> Result<EnsemblePartial, SimulationError> {
        let mut stepper = method.stepper();
        // One state buffer per range, re-primed from the initial state each
        // trial; `run_trial` hands the allocation back through the result's
        // `final_state`.
        let mut scratch = self.initial.clone();
        let mut partial = EnsemblePartial {
            start,
            end,
            tally: EnsembleTally::default(),
        };
        for trial in start..end {
            if cancel.is_cancelled() {
                // Cancelled (or a sibling worker failed); the incomplete
                // partial is discarded by the caller.
                break;
            }
            let mut rng = StdRng::seed_from_u64(self.options.master_seed.wrapping_add(trial));
            scratch.clone_from(&self.initial);
            let result = run_trial_profiled(
                self.crn,
                stepper.as_mut(),
                &self.options.simulation,
                scratch,
                &mut rng,
                profile,
            )?;
            partial
                .tally
                .push(&result, self.classifier.classify(&result));
            scratch = result.final_state;
        }
        Ok(partial)
    }
}

/// Unbiased sample variance from exact totals, `(Σx² − Σx·x̄)/(n−1)`,
/// clamped at zero against rounding in the final subtraction. Every input
/// is a partition-independent exact readout and the formula is a fixed
/// sequence of f64 operations, so the result is bit-identical across
/// shardings.
fn sample_variance(n: u64, sum_squares: f64, total: f64, mean: f64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    ((sum_squares - total * mean) / (n - 1) as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::SpeciesThresholdClassifier;
    use crate::stop::StopCondition;

    fn coin_crn() -> Crn {
        "x -> h @ 3\nx -> t @ 1".parse().unwrap()
    }

    fn coin_classifier(crn: &Crn) -> SpeciesThresholdClassifier {
        SpeciesThresholdClassifier::new()
            .rule_named(crn, "h", 1, "heads")
            .unwrap()
            .rule_named(crn, "t", 1, "tails")
            .unwrap()
    }

    #[test]
    fn biased_coin_probabilities_converge() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let report = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(4_000).master_seed(17))
            .run()
            .unwrap();
        assert_eq!(report.trials, 4_000);
        assert_eq!(report.undecided, 0);
        assert!((report.probability("heads") - 0.75).abs() < 0.03);
        assert!((report.probability("tails") - 0.25).abs() < 0.03);
        assert_eq!(report.count("heads") + report.count("tails"), 4_000);
    }

    #[test]
    fn reports_are_independent_of_thread_count() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let run = |threads| {
            Ensemble::new(&crn, initial.clone(), coin_classifier(&crn))
                .options(
                    EnsembleOptions::new()
                        .trials(500)
                        .master_seed(42)
                        .threads(threads),
                )
                .run()
                .unwrap()
        };
        let single = run(1);
        let multi = run(4);
        // The whole report — including floating-point means — is identical.
        assert_eq!(single, multi);
    }

    #[test]
    fn undecided_trajectories_are_reported() {
        // The classifier wants a species that never appears above threshold.
        let crn: Crn = "x -> y @ 1".parse().unwrap();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let classifier = SpeciesThresholdClassifier::new()
            .rule_named(&crn, "y", 100, "many")
            .unwrap();
        let report = Ensemble::new(&crn, initial, classifier)
            .options(EnsembleOptions::new().trials(50).master_seed(3))
            .run()
            .unwrap();
        assert_eq!(report.undecided, 50);
        assert_eq!(report.count("many"), 0);
        assert_eq!(report.undecided_fraction(), 1.0);
        assert_eq!(report.conditional_probability("many"), 0.0);
    }

    #[test]
    fn range_partials_merge_to_the_single_threaded_report() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let ensemble = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(300).master_seed(9).threads(1));
        let reference = ensemble.run().unwrap();
        // Uneven ranges, produced out of order — as a work-stealing
        // scheduler would.
        let token = CancelToken::new();
        let partials = vec![
            ensemble.run_range(120, 300, &token).unwrap(),
            ensemble.run_range(0, 7, &token).unwrap(),
            ensemble.run_range(7, 120, &token).unwrap(),
        ];
        assert!(partials.iter().all(EnsemblePartial::is_complete));
        assert_eq!(partials[1].range(), (0, 7));
        assert_eq!(partials[1].completed(), 7);
        let merged = ensemble.merge(partials).unwrap();
        assert_eq!(merged, reference);
        assert_eq!(merged.master_seed, 9);
    }

    #[test]
    fn profiled_range_is_bit_identical_and_accumulates_work() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let ensemble = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(50).master_seed(23));
        let token = CancelToken::new();
        let plain = ensemble.run_range(0, 50, &token).unwrap();
        let mut profile = SimProfile::default();
        let profiled = ensemble
            .run_range_profiled(0, 50, &token, &mut profile)
            .unwrap();
        // Profiling is pure observation: the partial (the wire payload the
        // fabric ships around) is identical byte for byte.
        assert_eq!(profiled, plain);
        // The coin fires exactly one event per trial.
        assert_eq!(profile.steps, 50);
        assert!(
            profile.propensity_evals >= 50,
            "priming alone evaluates every channel each trial: {profile:?}"
        );
        assert_eq!(profile.leaps_accepted, 0);
    }

    #[test]
    fn merged_statistics_are_partition_independent_bitwise() {
        // The old contract was "merge reduces in trial order"; the exact
        // accumulators strengthen it: ANY tiling of the trial range gives
        // the bit-identical report, because readouts are pure functions of
        // the multiset of per-trial values.
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let ensemble = Ensemble::new(&crn, initial, coin_classifier(&crn)).options(
            EnsembleOptions::new()
                .trials(400)
                .master_seed(11)
                .threads(1),
        );
        let reference = ensemble.run().unwrap();
        let token = CancelToken::new();
        for boundaries in [
            vec![0, 400],
            vec![0, 1, 399, 400],
            vec![0, 97, 194, 291, 400],
        ] {
            let partials: Vec<EnsemblePartial> = boundaries
                .windows(2)
                .map(|w| ensemble.run_range(w[0], w[1], &token).unwrap())
                .collect();
            let merged = ensemble.merge(partials).unwrap();
            assert_eq!(merged, reference, "tiling {boundaries:?}");
            assert_eq!(
                merged.mean_final_time.to_bits(),
                reference.mean_final_time.to_bits()
            );
            assert_eq!(
                merged.final_time_variance.to_bits(),
                reference.final_time_variance.to_bits()
            );
            assert_eq!(
                merged.events_variance.to_bits(),
                reference.events_variance.to_bits()
            );
        }
        assert!(reference.final_time_variance > 0.0);
        assert!(reference.events_variance >= 0.0);
    }

    #[test]
    fn partials_round_trip_through_wire_parts_bitwise() {
        // Serialise every partial, reconstruct, merge: the report must be
        // bit-identical to merging the originals — the contract remote
        // workers rely on.
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let ensemble = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(250).master_seed(4).threads(1));
        let reference = ensemble.run().unwrap();
        let token = CancelToken::new();
        let partials = [
            ensemble.run_range(0, 100, &token).unwrap(),
            ensemble.run_range(100, 250, &token).unwrap(),
        ];
        let round_tripped: Vec<EnsemblePartial> = partials
            .iter()
            .map(|p| {
                let parts = p.to_parts();
                let rebuilt = EnsemblePartial::from_parts(parts).unwrap();
                assert_eq!(&rebuilt, p);
                rebuilt
            })
            .collect();
        assert_eq!(ensemble.merge(round_tripped).unwrap(), reference);
        // Malformed encodings are rejected, not misread.
        let mut bad = partials[0].to_parts();
        bad.time_sum = "not hex".to_string();
        assert!(matches!(
            EnsemblePartial::from_parts(bad).unwrap_err(),
            SimulationError::InvalidEnsembleConfig { .. }
        ));
        let mut bad = partials[0].to_parts();
        bad.done = bad.end - bad.start + 1;
        assert!(EnsemblePartial::from_parts(bad).is_err());
    }

    #[test]
    fn partial_memory_is_independent_of_trial_count() {
        // The streaming accumulators keep a partial O(outcomes) even for
        // huge ranges: the wire form of a 20k-trial partial is the same
        // shape as a 20-trial one (no per-trial vectors anywhere).
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let token = CancelToken::new();
        let small = Ensemble::new(&crn, initial.clone(), coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(20).master_seed(2))
            .run_range(0, 20, &token)
            .unwrap();
        let large = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(20_000).master_seed(2))
            .run_range(0, 20_000, &token)
            .unwrap();
        assert_eq!(large.to_parts().counts.len(), small.to_parts().counts.len());
        assert_eq!(large.tally().trials(), 20_000);
        assert!(large.tally().clone().final_time_stats().1 > 0.0);
    }

    #[test]
    fn merge_rejects_gaps_and_incomplete_partials() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let ensemble = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(100).master_seed(1));
        let token = CancelToken::new();
        let head = ensemble.run_range(0, 40, &token).unwrap();
        // A gap (missing [40, 60)) must be rejected…
        let tail = ensemble.run_range(60, 100, &token).unwrap();
        let err = ensemble.merge(vec![head.clone(), tail]).unwrap_err();
        assert!(matches!(err, SimulationError::InvalidEnsembleConfig { .. }));
        // …as must partial coverage.
        let err = ensemble.merge(vec![head]).unwrap_err();
        assert!(matches!(err, SimulationError::InvalidEnsembleConfig { .. }));
        // An empty range is invalid up front.
        let err = ensemble.run_range(10, 10, &token).unwrap_err();
        assert!(matches!(err, SimulationError::InvalidEnsembleConfig { .. }));
    }

    #[test]
    fn cancelled_runs_report_cancellation() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let ensemble = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(1_000).master_seed(3));
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            ensemble.run_cancellable(&cancel).unwrap_err(),
            SimulationError::Cancelled
        ));
        // A cancelled range comes back incomplete rather than erroring, so
        // schedulers can distinguish "stopped early" from "failed".
        let partial = ensemble.run_range(0, 100, &cancel).unwrap();
        assert!(!partial.is_complete());
        assert_eq!(partial.completed(), 0);
    }

    #[test]
    fn zero_trials_is_an_error() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let err = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(0))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimulationError::InvalidEnsembleConfig { .. }));
    }

    #[test]
    fn per_trial_errors_propagate() {
        let crn: Crn = "0 -> a @ 1".parse().unwrap();
        let initial = crn.zero_state();
        let classifier = SpeciesThresholdClassifier::new()
            .rule_named(&crn, "a", 1_000_000, "huge")
            .unwrap();
        let err = Ensemble::new(&crn, initial, classifier)
            .options(
                EnsembleOptions::new()
                    .trials(4)
                    .simulation(SimulationOptions::new().max_events(10)),
            )
            .run()
            .unwrap_err();
        assert!(matches!(err, SimulationError::EventLimitExceeded { .. }));
    }

    #[test]
    fn all_methods_agree_on_the_coin() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        for method in StepperKind::ALL {
            let report = Ensemble::new(&crn, initial.clone(), coin_classifier(&crn))
                .options(
                    EnsembleOptions::new()
                        .trials(2_000)
                        .master_seed(7)
                        .method(method)
                        .simulation(SimulationOptions::new().stop(StopCondition::exhaustion())),
                )
                .run()
                .unwrap();
            assert!(
                (report.probability("heads") - 0.75).abs() < 0.05,
                "{method:?} disagrees: {}",
                report.probability("heads")
            );
        }
    }

    #[test]
    fn mean_statistics_are_populated() {
        let crn = coin_crn();
        let initial = crn.state_from_counts([("x", 1)]).unwrap();
        let report = Ensemble::new(&crn, initial, coin_classifier(&crn))
            .options(EnsembleOptions::new().trials(100).master_seed(5))
            .run()
            .unwrap();
        assert!((report.mean_events - 1.0).abs() < 1e-9);
        assert!(report.mean_final_time > 0.0);
    }
}
