//! `paper_figures`: the paper's evaluation as one library batch.
//!
//! A batch makes the same library calls as the `ex1`/`ex2`/`fig3`/`fig5`
//! experiment binaries (Direct stepper, one ensemble thread, reduced trial
//! counts): Example 1, Example 2's seven input points, the Fig. 3 error
//! sweep over γ = 1…1e5, and Fig. 5's three MOI 1–10 sweeps (natural
//! surrogate, synthesized from the natural fit, synthesized from Eq. 14).
//! A paper-scale part follows: the Eq. 14 sweep under `auto`, a race check
//! on Example 1 scaled to 10 inputs (about 24k CME states), and the small
//! log-linear synthesis with its two exact evaluations.
//!
//! Every call is timed on its own, the sweeps one MOI point at a time, and
//! repeats once per batch on fresh seeds. The gated figures sum each call's
//! fastest repetition (see [`RunTotals::fastest_ms`]).
//!
//! Untraced batches call `Ensemble::run` and `MoiSweep::run` as the
//! binaries do. Traced batches run the same ensembles through
//! `gillespie::engine::run_chunked` with the ensemble's own partitioning,
//! `Ensemble::run_range_profiled` per range and `Ensemble::merge`, so every
//! range's busy time and `SimProfile` counts are recorded; the merged
//! reports are the same bits either way.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cme::{Checker, FirstPassage, PopulationBounds};
use crn::{Crn, State};
use gillespie::engine::run_chunked;
use gillespie::{
    Ensemble, EnsembleOptions, EnsembleReport, OutcomeClassifier, SimProfile, StepperKind,
};
use lambda::{LambdaModel, MoiSweep, NaturalLambdaModel, SyntheticLambdaModel, LYSOGENY};
use numerics::LogLinearFit;
use service::json::Json;
use synthesis::{
    Composer, LogLinearSynthesizer, Preprocessor, StochasticModule, TargetDistribution,
};

use crate::common::{binomial_ok, median, mix, ms, Metric, Phase, Rng};
use crate::replay;
use crate::trace::{SpanRecord, Tracer};

/// Ensemble worker threads. One: on a 2-core share of a busy host, a call
/// on two threads is only as fast as the more disturbed core, and its
/// fastest repetition moved by 15–25 % between runs, against 3–5 % on one.
pub const THREADS: usize = 1;
/// Trial counts of one batch.
struct Trials {
    ex1: u64,
    ex2: u64,
    fig3: u64,
    natural: u64,
    synthetic: u64,
    /// The Eq. 14 sweep under `auto`.
    auto_lambda: u64,
}

/// The measured batch. The natural surrogate is cheap, and enough trials
/// per point keep the three-coefficient fit well conditioned, as
/// `tests/lambda.rs` notes; the synthesized networks run ~45k events per
/// trajectory and dominate, so they run few trials per batch and the
/// checks pool them over the run's batches. Small calls repeat often, and
/// more repetitions make a call's fastest one steadier.
const FULL: Trials = Trials {
    ex1: 1_000,
    ex2: 500,
    fig3: 1_000,
    natural: 400,
    synthetic: 25,
    auto_lambda: 8,
};

/// The set-up pilot: every call of a batch at a fraction of the trials and
/// a fixed seed, so set-up does the same work on every run.
const PILOT: Trials = Trials {
    ex1: 40,
    ex2: 20,
    fig3: 40,
    natural: 40,
    synthetic: 2,
    auto_lambda: 2,
};
const PILOT_SEED: u64 = 0x5EED;
const FIG3_GAMMAS: [f64; 6] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];
const MOI: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
/// A run measures at least this many batches. The Fig. 5 checks run on the
/// curves pooled over every batch of the run: 1200 natural, 75 synthesized
/// and 24 `auto` trajectories per MOI point at the least, about three times
/// that in a 45-second run.
const MIN_BATCHES: usize = 3;
/// `setup_s` is the median of this many set-ups in one run: one before
/// each of the first batches, so they sample the machine over the run, as
/// the batches do.
const SETUP_REPEATS: usize = 7;
/// Operations per batch: Example 1, seven Example 2 points, six Fig. 3
/// points, thirty Fig. 5 points, ten `auto` lambda points, one race check
/// and one synthesis.
const OPS_PER_BATCH: u64 = 1 + 7 + 6 + 30 + 10 + 1 + 1;
/// The pinned exact goldens of the small log-linear synthesis
/// (`tests/exact_verification.rs`, `crates/service/tests/http_roundtrip.rs`).
const SYNTH_GOLDENS: [(u64, f64); 2] = [(1, 0.374_999_999_750), (2, 0.624_998_998_258)];
/// Population cap of the scaled Example 1 race check.
const CHECK_CAP: u64 = 10;

/// Everything a batch needs that does not depend on its seed.
pub struct Models {
    ex1: StochasticModule,
    ex1_initial: State,
    ex2_crn: Crn,
    ex2_module: StochasticModule,
    /// `(x1, x2, initial state, predicted probabilities)`.
    ex2_points: Vec<(u64, u64, State, Vec<f64>)>,
    fig3: Vec<(f64, StochasticModule, State)>,
    natural: NaturalLambdaModel,
    eq14: SyntheticLambdaModel,
}

/// Example 1's module scaled to 10 inputs (E = 3, 4, 3; food 2; decision
/// after 2 working firings) at `gamma`, with its initial state.
fn scaled_example1(gamma: f64) -> Result<(StochasticModule, State), String> {
    let module = StochasticModule::builder()
        .outcomes(["T1", "T2", "T3"])
        .gamma(gamma)
        .input_total(10)
        .food(2)
        .decision_threshold(2)
        .build()
        .map_err(|e| e.to_string())?;
    let initial = module
        .initial_state_from_counts(&[3, 4, 3])
        .map_err(|e| e.to_string())?;
    Ok((module, initial))
}

/// The race check of batch `index`: γ in [1e2, 1e4], derived from the run
/// seed, so every batch solves a fresh chain of the same size.
fn check_gamma(run_seed: u64, index: usize) -> f64 {
    let mut rng = Rng::new(mix(run_seed) ^ index as u64);
    10f64.powf(2.0 + 2.0 * rng.next_f64())
}

/// The race check as a `/check` body: does outcome 1 decide before
/// outcome 2?
fn check_body(gamma: f64) -> Result<String, String> {
    let (module, initial) = scaled_example1(gamma)?;
    let crn = module.crn();
    let counts: Vec<(String, Json)> = crn
        .species()
        .iter()
        .filter(|s| initial.count(s.id()) > 0)
        .map(|s| (s.name().to_string(), Json::count(initial.count(s.id()))))
        .collect();
    let threshold = |species: &str| {
        Json::object([
            ("species", Json::str(species)),
            ("at_least", Json::count(2)),
        ])
    };
    Ok(Json::object([
        ("network", Json::str(crn.to_text())),
        ("initial", Json::Object(counts)),
        (
            "bounds",
            Json::object([
                ("policy", Json::str("strict")),
                ("default_cap", Json::count(CHECK_CAP)),
            ]),
        ),
        (
            "property",
            Json::object([
                ("type", Json::str("reach_before")),
                ("target", threshold("o1")),
                ("competitor", threshold("o2")),
            ]),
        ),
        ("wait", Json::Bool(true)),
    ])
    .render())
}

/// Builds every model of the batch (module synthesis, Example 2's
/// composition, the lambda surrogate and the Eq. 14 network).
pub fn setup() -> Result<Models, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let ex1 = StochasticModule::builder()
        .outcomes(["d1", "d2", "d3"])
        .gamma(1_000.0)
        .input_total(100)
        .build()
        .map_err(|e| err(&e))?;
    let target = TargetDistribution::new(vec![0.3, 0.4, 0.3]).map_err(|e| err(&e))?;
    let ex1_initial = ex1.initial_state(&target).map_err(|e| err(&e))?;

    let ex2_module = StochasticModule::builder()
        .outcomes(["T1", "T2", "T3"])
        .gamma(1_000.0)
        .input_total(100)
        .build()
        .map_err(|e| err(&e))?;
    let preprocessor = Preprocessor::new(3)
        .term("x1", 2, 0, 2)
        .and_then(|p| p.term("x2", 0, 1, 3))
        .map_err(|e| err(&e))?;
    let ex2_crn = Composer::new()
        .add(ex2_module.crn())
        .add(&preprocessor.build(1_000.0).map_err(|e| err(&e))?)
        .build()
        .map_err(|e| err(&e))?;
    let base_counts = target.to_counts(100);
    let species = |name: &str| {
        ex2_crn
            .species_id(name)
            .ok_or_else(|| format!("Example 2 network has no species `{name}`"))
    };
    let mut ex2_points = Vec::new();
    for (x1, x2) in [(0, 0), (5, 0), (10, 0), (0, 5), (0, 10), (5, 5), (10, 10)] {
        let predicted =
            preprocessor.predicted_probabilities(&base_counts, &[("x1", x1), ("x2", x2)]);
        let mut initial = ex2_crn.zero_state();
        for (i, &count) in base_counts.iter().enumerate() {
            initial.set(species(&format!("e{}", i + 1))?, count);
            initial.set(species(&format!("f{}", i + 1))?, 100);
        }
        initial.set(species("x1")?, x1);
        initial.set(species("x2")?, x2);
        ex2_points.push((x1, x2, initial, predicted));
    }

    let mut fig3 = Vec::new();
    for gamma in FIG3_GAMMAS {
        let module = StochasticModule::builder()
            .outcomes(["T1", "T2", "T3"])
            .gamma(gamma)
            .input_total(300)
            .food(100)
            .decision_threshold(10)
            .build()
            .map_err(|e| err(&e))?;
        let uniform = TargetDistribution::uniform(3).map_err(|e| err(&e))?;
        let initial = module.initial_state(&uniform).map_err(|e| err(&e))?;
        fig3.push((gamma, module, initial));
    }

    Ok(Models {
        ex1,
        ex1_initial,
        ex2_crn,
        ex2_module,
        ex2_points,
        fig3,
        natural: NaturalLambdaModel::new().map_err(|e| err(&e))?,
        eq14: SyntheticLambdaModel::paper().map_err(|e| err(&e))?,
    })
}

/// Pooled `(lysogeny count, trials)` per MOI point of one Fig. 5 curve.
type Pooled = [(u64, u64); 10];

/// The three timed parts of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Part {
    /// Examples 1–2 and Fig. 3.
    Examples,
    Figure5,
    PaperScale,
}

/// Accumulated over the run's batches.
#[derive(Default)]
struct RunTotals {
    batch_ms: Vec<f64>,
    fig5_ms: Vec<f64>,
    rest_ms: Vec<f64>,
    scale_ms: Vec<f64>,
    /// Per [`Sweep`], over every batch.
    pooled: [Pooled; 4],
    /// Wall time per [`Sweep`], over every batch.
    sweep_s: [f64; 4],
    synthesis_ms: f64,
    batches: usize,
    last_ex1: Option<EnsembleReport>,
    /// `(γ, served target probability)` of the last race check.
    last_check: Option<(f64, f64)>,
    /// Wall time of every repetition of each call of the batch, ms.
    calls: BTreeMap<(Part, &'static str, usize), Vec<f64>>,
}

/// The four Fig. 5 sweeps of a batch.
#[derive(Debug, Clone, Copy)]
enum Sweep {
    Natural,
    /// Synthesized from the natural sweep's fit.
    Fit,
    /// Synthesized from Eq. 14.
    Eq14,
    /// Synthesized from Eq. 14, under `auto`.
    Eq14Auto,
}

impl RunTotals {
    /// Records one repetition of call `(label, index)` of `part`, which
    /// started at `started`.
    fn call(&mut self, part: Part, label: &'static str, index: usize, started: Instant) {
        self.calls
            .entry((part, label, index))
            .or_default()
            .push(ms(started.elapsed()));
    }

    /// Records a sweep's per-point calls and pools its counts.
    fn sweep(&mut self, sweep: Sweep, points: &[(u64, Duration)], trials: u64) {
        let (part, label) = match sweep {
            Sweep::Natural => (Part::Figure5, "natural"),
            Sweep::Fit => (Part::Figure5, "synthetic_fit"),
            Sweep::Eq14 => (Part::Figure5, "eq14"),
            Sweep::Eq14Auto => (Part::PaperScale, "eq14_auto"),
        };
        for (i, &(count, took)) in points.iter().enumerate() {
            self.calls
                .entry((part, label, i))
                .or_default()
                .push(ms(took));
            self.sweep_s[sweep as usize] += took.as_secs_f64();
            self.pooled[sweep as usize][i].0 += count;
            self.pooled[sweep as usize][i].1 += trials;
        }
    }

    /// The batch's time on a quiet machine, ms: over the calls of `part`
    /// (every part when `None`), the sum of each call's fastest repetition
    /// in the run. The machine's other tenants only ever add to a call, and
    /// on a shared host they do so for seconds to minutes at a time, so the
    /// median of a run's batches measures them as much as the program.
    /// Fresh seeds also move a call's work between batches (a synthesized
    /// Fig. 5 point runs 25 trajectories), so the fastest repetition favours
    /// light draws too; summed over the batch's 60 calls, that bias is
    /// nearly the same in every run.
    fn fastest_ms(&self, part: Option<Part>) -> f64 {
        self.calls
            .iter()
            .filter(|((p, _, _), _)| part.is_none_or(|part| *p == part))
            .map(|(_, times)| times.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// Engine-layer totals of a traced phase.
#[derive(Default)]
struct EngineTotals {
    profile: SimProfile,
    /// `(busy ns, steps)` of ensemble ranges per stepper kind.
    per_kind: BTreeMap<&'static str, (u64, u64)>,
    busy_ns: u64,
    /// Wall time of the ensemble fan-outs; `THREADS` times this is the
    /// capacity that busy and idle time split.
    fanout_wall_ns: u64,
    merge_us: Vec<f64>,
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    engine: std::sync::Mutex<EngineTotals>,
}

impl Ctx<'_> {
    /// Runs one ensemble: `Ensemble::run` untraced, or the profiled fan-out
    /// plus merge under spans when traced. `kind` is the concrete stepper
    /// the ensemble runs.
    fn ensemble<C: OutcomeClassifier + Sync>(
        &self,
        ensemble: &Ensemble<'_, C>,
        kind: StepperKind,
        trials: u64,
        parent: u64,
        trace: &str,
    ) -> Result<EnsembleReport, String> {
        if !self.tracer.enabled() {
            return ensemble.run().map_err(|e| e.to_string());
        }
        let started = Instant::now();
        let ranges = run_chunked(THREADS, trials, |range, cancel| {
            let mut profile = SimProfile::default();
            let start_ns = self.tracer.now_ns();
            let partial = ensemble
                .run_range_profiled(range.start, range.end, cancel, &mut profile)
                .map_err(|e| e.to_string())?;
            let end_ns = self.tracer.now_ns();
            self.tracer.push(SpanRecord {
                id: self.tracer.new_id(),
                parent: Some(parent),
                layer: "gillespie",
                name: "Ensemble::run_range_profiled".to_string(),
                trace: trace.to_string(),
                start_ns,
                end_ns,
                attrs: vec![
                    ("stepper".to_string(), kind.name().to_string()),
                    (
                        "range".to_string(),
                        format!("[{}, {})", range.start, range.end),
                    ),
                    ("steps".to_string(), profile.steps.to_string()),
                ],
            });
            Ok::<_, String>((partial, profile, end_ns - start_ns))
        })?;
        let fanout_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut partials = Vec::with_capacity(ranges.len());
        {
            let mut engine = self.engine.lock().expect("engine totals poisoned");
            engine.fanout_wall_ns += fanout_ns;
            for (partial, profile, busy) in ranges {
                engine.profile.merge(&profile);
                engine.busy_ns += busy;
                let slot = engine.per_kind.entry(kind.name()).or_insert((0, 0));
                slot.0 += busy;
                slot.1 += profile.steps;
                partials.push(partial);
            }
        }
        let merge_started = Instant::now();
        let report = self.tracer.span(
            "gillespie",
            "Ensemble::merge",
            Some(parent),
            trace,
            |_| ensemble.merge(partials).map_err(|e| e.to_string()),
            |_| Vec::new(),
        )?;
        self.engine
            .lock()
            .expect("engine totals poisoned")
            .merge_us
            .push(merge_started.elapsed().as_secs_f64() * 1e6);
        Ok(report)
    }

    /// One Fig. 5 sweep under `method`, one call per MOI point so that each
    /// point is timed on its own: untraced, `MoiSweep::run` over that point
    /// alone; traced, the same ensemble (seed `master + (index << 32)`, as
    /// the whole sweep seeds it) with `auto` resolved under its own span, as
    /// the ensemble does. Returns the lysogeny count and wall time per point.
    fn sweep<M: LambdaModel>(
        &self,
        model: &M,
        method: StepperKind,
        trials: u64,
        master_seed: u64,
        parent: u64,
        trace: &str,
    ) -> Result<Vec<(u64, Duration)>, String> {
        let mut points = Vec::with_capacity(MOI.len());
        for (index, &moi) in MOI.iter().enumerate() {
            let seed = master_seed.wrapping_add((index as u64) << 32);
            let started = Instant::now();
            let count = if self.tracer.enabled() {
                self.traced_point(model, method, trials, moi, seed, parent, trace)?
            } else {
                let curve = MoiSweep::new([moi])
                    .trials(trials)
                    .master_seed(seed)
                    .threads(THREADS)
                    .method(method)
                    .run(model)
                    .map_err(|e| e.to_string())?;
                (curve.points()[0].probability * trials as f64).round() as u64
            };
            points.push((count, started.elapsed()));
        }
        Ok(points)
    }

    #[allow(clippy::too_many_arguments)]
    fn traced_point<M: LambdaModel>(
        &self,
        model: &M,
        method: StepperKind,
        trials: u64,
        moi: u64,
        seed: u64,
        parent: u64,
        trace: &str,
    ) -> Result<u64, String> {
        let initial = model.initial_state(moi).map_err(|e| e.to_string())?;
        let kind = if method == StepperKind::Auto {
            self.tracer.span(
                "gillespie",
                "StepperKind::resolve",
                Some(parent),
                trace,
                |_| method.resolve(model.crn(), &initial),
                |kind| vec![("resolved".to_string(), kind.name().to_string())],
            )
        } else {
            method
        };
        let classifier = model.classifier().map_err(|e| e.to_string())?;
        let ensemble = Ensemble::new(model.crn(), initial, classifier).options(
            EnsembleOptions::new()
                .trials(trials)
                .master_seed(seed)
                .threads(THREADS)
                .method(kind)
                .simulation(model.simulation_options()),
        );
        let report = self.ensemble(&ensemble, kind, trials, parent, trace)?;
        Ok(report.count(LYSOGENY))
    }
}

/// Master seed of part `part` of batch `batch`: disjoint trial-seed ranges
/// (every part uses fewer than 2^36 consecutive seeds) under a per-run
/// prefix derived from the workload seed.
fn part_seed(run_seed: u64, batch: usize, part: u64) -> u64 {
    ((mix(run_seed) & 0xFFFF) << 48) | ((batch as u64 & 0xFF) << 40) | (part << 36)
}

/// Runs one batch, checks its per-batch results and adds its timings and
/// Fig. 5 counts to `totals`.
fn batch(
    ctx: &Ctx<'_>,
    models: &Models,
    trials: &Trials,
    run_seed: u64,
    index: usize,
    totals: &mut RunTotals,
    phase: &mut Phase,
) -> Result<(), String> {
    let tracer = ctx.tracer;
    let trace = format!("batch-{index}");
    let root = tracer.new_id();
    let batch_start_ns = tracer.now_ns();
    let started = Instant::now();
    let seed = |part| part_seed(run_seed, index, part);

    // Example 1.
    let call_started = Instant::now();
    let ex1 = tracer.span(
        "bench",
        "example1",
        Some(root),
        &trace,
        |id| {
            let ensemble = Ensemble::new(
                models.ex1.crn(),
                models.ex1_initial.clone(),
                models.ex1.classifier().map_err(|e| e.to_string())?,
            )
            .options(
                EnsembleOptions::new()
                    .trials(trials.ex1)
                    .master_seed(seed(0))
                    .threads(THREADS)
                    .simulation(models.ex1.simulation_options()),
            );
            ctx.ensemble(&ensemble, StepperKind::Direct, trials.ex1, id, &trace)
        },
        |_| Vec::new(),
    )?;
    totals.call(Part::Examples, "example1", 0, call_started);
    phase.attempted += 1;
    let total: u64 = ex1.counts.iter().map(|c| c.count).sum::<u64>() + ex1.undecided;
    let ex1_ok = total == trials.ex1
        && ["d1", "d2", "d3"]
            .iter()
            .zip([0.3, 0.4, 0.3])
            .all(|(o, p)| binomial_ok(ex1.count(o), trials.ex1, p, 5.0, 0.01));
    phase.check(ex1_ok, || {
        format!(
            "Example 1 off {{0.3, 0.4, 0.3}}: {:?} undecided {}",
            ex1.counts, ex1.undecided
        )
    });
    totals.last_ex1 = Some(ex1);

    // Example 2.
    tracer.span(
        "bench",
        "example2",
        Some(root),
        &trace,
        |id| -> Result<(), String> {
            for (i, (x1, x2, initial, predicted)) in models.ex2_points.iter().enumerate() {
                let ensemble = Ensemble::new(
                    &models.ex2_crn,
                    initial.clone(),
                    models.ex2_module.classifier().map_err(|e| e.to_string())?,
                )
                .options(
                    EnsembleOptions::new()
                        .trials(trials.ex2)
                        .master_seed(seed(1).wrapping_add((i as u64) << 32))
                        .threads(THREADS)
                        .simulation(models.ex2_module.simulation_options()),
                );
                let call_started = Instant::now();
                let report =
                    ctx.ensemble(&ensemble, StepperKind::Direct, trials.ex2, id, &trace)?;
                totals.call(Part::Examples, "example2", i, call_started);
                phase.attempted += 1;
                let ok = ["T1", "T2", "T3"]
                    .iter()
                    .zip(predicted)
                    .all(|(o, &p)| binomial_ok(report.count(o), trials.ex2, p, 5.0, 0.015));
                phase.check(ok, || {
                    format!(
                        "Example 2 at X=({x1},{x2}) off {predicted:?}: {:?}",
                        report.counts
                    )
                });
            }
            Ok(())
        },
        |_| Vec::new(),
    )?;

    // Figure 3: error trials fanned out exactly as the binary does.
    tracer.span(
        "bench",
        "figure3",
        Some(root),
        &trace,
        |id| -> Result<(), String> {
            let mut percent = Vec::new();
            for (g, (gamma, module, initial)) in models.fig3.iter().enumerate() {
                let master = seed(2).wrapping_add((g as u64) << 32);
                let started = Instant::now();
                let partials = run_chunked(THREADS, trials.fig3, |range, _| {
                    let start_ns = tracer.now_ns();
                    let mut errors = 0u64;
                    for trial in range.trials() {
                        let (_, _, is_error) = module
                            .error_trial(initial, master.wrapping_add(trial))
                            .map_err(|e| e.to_string())?;
                        errors += u64::from(is_error);
                    }
                    let end_ns = tracer.now_ns();
                    tracer.push(SpanRecord {
                        id: tracer.new_id(),
                        parent: Some(id),
                        layer: "synthesis",
                        name: "StochasticModule::error_trial".to_string(),
                        trace: trace.clone(),
                        start_ns,
                        end_ns,
                        attrs: vec![("gamma".to_string(), gamma.to_string())],
                    });
                    Ok::<_, String>((errors, end_ns - start_ns))
                })?;
                if tracer.enabled() {
                    let mut engine = ctx.engine.lock().expect("engine totals poisoned");
                    engine.fanout_wall_ns +=
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    engine.busy_ns += partials.iter().map(|p| p.1).sum::<u64>();
                }
                totals.call(Part::Examples, "figure3", g, started);
                let errors: u64 = partials.iter().map(|p| p.0).sum();
                percent.push(100.0 * errors as f64 / trials.fig3 as f64);
                phase.attempted += 1;
            }
            // The paper's shape: tens of percent at γ = 1, falling with γ,
            // below 1 % from γ = 1e3 on (expected 0.1 % and less).
            let ok = (20.0..50.0).contains(&percent[0])
                && percent[0] > percent[1]
                && percent[1] > percent[2]
                && percent[3..].iter().all(|&p| p < 1.0);
            phase.check(ok, || {
                format!("Figure 3 error % off the 1/γ shape: {percent:?}")
            });
            Ok(())
        },
        |_| Vec::new(),
    )?;
    let rest = started.elapsed();

    // Figure 5: natural sweep, fit, synthesis from the fit, both synthetic
    // sweeps.
    let fig5_started = Instant::now();
    tracer.span(
        "bench",
        "figure5",
        Some(root),
        &trace,
        |id| -> Result<(), String> {
            let natural = tracer.span(
                "lambda",
                "MoiSweep::run natural",
                Some(id),
                &trace,
                |sid| {
                    ctx.sweep(
                        &models.natural,
                        StepperKind::Direct,
                        trials.natural,
                        seed(3),
                        sid,
                        &trace,
                    )
                },
                |_| Vec::new(),
            )?;
            totals.sweep(Sweep::Natural, &natural, trials.natural);
            let xs: Vec<f64> = MOI.iter().map(|&m| m as f64).collect();
            let ys: Vec<f64> = natural
                .iter()
                .map(|&(k, _)| 100.0 * k as f64 / trials.natural as f64)
                .collect();
            let synth_started = Instant::now();
            let synthetic = tracer.span(
                "synthesis",
                "SyntheticLambdaModel::from_fit",
                Some(id),
                &trace,
                |_| {
                    let fit = LogLinearFit::fit(&xs, &ys).map_err(|e| e.to_string())?;
                    SyntheticLambdaModel::from_fit(&fit)
                        .map_err(|e| format!("synthesis from fit {fit}: {e}"))
                },
                |_| Vec::new(),
            )?;
            totals.synthesis_ms += ms(synth_started.elapsed());
            totals.call(Part::Figure5, "from_fit", 0, synth_started);
            let fit = tracer.span(
                "lambda",
                "MoiSweep::run synthetic(fit)",
                Some(id),
                &trace,
                |sid| {
                    ctx.sweep(
                        &synthetic,
                        StepperKind::Direct,
                        trials.synthetic,
                        seed(4),
                        sid,
                        &trace,
                    )
                },
                |_| Vec::new(),
            )?;
            totals.sweep(Sweep::Fit, &fit, trials.synthetic);
            let eq14 = tracer.span(
                "lambda",
                "MoiSweep::run synthetic(Eq14)",
                Some(id),
                &trace,
                |sid| {
                    ctx.sweep(
                        &models.eq14,
                        StepperKind::Direct,
                        trials.synthetic,
                        seed(5),
                        sid,
                        &trace,
                    )
                },
                |_| Vec::new(),
            )?;
            totals.sweep(Sweep::Eq14, &eq14, trials.synthetic);
            phase.attempted += 30;
            Ok(())
        },
        |_| Vec::new(),
    )?;
    let fig5 = fig5_started.elapsed();

    // Paper scale: the Eq. 14 sweep under `auto`, a race check on scaled
    // Example 1 cross-checked by a first-passage solve, and the small
    // log-linear synthesis with its exact evaluations.
    let scale_started = Instant::now();
    tracer.span(
        "bench",
        "paper_scale",
        Some(root),
        &trace,
        |id| -> Result<(), String> {
            let auto = tracer.span(
                "lambda",
                "MoiSweep::run synthetic(Eq14) auto",
                Some(id),
                &trace,
                |sid| {
                    ctx.sweep(
                        &models.eq14,
                        StepperKind::Auto,
                        trials.auto_lambda,
                        seed(6),
                        sid,
                        &trace,
                    )
                },
                |_| Vec::new(),
            )?;
            totals.sweep(Sweep::Eq14Auto, &auto, trials.auto_lambda);
            phase.attempted += MOI.len() as u64;

            let race_started = Instant::now();
            let gamma = check_gamma(run_seed, index);
            let (module, initial) = scaled_example1(gamma)?;
            let bounds = PopulationBounds::strict(CHECK_CAP);
            let verdict = tracer.span(
                "cme",
                "Checker::reach_before_species",
                Some(id),
                &trace,
                |_| {
                    Checker::new(module.crn(), initial.clone(), bounds.clone())
                        .reach_before_species(("o1", 2), ("o2", 2))
                        .map_err(|e| e.to_string())
                },
                |_| Vec::new(),
            )?;
            totals.call(Part::PaperScale, "checker", 0, race_started);
            let passage_started = Instant::now();
            let passage = tracer.span(
                "cme",
                "FirstPassage::solve",
                Some(id),
                &trace,
                |_| {
                    FirstPassage::new(module.crn())
                        .outcome_species_at_least("o1", "o1", 2)
                        .and_then(|f| f.outcome_species_at_least("o2", "o2", 2))
                        .and_then(|f| f.solve(&initial, &bounds))
                        .map_err(|e| e.to_string())
                },
                |_| Vec::new(),
            )?;
            totals.call(Part::PaperScale, "first_passage", 0, passage_started);
            let mass = verdict.target + verdict.competitor + verdict.never + verdict.escaped;
            phase.attempted += 1;
            phase.check(
                (verdict.target - passage.probability("o1")).abs() <= 1e-9
                    && (verdict.competitor - passage.probability("o2")).abs() <= 1e-9
                    && (mass - 1.0).abs() <= 1e-9,
                || {
                    format!(
                        "race at γ={gamma}: Checker {verdict:?} vs first passage {:?}",
                        passage.probabilities()
                    )
                },
            );
            totals.last_check = Some((gamma, verdict.target));

            let synth_started = Instant::now();
            let synthesized = tracer.span(
                "synthesis",
                "LogLinearSynthesizer::synthesize",
                Some(id),
                &trace,
                |_| {
                    LogLinearSynthesizer::new("moi", LogLinearFit::from_coefficients(2.0, 1.0, 1.0))
                        .outcomes("lysis", "lysogeny")
                        .outputs("cro2", "ci2")
                        .thresholds(1, 1)
                        .food(1, 1)
                        .input_total(8)
                        .input_range(1, 4)
                        .synthesize()
                        .map_err(|e| e.to_string())
                },
                |_| Vec::new(),
            )?;
            totals.synthesis_ms += ms(synth_started.elapsed());
            totals.call(Part::PaperScale, "synthesize", 0, synth_started);
            for (i, (x, golden)) in SYNTH_GOLDENS.into_iter().enumerate() {
                let exact_started = Instant::now();
                let analysis = tracer.span(
                    "cme",
                    "SynthesizedResponse::exact_outcome_analysis",
                    Some(id),
                    &trace,
                    |_| {
                        synthesized
                            .exact_outcome_analysis(x, &synthesized.exact_bounds(x))
                            .map_err(|e| e.to_string())
                    },
                    |_| Vec::new(),
                )?;
                totals.call(Part::PaperScale, "exact", i, exact_started);
                let lysis = analysis.probability("lysis");
                phase.attempted += 1;
                phase.check((lysis - golden).abs() <= 1e-9, || {
                    format!("synthesis x={x}: exact {lysis:.12} vs golden {golden:.12}")
                });
            }
            Ok(())
        },
        |_| Vec::new(),
    )?;
    let scale = scale_started.elapsed();
    let total = started.elapsed();
    tracer.push(SpanRecord {
        id: root,
        parent: None,
        layer: "bench",
        name: "batch".to_string(),
        trace,
        start_ns: batch_start_ns,
        end_ns: tracer.now_ns(),
        attrs: Vec::new(),
    });
    totals.batch_ms.push(ms(total));
    totals.fig5_ms.push(ms(fig5));
    totals.rest_ms.push(ms(rest));
    totals.scale_ms.push(ms(scale));
    totals.batches += 1;
    Ok(())
}

/// Sampling allowance, in standard deviations of the pooled estimate, added
/// to each `tests/lambda.rs` bound: the tests pin one seed, while every run
/// here draws new trajectories. At 3, a point sitting exactly on its bound
/// would fail one run in about 740; the measured points sit well inside.
const Z: f64 = 3.0;

/// `k/n` lies within `bound` of `p`, plus the sampling allowance.
fn within(k: u64, n: u64, p: f64, bound: f64) -> bool {
    let sd = (p * (1.0 - p) / n as f64).sqrt();
    (k as f64 / n as f64 - p).abs() <= bound + Z * sd
}

/// The Fig. 5 checks of `tests/lambda.rs`, on the run's pooled curves.
fn check_figure5(totals: &RunTotals, eq14_model: &SyntheticLambdaModel, phase: &mut Phase) {
    let p = |pooled: &Pooled, i: usize| pooled[i].0 as f64 / pooled[i].1 as f64;
    let sd = |pooled: &Pooled, i: usize| {
        let q = p(pooled, i);
        (q * (1.0 - q) / pooled[i].1 as f64).sqrt()
    };
    let eq14 = lambda::equation_14();
    let [natural, fit, eq14_direct, eq14_auto] = &totals.pooled;
    // Natural surrogate: increasing, ≈15 % at MOI 1, ≈37 % at MOI 10,
    // every point within 0.12 of Eq. 14.
    phase.check(
        p(natural, 0) < p(natural, 3) && p(natural, 3) < p(natural, 9),
        || format!("natural response not increasing: {natural:?}"),
    );
    phase.check(within(natural[0].0, natural[0].1, 0.15, 0.08), || {
        format!("natural MOI 1 response {}", p(natural, 0))
    });
    phase.check(within(natural[9].0, natural[9].1, 0.37, 0.10), || {
        format!("natural MOI 10 response {}", p(natural, 9))
    });
    for (i, &moi) in MOI.iter().enumerate() {
        let predicted = eq14.evaluate(moi as f64) / 100.0;
        phase.check(within(natural[i].0, natural[i].1, predicted, 0.12), || {
            format!("natural MOI {moi}: {} vs Eq. 14 {predicted}", p(natural, i))
        });
        // Synthesized from the fit tracks the natural curve within 0.15.
        let gap = (p(fit, i) - p(natural, i)).abs();
        let gap_sd = sd(fit, i).hypot(sd(natural, i));
        phase.check(gap <= 0.15 + Z * gap_sd, || {
            format!(
                "MOI {moi}: synthetic(fit) {} vs natural {}",
                p(fit, i),
                p(natural, i)
            )
        });
        // Synthesized from Eq. 14 tracks its own target within 0.1, under
        // Direct and under whatever `auto` picks.
        let predicted = eq14_model.predicted_probability(moi);
        for (label, pooled) in [("Direct", eq14_direct), ("auto", eq14_auto)] {
            let (k, n) = pooled[i];
            phase.check(within(k, n, predicted, 0.10), || {
                format!(
                    "MOI {moi}: synthetic(Eq14) under {label} {} vs predicted {predicted}",
                    p(pooled, i)
                )
            });
        }
    }
}

/// One timed set-up: every model of the batch, then the pilot batch.
fn timed_setup(setup_s: &mut Vec<f64>) -> Result<Models, String> {
    let started = Instant::now();
    let models = setup()?;
    let untraced = Tracer::new(false);
    let pilot = Ctx {
        tracer: &untraced,
        engine: std::sync::Mutex::new(EngineTotals::default()),
    };
    let (mut totals, mut phase) = (RunTotals::default(), Phase::default());
    batch(
        &pilot,
        &models,
        &PILOT,
        PILOT_SEED,
        0,
        &mut totals,
        &mut phase,
    )
    .map_err(|e| format!("set-up pilot batch: {e}"))?;
    setup_s.push(started.elapsed().as_secs_f64());
    Ok(models)
}

/// Runs the workload for `seconds` (and at least [`MIN_BATCHES`] batches).
pub fn run(run_seed: u64, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut models = timed_setup(&mut phase.setup_s)?;
    let ctx = Ctx {
        tracer,
        engine: std::sync::Mutex::new(EngineTotals::default()),
    };
    let mut totals = RunTotals::default();
    // Batches measure `seconds` between them; the set-ups do not count.
    let mut deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while totals.batches < MIN_BATCHES || Instant::now() < deadline {
        if totals.batches > 0 && phase.setup_s.len() < SETUP_REPEATS {
            let started = Instant::now();
            models = timed_setup(&mut phase.setup_s)?;
            deadline += started.elapsed();
        }
        let index = totals.batches;
        if let Err(e) = batch(
            &ctx,
            &models,
            &FULL,
            run_seed,
            index,
            &mut totals,
            &mut phase,
        ) {
            phase.attempted += 1;
            phase.fail(format!("batch {index}: {e}"));
            break;
        }
    }
    while phase.setup_s.len() < SETUP_REPEATS {
        models = timed_setup(&mut phase.setup_s)?;
    }
    if totals.batches >= MIN_BATCHES {
        check_figure5(&totals, &models.eq14, &mut phase);
    }

    let n = totals.batch_ms.len();
    let setup = Metric::new("setup_s", median(&phase.setup_s), "s", phase.setup_s.len());
    let batch_ms = totals.fastest_ms(None);
    let throughput = Metric::new(
        "throughput_ops",
        OPS_PER_BATCH as f64 / (batch_ms / 1e3),
        "1/s",
        n * OPS_PER_BATCH as usize,
    );
    let part = |name: &str, part: Part| Metric::new(name, totals.fastest_ms(Some(part)), "ms", n);
    phase.end_to_end = vec![
        setup.clone(),
        throughput.clone(),
        Metric::new("primary_ms", batch_ms, "ms", n),
        part("secondary_ms", Part::Figure5),
        part("tertiary_ms", Part::Examples),
        part("quaternary_ms", Part::PaperScale),
    ];
    // The gated figures are the quiet-machine sums; the medians of the
    // batches' own wall times are printed beside them.
    let wall = |name: &str, samples: &[f64]| Metric::new(name, median(samples) / 1e3, "s", n);
    phase.report = phase.end_to_end.clone();
    phase.report.extend([
        wall("batch_s", &totals.batch_ms),
        wall("figure5_s", &totals.fig5_ms),
        wall("examples_fig3_s", &totals.rest_ms),
        wall("paper_scale_s", &totals.scale_ms),
    ]);

    if tracer.enabled() {
        let engine = ctx.engine.into_inner().expect("engine totals poisoned");
        let batch_total_s: f64 = totals.batch_ms.iter().sum::<f64>() / 1e3;
        let capacity_ns = THREADS as f64 * engine.fanout_wall_ns as f64;
        let idle_share = if capacity_ns > 0.0 {
            1.0 - engine.busy_ns as f64 / capacity_ns
        } else {
            0.0
        };
        // Ensemble ranges only (Fig. 3's error trials report no steps).
        let ns_per_step = |kind: StepperKind| {
            let (busy, steps) = engine.per_kind.get(kind.name()).copied().unwrap_or((0, 0));
            Metric::new(
                format!("gillespie.ns_per_step.{}", kind.name().replace('-', "_")),
                busy as f64 / steps.max(1) as f64,
                "ns",
                n,
            )
        };
        // The synthesized networks' sweeps: from the fit, and from Eq. 14 under
        // Direct and under `auto`.
        let synthetic_s = totals.sweep_s[1] + totals.sweep_s[2] + totals.sweep_s[3];
        let per_batch = |total: f64| total / totals.batches.max(1) as f64;
        phase.layers = vec![
            Metric::new("gillespie.steps", engine.profile.steps as f64, "count", n),
            Metric::new(
                "gillespie.propensity_evals",
                engine.profile.propensity_evals as f64,
                "count",
                n,
            ),
            Metric::new(
                "gillespie.leaps_accepted",
                engine.profile.leaps_accepted as f64,
                "count",
                n,
            ),
            Metric::new(
                "gillespie.leaps_rejected",
                engine.profile.leaps_rejected as f64,
                "count",
                n,
            ),
            ns_per_step(StepperKind::Direct),
            ns_per_step(StepperKind::TauLeaping),
            Metric::new("gillespie.fanout_idle_share", idle_share, "ratio", n),
            Metric::new(
                "gillespie.engine_share",
                engine.fanout_wall_ns as f64 / 1e9 / batch_total_s,
                "ratio",
                n,
            ),
            Metric::new(
                "gillespie.merge_us",
                median(&engine.merge_us),
                "us",
                engine.merge_us.len(),
            ),
            Metric::new(
                "synthesis.build_ms",
                per_batch(totals.synthesis_ms),
                "ms",
                n,
            ),
            Metric::new(
                "lambda.sweep_s.natural",
                per_batch(totals.sweep_s[0]),
                "s",
                n,
            ),
            Metric::new(
                "lambda.sweep_s.synthetic_fit",
                per_batch(totals.sweep_s[1]),
                "s",
                n,
            ),
            Metric::new("lambda.sweep_s.eq14", per_batch(totals.sweep_s[2]), "s", n),
            Metric::new(
                "lambda.sweep_s.eq14_auto",
                per_batch(totals.sweep_s[3]),
                "s",
                n,
            ),
            Metric::new(
                "lambda.synthetic_share",
                synthetic_s / batch_total_s,
                "ratio",
                n,
            ),
        ];
        let ex1 = totals
            .last_ex1
            .as_ref()
            .ok_or("no Example 1 report to replay")?;
        let (gamma, check_value) = totals.last_check.ok_or("no race check to replay")?;
        let (metrics, mismatches) = replay::paper_bodies(
            tracer,
            &models_bodies(&models)?,
            ex1,
            &check_body(gamma)?,
            check_value,
        )?;
        for mismatch in mismatches {
            phase.attempted += 1;
            phase.fail(mismatch);
        }
        // The batch's own numbers take precedence: the replays add the
        // service and CME layers and the classifier's choices.
        for metric in metrics {
            if phase.layers.iter().all(|m| m.name != metric.name) {
                phase.layers.push(metric);
            }
        }
    }
    Ok(phase)
}

/// The batch's ensembles as `/simulate` bodies with `"method":"auto"`:
/// Example 1, Example 2's first point and the Eq. 14 network at every MOI
/// at the trials of the batch's `auto` sweep.
fn models_bodies(models: &Models) -> Result<Vec<String>, String> {
    let (_, _, ex2_initial, _) = &models.ex2_points[0];
    let mut bodies = vec![
        replay::simulate_body(
            models.ex1.crn(),
            &models.ex1_initial,
            &models.ex1.classifier().map_err(|e| e.to_string())?,
            &models.ex1.simulation_options(),
            "auto",
            FULL.ex1,
            0,
        )?,
        replay::simulate_body(
            &models.ex2_crn,
            ex2_initial,
            &models.ex2_module.classifier().map_err(|e| e.to_string())?,
            &models.ex2_module.simulation_options(),
            "auto",
            FULL.ex2,
            0,
        )?,
    ];
    for moi in MOI {
        bodies.push(replay::simulate_body(
            models.eq14.crn(),
            &models.eq14.initial_state(moi).map_err(|e| e.to_string())?,
            &models.eq14.classifier().map_err(|e| e.to_string())?,
            &models.eq14.simulation_options(),
            "auto",
            FULL.auto_lambda,
            0,
        )?);
    }
    Ok(bodies)
}
