//! Layer replays for the traced run.
//!
//! Each distinct request body a workload sent is replayed once, outside the
//! timed loop, through the same public functions the daemon calls:
//! `json::parse` → `api::*Request::parse` (network parse and, for `auto`,
//! the classifier's pilot) → `cache_key` → `ResultCache` → the engine's
//! `run_range_profiled` over the service's chunking → `Ensemble::merge` →
//! `render_report`, and for `/check` the CME's `StateSpace`,
//! `GeneratorMatrix` and `Checker`. Every call runs under a span, and the
//! replayed bodies are compared with what the daemon served.

use std::collections::BTreeMap;
use std::time::Instant;

use cme::{Checker, GeneratorMatrix, StateSpace};
use crn::{Crn, State};
use gillespie::engine::CancelToken;
use gillespie::{
    EnsembleReport, SimProfile, SimulationOptions, SpeciesThresholdClassifier, StepperKind,
    StopCondition,
};
use service::api::{CheckProperty, CheckRequest, ExactRequest, SimulateRequest};
use service::json::{self, Json};
use service::ResultCache;

use crate::common::{median, Metric};
use crate::trace::{SpanRecord, Tracer};

/// Renders a `/simulate` body for a network, its initial state, classifier
/// rules and stop condition.
pub fn simulate_body(
    crn: &Crn,
    initial: &State,
    classifier: &SpeciesThresholdClassifier,
    simulation: &SimulationOptions,
    method: &str,
    trials: u64,
    seed: u64,
) -> Result<String, String> {
    let initial_counts: Vec<(String, Json)> = crn
        .species()
        .iter()
        .filter(|s| initial.count(s.id()) > 0)
        .map(|s| (s.name().to_string(), Json::count(initial.count(s.id()))))
        .collect();
    let rules: Vec<Json> = classifier
        .rules()
        .iter()
        .map(|rule| {
            Json::object([
                ("species", Json::str(crn.species_name(rule.species))),
                ("at_least", Json::count(rule.threshold)),
                ("outcome", Json::str(rule.outcome.as_str())),
            ])
        })
        .collect();
    Ok(Json::object([
        ("network", Json::str(crn.to_text())),
        ("initial", Json::Object(initial_counts)),
        ("method", Json::str(method)),
        ("trials", Json::count(trials)),
        ("seed", Json::count(seed)),
        ("stop", stop_json(crn, simulation.stop_condition())?),
        ("classifier", Json::Array(rules)),
        ("wait", Json::Bool(true)),
    ])
    .render())
}

fn stop_json(crn: &Crn, stop: &StopCondition) -> Result<Json, String> {
    let nested = |kind: &'static str, conditions: &[StopCondition]| {
        Ok(Json::object([
            ("type", Json::str(kind)),
            (
                "conditions",
                Json::Array(
                    conditions
                        .iter()
                        .map(|c| stop_json(crn, c))
                        .collect::<Result<_, _>>()?,
                ),
            ),
        ]))
    };
    let species = |kind: &'static str, id, count| {
        Json::object([
            ("type", Json::str(kind)),
            ("species", Json::str(crn.species_name(id))),
            ("count", Json::count(count)),
        ])
    };
    match stop {
        StopCondition::Exhaustion => Ok(Json::object([("type", Json::str("exhaustion"))])),
        StopCondition::Time(t) => Ok(Json::object([
            ("type", Json::str("time")),
            ("t", Json::num(*t)),
        ])),
        StopCondition::Events(n) => Ok(Json::object([
            ("type", Json::str("events")),
            ("n", Json::count(*n)),
        ])),
        StopCondition::SpeciesAtLeast { species: id, count } => {
            Ok(species("species_at_least", *id, *count))
        }
        StopCondition::SpeciesAtMost { species: id, count } => {
            Ok(species("species_at_most", *id, *count))
        }
        StopCondition::AnyOf(conditions) => nested("any_of", conditions),
        StopCondition::AllOf(conditions) => nested("all_of", conditions),
        other => Err(format!(
            "no /simulate wire form for the stop condition {other:?}"
        )),
    }
}

/// The spans of one replayed body: its root span and trace id.
struct Scope<'a> {
    tracer: &'a Tracer,
    root: u64,
    trace: String,
    start_ns: u64,
}

impl<'a> Scope<'a> {
    fn new(tracer: &'a Tracer, index: u64) -> Scope<'a> {
        Scope {
            tracer,
            root: tracer.new_id(),
            trace: format!("replay-{index}"),
            start_ns: tracer.now_ns(),
        }
    }

    /// Runs `f` under a span below the root.
    fn span<T>(&self, layer: &'static str, function: &str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(
            layer,
            function,
            Some(self.root),
            &self.trace,
            |_| f(),
            |_| Vec::new(),
        )
    }

    /// Records the root span.
    fn finish(self, name: &str) {
        self.tracer.push(SpanRecord {
            id: self.root,
            parent: None,
            layer: "bench",
            name: name.to_string(),
            trace: self.trace,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            attrs: Vec::new(),
        });
    }
}

/// Per-layer samples gathered over the replays.
#[derive(Debug, Default)]
pub struct Replays {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// `(busy ns, steps)` per resolved stepper kind.
    steps: BTreeMap<&'static str, (u64, u64)>,
    /// Replayed bodies that differ from what the daemon served.
    pub mismatches: Vec<String>,
    replayed: u64,
}

impl Replays {
    fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn scope<'a>(&mut self, tracer: &'a Tracer) -> Scope<'a> {
        self.replayed += 1;
        Scope::new(tracer, self.replayed)
    }

    /// Runs `f` under a span and records its duration, in microseconds,
    /// as a sample of `metric`.
    fn timed<T>(
        &mut self,
        at: &Scope<'_>,
        layer: &'static str,
        function: &str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let value = at.span(layer, function, f);
        self.add(metric, started.elapsed().as_secs_f64() * 1e6);
        value
    }

    /// Medians of every sampled layer metric, plus ns per step per kind.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = self
            .samples
            .iter()
            .map(|(name, values)| {
                let (scale, unit) = if name.ends_with("_ms") {
                    (1e-3, "ms")
                } else if name.ends_with("_us") {
                    (1.0, "us")
                } else {
                    (1.0, "count")
                };
                Metric::new(*name, median(values) * scale, unit, values.len())
            })
            .collect();
        for (kind, (ns, steps)) in &self.steps {
            let name = match *kind {
                "direct" => "gillespie.ns_per_step.direct",
                "tau-leaping" => "gillespie.ns_per_step.tau_leaping",
                _ => continue,
            };
            out.push(Metric::new(
                name,
                *ns as f64 / (*steps).max(1) as f64,
                "ns",
                1,
            ));
        }
        out
    }

    /// Replays one `/simulate` body through parse, network parse, classify,
    /// key and cache lookup; given the bytes the daemon `served`, also the
    /// ensemble over the daemon's chunking (4 chunks per scheduler worker),
    /// merge and render, which must reproduce them.
    pub fn simulate(
        &mut self,
        tracer: &Tracer,
        body: &str,
        served: Option<&str>,
        cache: &ResultCache,
    ) -> Result<SimulateRequest, String> {
        let at = self.scope(tracer);
        let parsed = self.timed(
            &at,
            "service",
            "json::parse",
            "service.json_parse_us",
            || json::parse(body),
        )?;
        let request = self
            .timed(
                &at,
                "service",
                "SimulateRequest::parse",
                "service.api_parse_us",
                || SimulateRequest::parse(&parsed),
            )
            .map_err(|e| e.to_string())?;
        let network = parsed
            .get("network")
            .and_then(|n| n.as_str("network").ok())
            .unwrap_or_default();
        self.timed(&at, "crn", "parse_network", "crn.parse_us", || {
            crn::parse_network(network)
        })
        .map_err(|e| e.to_string())?;
        if request.method == StepperKind::Auto {
            self.timed(
                &at,
                "gillespie",
                "classify",
                "gillespie.classify_us",
                || gillespie::classify(&request.crn, &request.initial),
            );
        }
        let key = self.timed(&at, "service", "cache_key", "service.cache_key_us", || {
            request.cache_key()
        });
        self.timed(
            &at,
            "service",
            "ResultCache::lookup",
            "service.cache_lookup_us",
            || cache.lookup(&key),
        );
        if let Some(served) = served {
            let report = self.ensemble(&at, &request)?;
            let rendered = self.timed(&at, "service", "render_report", "service.render_us", || {
                request.render_report(&report)
            });
            cache.insert(&key, &rendered);
            if served != rendered {
                self.mismatches
                    .push(format!("replayed /simulate differs from served: {key:.80}"));
            }
        }
        at.finish("replay /simulate");
        Ok(request)
    }

    /// Runs the request's ensemble under its resolved stepper over the
    /// daemon's chunks, one `run_range_profiled` span per chunk, then
    /// merges.
    fn ensemble(
        &mut self,
        at: &Scope<'_>,
        request: &SimulateRequest,
    ) -> Result<EnsembleReport, String> {
        let kind = request.resolved;
        let classifier = request.classifier().map_err(|e| e.to_string())?;
        let ensemble = gillespie::Ensemble::new(&request.crn, request.initial.clone(), classifier)
            .options(request.ensemble_options().method(kind));
        let chunks = (crate::traffic::WORKERS as u64 * 4).clamp(1, request.trials);
        let chunk = request.trials.div_ceil(chunks);
        let cancel = CancelToken::new();
        let mut partials = Vec::new();
        for start in (0..request.trials).step_by(chunk as usize) {
            let end = (start + chunk).min(request.trials);
            let mut profile = SimProfile::default();
            let started = Instant::now();
            let partial = at.span("gillespie", "Ensemble::run_range_profiled", || {
                ensemble.run_range_profiled(start, end, &cancel, &mut profile)
            });
            let busy = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            partials.push(partial.map_err(|e| e.to_string())?);
            let slot = self.steps.entry(kind.name()).or_insert((0, 0));
            slot.0 += busy;
            slot.1 += profile.steps;
        }
        self.timed(
            at,
            "gillespie",
            "Ensemble::merge",
            "gillespie.merge_us",
            || ensemble.merge(partials),
        )
        .map_err(|e| e.to_string())
    }

    /// Replays one single-point `reach_before` `/check` body through the
    /// CME layers and compares the served `value` with an in-process
    /// `Checker` to 1e-9.
    pub fn check(&mut self, tracer: &Tracer, body: &str, served_value: f64) -> Result<(), String> {
        let at = self.scope(tracer);
        let request = at.span("service", "CheckRequest::parse", || {
            CheckRequest::parse(&json::parse(body)?).map_err(|e| e.to_string())
        })?;
        let point = request.points.first().ok_or("a /check without points")?;
        let CheckProperty::ReachBefore { target, competitor } = &point.property else {
            return Err("only reach_before checks are replayed".to_string());
        };
        let id = |name: &str| {
            point
                .crn
                .species_id(name)
                .ok_or(format!("no species `{name}`"))
        };
        let (a, b) = (id(&target.species)?, id(&competitor.species)?);
        let started = Instant::now();
        let space = self
            .timed(
                &at,
                "cme",
                "StateSpace::enumerate_absorbing",
                "cme.enumerate_ms",
                || {
                    StateSpace::enumerate_absorbing(
                        &point.crn,
                        &point.initial,
                        &point.bounds,
                        |s| s.count(a) >= target.at_least || s.count(b) >= competitor.at_least,
                    )
                },
            )
            .map_err(|e| e.to_string())?;
        let enumerate_us = started.elapsed().as_secs_f64() * 1e6;
        let generator = self.timed(
            &at,
            "cme",
            "GeneratorMatrix::from_space",
            "cme.generator_ms",
            || GeneratorMatrix::from_space(&space),
        );
        self.add("cme.states", space.len() as f64);
        self.add("cme.nnz", generator.nnz() as f64);
        // The race is solved on the state space directly: the checker's
        // wall time minus an enumeration is the solve.
        let started = Instant::now();
        let verdict = at
            .span("cme", "Checker::reach_before_species", || {
                Checker::new(&point.crn, point.initial.clone(), point.bounds.clone())
                    .reach_before_species(
                        (&target.species, target.at_least),
                        (&competitor.species, competitor.at_least),
                    )
            })
            .map_err(|e| e.to_string())?;
        let checker_us = started.elapsed().as_secs_f64() * 1e6;
        self.add("cme.solve_ms", (checker_us - enumerate_us).max(0.0));
        if (verdict.target - served_value).abs() > 1e-9 {
            self.mismatches.push(format!(
                "/check served {served_value} but the in-process Checker gives {}",
                verdict.target
            ));
        }
        at.finish("replay /check");
        Ok(())
    }

    /// Replays one `/exact` body; the rendered result must equal `served`.
    pub fn exact(&mut self, tracer: &Tracer, body: &str, served: &str) -> Result<(), String> {
        let at = self.scope(tracer);
        let request = at.span("service", "ExactRequest::parse", || {
            ExactRequest::parse(&json::parse(body)?).map_err(|e| e.to_string())
        })?;
        let rendered = at
            .span("cme", "ExactRequest::execute", || request.execute())
            .map_err(|e| e.to_string())?;
        if rendered != served {
            self.mismatches
                .push("replayed /exact differs from served".to_string());
        }
        at.finish("replay /exact");
        Ok(())
    }
}

/// The paper batch's replay: its ensembles as `/simulate` bodies through
/// the service's parse, classify, key and cache layers, the first body's
/// `report` (Example 1, from the batch) through the renderer, and the
/// batch's race check as a `/check` body through the CME layers, which must
/// reproduce `check_value`. Returns the layer metrics and any mismatch.
pub fn paper_bodies(
    tracer: &Tracer,
    bodies: &[String],
    report: &EnsembleReport,
    check_body: &str,
    check_value: f64,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut replays = Replays::default();
    let cache = ResultCache::new(256);
    let mut resolved_tau = 0u64;
    for (i, body) in bodies.iter().enumerate() {
        let request = replays.simulate(tracer, body, None, &cache)?;
        resolved_tau += u64::from(request.resolved == StepperKind::TauLeaping);
        if i == 0 {
            let at = replays.scope(tracer);
            let rendered =
                replays.timed(&at, "service", "render_report", "service.render_us", || {
                    request.render_report(report)
                });
            std::hint::black_box(rendered);
            at.finish("replay render");
        }
    }
    replays.check(tracer, check_body, check_value)?;
    let mut metrics = replays.metrics();
    metrics.push(Metric::new(
        "gillespie.auto_tau_share",
        resolved_tau as f64 / bodies.len() as f64,
        "ratio",
        bodies.len(),
    ));
    Ok((metrics, std::mem::take(&mut replays.mismatches)))
}
