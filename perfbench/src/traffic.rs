//! `service_light`: a closed loop of 2 clients against one in-process
//! `service::serve()` daemon with the stock configuration (2 scheduler
//! workers, 256-entry result cache).
//!
//! Each client sends its next request only after the previous reply, with
//! `service::Client` (one connection per request, as the CLI and the fabric
//! use it), so a slower daemon receives less load. Latency is kept per
//! request class and never pooled across classes.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cme::{Checker, FirstPassage, PopulationBounds};
use service::json::{self, Json};
use service::{serve, Client, HttpReply, ResultCache, ServiceConfig, ServiceHandle};
use synthesis::{StochasticModule, TargetDistribution};

use crate::common::{binomial_ok, median, mix, quantile, Metric, Phase, Rng, Samples};
use crate::replay::{simulate_body, Replays};
use crate::trace::{SpanRecord, Tracer};

/// Scheduler workers of the daemon (the stock default on 2 cores).
pub const WORKERS: usize = 2;
/// Closed-loop clients, each with at most one connection open at a time.
const CLIENTS: usize = 2;
/// The timed loop runs in this many equal segments on the same daemon.
/// Before each, set-ups are timed on daemons of their own, so `setup_s`
/// samples the machine over the whole run, as the loop does.
const SEGMENTS: usize = 5;
/// Set-ups timed before each segment; `setup_s` is the median of all
/// `SEGMENTS × SETUPS_PER_SEGMENT`. The last one before the first segment
/// starts the daemon the loop runs on.
const SETUPS_PER_SEGMENT: usize = 5;
/// Trial `i` of a `/simulate` uses seed `seed + i`; fresh requests step
/// their seed by this much, more than any request's trial count, so no two
/// requests share a trajectory.
const SEED_STRIDE: u64 = 1_024;
/// Example 1 `/simulate` trials in `service_light`.
const LIGHT_TRIALS: u64 = 100;
/// Replay window per client: far smaller than the 256-entry cache, so every
/// replay is a hit.
const WINDOW: usize = 16;
/// Most recent jobs whose `/trace` span trees are read after a traced loop
/// (the daemon's trace ring holds 4096 spans).
const TRACED_JOBS: u64 = 250;
/// Distinct bodies replayed per request class in a traced run.
const REPLAYS_PER_CLASS: usize = 10;
/// The loop's time is cut into windows of this length (or of one segment,
/// if shorter); the gated figures are taken over the windows (see
/// [`QUIET`]).
const WINDOW_S: f64 = 1.0;
/// A class's latency in a window counts when the window holds at least
/// this many of its requests.
const MIN_PER_WINDOW: usize = 20;

/// Request classes; latency is reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// `/simulate` replay of a recent body (a cache hit).
    Hit,
    /// `/simulate` with a fresh seed (a cache miss).
    Simulate,
    Check,
    Exact,
}

impl Class {
    fn path(self) -> &'static str {
        match self {
            Class::Hit | Class::Simulate => "/simulate",
            Class::Check => "/check",
            Class::Exact => "/exact",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Simulate => "simulate",
            Class::Check => "check",
            Class::Exact => "exact",
        }
    }
}

/// One request as sent, with what its reply must satisfy.
#[derive(Debug, Clone)]
struct Sent {
    class: Class,
    body: String,
    /// Expected probability (`/check`, `/exact`) or trials (`/simulate`).
    expect: f64,
    /// The served reply body; for a replay, the bytes it must repeat.
    reply: String,
}

/// Inputs shared by both clients, built during set-up.
struct Models {
    ex1: StochasticModule,
    ex1_initial: crn::State,
}

fn models() -> Result<Models, String> {
    let ex1 = StochasticModule::builder()
        .outcomes(["d1", "d2", "d3"])
        .gamma(1_000.0)
        .input_total(100)
        .build()
        .map_err(|e| e.to_string())?;
    let target = TargetDistribution::new(vec![0.3, 0.4, 0.3]).map_err(|e| e.to_string())?;
    let ex1_initial = ex1.initial_state(&target).map_err(|e| e.to_string())?;
    Ok(Models { ex1, ex1_initial })
}

/// A client's request generator and replay window.
struct ClientState {
    rng: Rng,
    /// Base of this client's fresh `/simulate` seeds (below 2^53, so they
    /// survive the daemon's JSON numbers exactly).
    seed_base: u64,
    fresh: u64,
    /// `(body, served bytes)` of this client's recent fresh `/simulate`s.
    window: VecDeque<(String, String)>,
    /// Classes still to send in the current cycle of the mix.
    deck: Vec<Class>,
    client: usize,
}

impl ClientState {
    fn new(run_seed: u64, client: usize) -> ClientState {
        ClientState {
            rng: Rng::new(run_seed ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
            seed_base: (mix(run_seed.wrapping_add(client as u64)) & 0xF_FFFF) << 30,
            fresh: 0,
            window: VecDeque::new(),
            deck: Vec::new(),
            client,
        }
    }

    /// A unique index for this client's next fresh request of any class.
    fn next_index(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh * CLIENTS as u64 + self.client as u64
    }

    fn light_simulate(&mut self, models: &Models) -> Result<Sent, String> {
        let seed = self.seed_base + self.next_index() * SEED_STRIDE;
        let body = simulate_body(
            models.ex1.crn(),
            &models.ex1_initial,
            &models.ex1.classifier().map_err(|e| e.to_string())?,
            &models.ex1.simulation_options(),
            "auto",
            LIGHT_TRIALS,
            seed,
        )?;
        Ok(sent(Class::Simulate, body, LIGHT_TRIALS as f64))
    }

    /// A biased-coin race `x -> h @ a`, `x -> t @ 1`: P(h first) = a/(a+1).
    /// Every request uses a new rate, so it is computed, not replayed.
    fn coin_rate(&mut self) -> f64 {
        1.0 + self.next_index() as f64 / 1_024.0
    }

    fn light_check(&mut self) -> Sent {
        let a = self.coin_rate();
        let body = format!(
            "{{\"network\":\"x -> h @ {a}\\nx -> t @ 1\",\"initial\":{{\"x\":1}},\
             \"bounds\":{{\"policy\":\"strict\",\"default_cap\":1}},\
             \"property\":{{\"type\":\"reach_before\",\
             \"target\":{{\"species\":\"h\",\"at_least\":1}},\
             \"competitor\":{{\"species\":\"t\",\"at_least\":1}}}},\"wait\":true}}"
        );
        sent(Class::Check, body, a / (a + 1.0))
    }

    fn light_exact(&mut self) -> Sent {
        let a = self.coin_rate();
        let body = format!(
            "{{\"network\":\"x -> heads @ {a}\\nx -> tails @ 1\",\"initial\":{{\"x\":1}},\
             \"bounds\":{{\"policy\":\"strict\",\"default_cap\":1}},\
             \"analysis\":{{\"type\":\"first_passage\",\"outcomes\":[\
             {{\"name\":\"heads\",\"species\":\"heads\",\"at_least\":1}},\
             {{\"name\":\"tails\",\"species\":\"tails\",\"at_least\":1}}]}},\"wait\":true}}"
        );
        sent(Class::Exact, body, a / (a + 1.0))
    }

    /// The next request. Classes are dealt from a shuffled deck holding
    /// the workload's exact mix, so every run sends the same proportions.
    fn next(&mut self, models: &Models) -> Result<Sent, String> {
        if self.deck.is_empty() {
            self.deck = [
                (Class::Hit, 5),
                (Class::Simulate, 3),
                (Class::Check, 1),
                (Class::Exact, 1),
            ]
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        match self.deck.pop().expect("the deck was just dealt") {
            Class::Hit => {
                let pick = self.rng.below(self.window.len() as u64) as usize;
                let (body, served) = self.window[pick].clone();
                let mut s = sent(Class::Hit, body, LIGHT_TRIALS as f64);
                s.reply = served;
                Ok(s)
            }
            Class::Simulate => self.light_simulate(models),
            Class::Check => Ok(self.light_check()),
            Class::Exact => Ok(self.light_exact()),
        }
    }
}

fn sent(class: Class, body: String, expect: f64) -> Sent {
    Sent {
        class,
        body,
        expect,
        reply: String::new(),
    }
}

fn field<'a>(value: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut at = value;
    for key in path {
        at = at
            .get(key)
            .ok_or_else(|| format!("reply lacks `{}`", path.join(".")))?;
    }
    Ok(at)
}

fn number(value: &Json, path: &[&str]) -> Result<f64, String> {
    field(value, path)?.as_f64(path.last().copied().unwrap_or(""))
}

/// Checks one successful reply. Fresh `/simulate` replies join the
/// client's replay window.
fn verify(
    state: &mut ClientState,
    request: &Sent,
    reply: &HttpReply,
    ex1_counts: &mut [u64; 3],
) -> Result<(), String> {
    let expected_cache = if request.class == Class::Hit {
        "hit"
    } else {
        "miss"
    };
    if reply.header("cache") != Some(expected_cache) {
        return Err(format!(
            "{} reply has cache {:?}, planned {expected_cache}",
            request.class.name(),
            reply.header("cache")
        ));
    }
    let body = reply.json()?;
    match request.class {
        Class::Hit => {
            if reply.body != request.reply {
                return Err("cache hit differs from the reply it replays".to_string());
            }
        }
        Class::Simulate => {
            let counts = field(&body, &["report", "counts"])?.as_object("counts")?;
            let decided: f64 = counts
                .iter()
                .map(|(_, c)| c.as_f64("count"))
                .sum::<Result<f64, String>>()?;
            let undecided = number(&body, &["report", "undecided"])?;
            if decided + undecided != request.expect {
                return Err(format!(
                    "outcome counts {decided} + undecided {undecided} != trials {}",
                    request.expect
                ));
            }
            for (slot, name) in ["d1", "d2", "d3"].iter().enumerate() {
                ex1_counts[slot] += number(&body, &["report", "counts", name])? as u64;
            }
            state
                .window
                .push_back((request.body.clone(), reply.body.clone()));
            if state.window.len() > WINDOW {
                state.window.pop_front();
            }
        }
        Class::Check | Class::Exact => {
            let value = match request.class {
                Class::Check => number(&body, &["value"])?,
                _ => number(&body, &["probabilities", "heads"])?,
            };
            // The analytic race and the in-process CME must both agree.
            let a = request.expect / (1.0 - request.expect);
            let crn: crn::Crn = format!("x -> h @ {a}\nx -> t @ 1")
                .parse()
                .map_err(|e: crn::CrnError| e.to_string())?;
            let initial = crn
                .state_from_counts([("x", 1)])
                .map_err(|e| e.to_string())?;
            let local = if request.class == Class::Check {
                Checker::new(&crn, initial, PopulationBounds::strict(1))
                    .reach_before_species(("h", 1), ("t", 1))
                    .map_err(|e| e.to_string())?
                    .target
            } else {
                FirstPassage::new(&crn)
                    .outcome_species_at_least("heads", "h", 1)
                    .map_err(|e| e.to_string())?
                    .outcome_species_at_least("tails", "t", 1)
                    .map_err(|e| e.to_string())?
                    .solve(&initial, &PopulationBounds::strict(1))
                    .map_err(|e| e.to_string())?
                    .probability("heads")
            };
            if (value - request.expect).abs() > 1e-9 || (value - local).abs() > 1e-9 {
                return Err(format!(
                    "{} served {value}, analytic {}, in-process {local}",
                    request.class.name(),
                    request.expect
                ));
            }
        }
    }
    Ok(())
}

/// What one client did in the timed loop.
#[derive(Default)]
struct ClientRun {
    latency: BTreeMap<Class, Samples>,
    /// `(window, class, latency ms)` of every successful request that
    /// completed inside a whole window.
    windowed: Vec<(usize, Class, f64)>,
    attempted: u64,
    failed: Vec<String>,
    sent: BTreeMap<Class, u64>,
    rtt_us: f64,
    /// Bodies and replies kept for verification and replays.
    kept: Vec<Sent>,
    kept_per_class: BTreeMap<Class, usize>,
    ex1_counts: [u64; 3],
}

/// The timed span of one loop segment and the windows it is cut into.
#[derive(Clone, Copy)]
struct Segment {
    started: Instant,
    deadline: Instant,
    /// Index of the segment's first window in the run.
    first_window: usize,
    windows: usize,
    window_s: f64,
}

impl Segment {
    /// The run-wide window a request completing now falls in, if the
    /// segment holds the whole window.
    fn window_now(&self) -> Option<usize> {
        let w = (self.started.elapsed().as_secs_f64() / self.window_s) as usize;
        (w < self.windows).then_some(self.first_window + w)
    }
}

/// One client's share of a loop segment: requests until its deadline.
fn client_loop(
    models: &Models,
    addr: SocketAddr,
    state: &mut ClientState,
    run: &mut ClientRun,
    segment: Segment,
    tracer: &Tracer,
) {
    let client = match Client::new(addr) {
        Ok(client) => client,
        Err(e) => {
            run.attempted += 1;
            run.failed.push(e);
            return;
        }
    };
    while Instant::now() < segment.deadline {
        let mut request = match state.next(models) {
            Ok(request) => request,
            Err(e) => {
                run.attempted += 1;
                run.failed.push(e);
                break;
            }
        };
        run.attempted += 1;
        *run.sent.entry(request.class).or_insert(0) += 1;
        let start_ns = tracer.now_ns();
        let started = Instant::now();
        let reply = client.post(request.class.path(), &request.body);
        let elapsed = started.elapsed();
        if tracer.enabled() {
            tracer.push(SpanRecord {
                id: tracer.new_id(),
                parent: None,
                layer: "service",
                name: format!("Client::post {}", request.class.path()),
                trace: format!("client-{}-{}", state.client, run.attempted),
                start_ns,
                end_ns: tracer.now_ns(),
                attrs: vec![("class".to_string(), request.class.name().to_string())],
            });
        }
        run.rtt_us += elapsed.as_secs_f64() * 1e6;
        let outcome = match &reply {
            Err(e) => Err(format!("transport: {e}")),
            Ok(r) if !r.is_success() => Err(format!("HTTP {}: {:.200}", r.status, r.body)),
            Ok(r) => verify(state, &request, r, &mut run.ex1_counts),
        };
        match outcome {
            Ok(()) => {
                let latency_ms = elapsed.as_secs_f64() * 1e3;
                run.latency
                    .entry(request.class)
                    .or_default()
                    .push(latency_ms);
                if let Some(window) = segment.window_now() {
                    run.windowed.push((window, request.class, latency_ms));
                }
                let kept = run.kept_per_class.entry(request.class).or_insert(0);
                if *kept < 64 && request.class != Class::Hit {
                    *kept += 1;
                    request.reply = reply.map(|r| r.body).unwrap_or_default();
                    run.kept.push(request);
                }
            }
            Err(e) => run.failed.push(e),
        }
    }
}

/// Starts a daemon and warms it: every client fills its replay window.
fn start(models: &Models, run_seed: u64) -> Result<(ServiceHandle, Vec<ClientState>), String> {
    let handle = serve(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let client = Client::new(handle.addr())?;
    let health = client.get("/healthz")?;
    if !health.is_success() {
        return Err(format!("/healthz answered {}", health.status));
    }
    let mut states = Vec::new();
    let mut scratch = [0u64; 3];
    for c in 0..CLIENTS {
        let mut state = ClientState::new(run_seed, c);
        for _ in 0..WINDOW {
            let request = state.light_simulate(models)?;
            let reply = client.post(request.class.path(), &request.body)?;
            if !reply.is_success() {
                return Err(format!(
                    "warm-up {} answered {}",
                    request.class.path(),
                    reply.status
                ));
            }
            verify(&mut state, &request, &reply, &mut scratch)?;
        }
        states.push(state);
    }
    Ok((handle, states))
}

/// One timed set-up: models, daemon start and warm-up.
fn set_up(
    run_seed: u64,
    setup_s: &mut Vec<f64>,
) -> Result<(Models, ServiceHandle, Vec<ClientState>), String> {
    let started = Instant::now();
    let models = models()?;
    let (handle, states) = start(&models, run_seed)?;
    setup_s.push(started.elapsed().as_secs_f64());
    Ok((models, handle, states))
}

/// Times `n` set-ups on daemons that are stopped again.
fn throwaway_set_ups(n: usize, run_seed: u64, setup_s: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let (_, handle, _) = set_up(run_seed, setup_s)?;
        stop(handle);
    }
    Ok(())
}

fn stop(handle: ServiceHandle) {
    handle.shutdown(Duration::from_secs(10));
    handle.join();
}

/// Flat view of `GET /metrics?format=text`: series name → value.
fn text_metrics(client: &Client) -> Result<BTreeMap<String, f64>, String> {
    let reply = client.get("/metrics?format=text")?;
    Ok(reply
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn json_metrics(client: &Client) -> Result<Json, String> {
    client.get("/metrics")?.json()
}

/// `after − before` of every series whose name starts with `prefix`.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    after
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .fold(0.0, |sum, d| sum + d)
}

/// Runs the workload for `seconds`.
pub fn run(run_seed: u64, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    let mut phase = Phase::default();
    throwaway_set_ups(SETUPS_PER_SEGMENT - 1, run_seed, &mut phase.setup_s)?;
    let (models, handle, mut states) = set_up(run_seed, &mut phase.setup_s)?;
    let addr = handle.addr();
    let control = Client::new(addr)?;
    let before_json = json_metrics(&control)?;
    let before_text = text_metrics(&control)?;

    let mut runs: Vec<ClientRun> = (0..CLIENTS).map(|_| ClientRun::default()).collect();
    let mut loop_s = 0.0;
    let segment_s = seconds / SEGMENTS as f64;
    let window_s = WINDOW_S.min(segment_s);
    let mut windows = 0;
    for index in 0..SEGMENTS {
        if index > 0 {
            throwaway_set_ups(SETUPS_PER_SEGMENT, run_seed, &mut phase.setup_s)?;
        }
        let started = Instant::now();
        let segment = Segment {
            started,
            deadline: started + Duration::from_secs_f64(segment_s),
            first_window: windows,
            windows: (segment_s / window_s) as usize,
            window_s,
        };
        windows += segment.windows;
        std::thread::scope(|scope| {
            for (state, run) in states.iter_mut().zip(runs.iter_mut()) {
                let models = &models;
                scope.spawn(move || client_loop(models, addr, state, run, segment, tracer));
            }
        });
        loop_s += started.elapsed().as_secs_f64();
    }
    let after_json = json_metrics(&control)?;
    let after_text = text_metrics(&control)?;

    let mut latency: BTreeMap<Class, Samples> = BTreeMap::new();
    let mut sent: BTreeMap<Class, u64> = BTreeMap::new();
    let mut kept = Vec::new();
    let mut ex1_counts = [0u64; 3];
    let mut rtt_us = 0.0;
    let mut windowed = Vec::new();
    for run in runs {
        windowed.extend(run.windowed);
        phase.attempted += run.attempted;
        for problem in run.failed {
            phase.fail(problem);
        }
        for (class, samples) in &run.latency {
            latency.entry(*class).or_default().extend(samples);
        }
        for (class, n) in &run.sent {
            *sent.entry(*class).or_insert(0) += n;
        }
        for (slot, n) in run.ex1_counts.iter().enumerate() {
            ex1_counts[slot] += n;
        }
        rtt_us += run.rtt_us;
        kept.extend(run.kept);
    }

    // The cache must have seen exactly the planned hits and misses.
    let cache = |m: &Json, key: &str| number(m, &["cache", key]).unwrap_or(f64::NAN);
    let hits = cache(&after_json, "hits") - cache(&before_json, "hits");
    let misses = cache(&after_json, "misses") - cache(&before_json, "misses");
    let planned_hits = sent.get(&Class::Hit).copied().unwrap_or(0) as f64;
    let planned_misses = sent.values().sum::<u64>() as f64 - planned_hits;
    phase.attempted += 1;
    phase.check(hits == planned_hits && misses == planned_misses, || {
        format!(
            "cache saw {hits} hits / {misses} misses, planned {planned_hits} / {planned_misses}"
        )
    });
    // Pooled Example 1 outcomes over every fresh request: within binomial
    // tolerance of {0.3, 0.4, 0.3}.
    let n = sent.get(&Class::Simulate).copied().unwrap_or(0) * LIGHT_TRIALS;
    phase.attempted += 1;
    let ok = n > 0
        && ex1_counts
            .iter()
            .zip([0.3, 0.4, 0.3])
            .all(|(&k, p)| binomial_ok(k, n, p, 5.0, 0.01));
    phase.check(ok, || format!("Example 1 over {n} trials: {ex1_counts:?}"));

    let completed: usize = latency.values().map(Samples::len).sum();
    let throughput = completed as f64 / loop_s;
    let class = |c: Class| latency.get(&c).cloned().unwrap_or_default();
    let setup_metric = Metric::new("setup_s", median(&phase.setup_s), "s", phase.setup_s.len());
    let per_window = |c: Option<Class>| window_values(&windowed, windows, window_s, c);
    let quiet_latency = |c: Class, name: &str| {
        let p50s = per_window(Some(c));
        Metric::new(name, quantile(&p50s, QUIET), "ms", p50s.len())
    };
    let rates = per_window(None);
    phase.end_to_end = vec![
        setup_metric.clone(),
        Metric::new(
            "throughput_ops",
            quantile(&rates, 1.0 - QUIET),
            "1/s",
            rates.len(),
        ),
        quiet_latency(Class::Hit, "primary_ms"),
        quiet_latency(Class::Simulate, "secondary_ms"),
        quiet_latency(Class::Check, "tertiary_ms"),
        quiet_latency(Class::Exact, "quaternary_ms"),
    ];
    // The gated figures come from the quiet windows; the medians over the
    // whole loop are printed beside them.
    let p50 = |c: Class, name: &str| class(c).metric(name, 0.5);
    phase.report = phase.end_to_end.clone();
    phase.report.extend([
        Metric::new("throughput_rps", throughput, "1/s", completed),
        p50(Class::Hit, "hit_p50_ms"),
        p50(Class::Simulate, "simulate_p50_ms"),
        p50(Class::Check, "check_p50_ms"),
        p50(Class::Exact, "exact_p50_ms"),
    ]);
    let tails = [Class::Hit, Class::Simulate]
        .into_iter()
        .filter_map(|c| class(c).tail(c.name()));
    phase.report.extend(tails);

    if tracer.enabled() {
        let mut layers = daemon_layers(
            &control,
            tracer,
            &before_json,
            &after_json,
            &before_text,
            &after_text,
            rtt_us,
            completed,
            loop_s,
        )?;
        let mut replays = Replays::default();
        let local_cache = ResultCache::new(256);
        let mut per_class: BTreeMap<Class, usize> = BTreeMap::new();
        for request in &kept {
            let n = per_class.entry(request.class).or_insert(0);
            if *n >= REPLAYS_PER_CLASS {
                continue;
            }
            *n += 1;
            let replayed = match request.class {
                Class::Simulate => replays
                    .simulate(tracer, &request.body, Some(&request.reply), &local_cache)
                    .map(drop),
                Class::Check => {
                    let value = json::parse(&request.reply).and_then(|b| number(&b, &["value"]))?;
                    replays.check(tracer, &request.body, value)
                }
                Class::Exact => replays.exact(tracer, &request.body, &request.reply),
                Class::Hit => Ok(()),
            };
            phase.attempted += 1;
            if let Err(e) = replayed {
                phase.fail(format!("replay of {}: {e}", request.class.name()));
            }
        }
        for mismatch in std::mem::take(&mut replays.mismatches) {
            phase.attempted += 1;
            phase.fail(mismatch);
        }
        // Daemon-side numbers take precedence over replayed ones.
        let mut merged: BTreeMap<String, Metric> = replays
            .metrics()
            .into_iter()
            .map(|m| (m.name.clone(), m))
            .collect();
        for metric in layers.drain(..) {
            merged.insert(metric.name.clone(), metric);
        }
        phase.layers = merged.into_values().collect();
    }
    stop(handle);
    Ok(phase)
}

/// A gated latency is this quantile of the class's per-window medians, and
/// throughput the `1 − QUIET` quantile of the per-window rates: the quiet
/// end of the run. The machine's other tenants only ever slow a window
/// down, and on a shared host they do so for seconds to minutes at a time,
/// so a median over the whole loop measures them as much as the program.
const QUIET: f64 = 0.1;

/// Per window of the loop: the median latency of `class` (windows with at
/// least [`MIN_PER_WINDOW`] of its requests), or, for `None`, the rate of
/// completed requests of every class.
fn window_values(
    windowed: &[(usize, Class, f64)],
    windows: usize,
    window_s: f64,
    class: Option<Class>,
) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(w, c, latency) in windowed {
        if class.is_none_or(|class| class == c) {
            per[w].push(latency);
        }
    }
    match class {
        None => per.iter().map(|v| v.len() as f64 / window_s).collect(),
        Some(_) => per
            .iter()
            .filter(|v| v.len() >= MIN_PER_WINDOW)
            .map(|v| median(v))
            .collect(),
    }
}

/// Per-layer numbers read from the daemon: `/metrics` deltas over the loop
/// and the `/trace/:job_id` span trees of the most recent jobs.
#[allow(clippy::too_many_arguments)]
fn daemon_layers(
    control: &Client,
    tracer: &Tracer,
    before_json: &Json,
    after_json: &Json,
    before_text: &BTreeMap<String, f64>,
    after_text: &BTreeMap<String, f64>,
    rtt_us: f64,
    completed: usize,
    loop_s: f64,
) -> Result<Vec<Metric>, String> {
    let d = |prefix: &str| delta(before_text, after_text, prefix);
    let j = |path: &[&str]| {
        number(after_json, path).unwrap_or(0.0) - number(before_json, path).unwrap_or(0.0)
    };
    let mut out = vec![
        Metric::new("gillespie.steps", d("sim_steps_total{"), "count", completed),
        Metric::new(
            "gillespie.propensity_evals",
            d("sim_propensity_evals_total{"),
            "count",
            completed,
        ),
        Metric::new(
            "gillespie.leaps_accepted",
            d("sim_leaps_accepted_total{"),
            "count",
            completed,
        ),
        Metric::new(
            "gillespie.leaps_rejected",
            d("sim_leaps_rejected_total{"),
            "count",
            completed,
        ),
    ];
    let auto_total: f64 = [
        "direct",
        "first_reaction",
        "next_reaction",
        "composition_rejection",
        "tau_leaping",
        "hybrid",
    ]
    .iter()
    .map(|k| j(&["auto_resolutions", k]))
    .sum();
    let tau = j(&["auto_resolutions", "tau_leaping"]);
    out.push(Metric::new(
        "gillespie.auto_tau_share",
        if auto_total > 0.0 {
            tau / auto_total
        } else {
            0.0
        },
        "ratio",
        auto_total as usize,
    ));
    let (hits, misses) = (j(&["cache", "hits"]), j(&["cache", "misses"]));
    out.push(Metric::new(
        "service.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        (hits + misses) as usize,
    ));
    let lookups = d("cache_lookup_duration_us_count");
    out.push(Metric::new(
        "service.cache_lookup_us",
        d("cache_lookup_duration_us_sum") / lookups.max(1.0),
        "us",
        lookups as usize,
    ));
    let mut handler_us = 0.0;
    let mut handled = 0.0;
    for endpoint in ["simulate", "check", "exact", "synthesize"] {
        handler_us += d(&format!(
            "http_request_duration_us_sum{{endpoint=\"{endpoint}\"}}"
        ));
        handled += d(&format!(
            "http_request_duration_us_count{{endpoint=\"{endpoint}\"}}"
        ));
    }
    out.push(Metric::new(
        "service.http_overhead_us",
        (rtt_us - handler_us) / handled.max(1.0),
        "us",
        handled as usize,
    ));
    out.push(Metric::new(
        "service.steals",
        j(&["scheduler", "steals"]),
        "count",
        completed,
    ));

    // Span trees of the most recent jobs.
    let jobs = |m: &Json| {
        ["completed", "failed", "cancelled"]
            .iter()
            .map(|k| number(m, &["scheduler", k]).unwrap_or(0.0) as u64)
            .sum::<u64>()
    };
    let (first, last) = (jobs(before_json) + 1, jobs(after_json));
    let mut waits_us = Vec::new();
    let mut spans: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut busy_us = 0.0;
    let (mut window_start, mut window_end) = (u64::MAX, 0u64);
    let fetched = tracer.span(
        "obs",
        "GET /trace/:job_id",
        None,
        "daemon-traces",
        |_| -> Result<u64, String> {
            let mut fetched = 0;
            for id in last.saturating_sub(TRACED_JOBS - 1).max(first)..=last {
                let reply = control.get(&format!("/trace/{id}"))?;
                if !reply.is_success() {
                    continue;
                }
                fetched += 1;
                let body = reply.json()?;
                let list = field(&body, &["spans"])?.as_array("spans")?;
                let mut label = String::new();
                let mut job = (0, 0);
                let mut wait = None;
                let mut named: Vec<(String, u64, u64)> = Vec::new();
                for span in list {
                    let name = field(span, &["name"])?.as_str("name")?.to_string();
                    let start = number(span, &["start_us"])? as u64;
                    let end = number(span, &["end_us"])? as u64;
                    if name == "job" {
                        job = (start, end);
                        for attr in field(span, &["attrs"])?.as_array("attrs")? {
                            if field(attr, &["key"])?.as_str("key")? == "label" {
                                label = field(attr, &["value"])?.as_str("value")?.to_string();
                            }
                        }
                    }
                    if name == "schedule-wait" {
                        wait = Some(end);
                    }
                    named.push((name, start, end));
                }
                window_start = window_start.min(job.0);
                window_end = window_end.max(job.1);
                for (name, start, end) in &named {
                    let dur = end.saturating_sub(*start) as f64;
                    match name.as_str() {
                        "schedule-wait" => waits_us.push(dur),
                        "shard" => busy_us += dur,
                        _ => {}
                    }
                    if label == "simulate" {
                        match name.as_str() {
                            "parse" => spans.entry("service.span.parse_us").or_default().push(dur),
                            "classify" => spans
                                .entry("service.span.classify_us")
                                .or_default()
                                .push(dur),
                            "schedule-wait" => spans
                                .entry("service.span.schedule-wait_us")
                                .or_default()
                                .push(dur),
                            "merge" => spans.entry("service.span.merge_us").or_default().push(dur),
                            _ => {}
                        }
                    }
                }
                // Single-chunk jobs are busy from dequeue to completion.
                if label != "simulate" {
                    if let Some(dequeued) = wait {
                        busy_us += job.1.saturating_sub(dequeued) as f64;
                    }
                }
            }
            Ok(fetched)
        },
        |_| Vec::new(),
    )?;
    out.push(Metric::new(
        "service.queue_wait_p50_ms",
        quantile(&waits_us, 0.5) / 1e3,
        "ms",
        waits_us.len(),
    ));
    out.push(Metric::new(
        "service.queue_wait_p90_ms",
        quantile(&waits_us, 0.9) / 1e3,
        "ms",
        waits_us.len(),
    ));
    for (name, values) in spans {
        out.push(Metric::new(name, median(&values), "us", values.len()));
    }
    // Worker idle share over the window the fetched jobs cover (the whole
    // loop when every job's trace was kept).
    let window_us = if window_end > window_start {
        (window_end - window_start) as f64
    } else {
        loop_s * 1e6
    };
    out.push(Metric::new(
        "gillespie.fanout_idle_share",
        (1.0 - busy_us / (WORKERS as f64 * window_us)).max(0.0),
        "ratio",
        fetched as usize,
    ));
    Ok(out)
}
