//! The assembled service: endpoints wired to the scheduler, cache and
//! metrics, plus the [`serve`] entry point used by `stochsynthd`, the
//! examples and the integration tests.
//!
//! # Endpoints
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /simulate` | Ensemble job (any [`StepperKind`](gillespie::StepperKind)); cached |
//! | `POST /exact` | CME first-passage / transient analysis; cached |
//! | `POST /synthesize` | The paper's synthesis pipeline + exact evaluation; cached |
//! | `POST /check` | Model-checker verdict (races, time windows, hitting times, stationary mass) or a parameter sweep of one; cached per grid point |
//! | `GET /jobs/:id` | Job status, or the result body once completed |
//! | `DELETE /jobs/:id` | Cancels a queued or running job |
//! | `GET /healthz` | Liveness |
//! | `GET /metrics` | Request, cache, scheduler and fabric counters |
//! | `GET /fabric` | Fabric counters, streaming statistics and worker pool |
//! | `POST /fabric/workers` | Loopback-only worker registration |
//! | `POST /shutdown` | Loopback-only graceful drain |
//!
//! A daemon started with fabric workers configured acts as a
//! **coordinator**: `/simulate` ensembles are split into trial-range
//! shards and dispatched to the pool (see [`crate::fabric`]). Any daemon
//! answers shard requests (`"range": [start, end)`) with a partial
//! document instead of a full report, which is also how workers cache
//! shards for federation.
//!
//! Result-bearing responses carry a `cache: hit|miss` header; bodies are
//! **byte-identical** between a fresh computation and its cached replay
//! (the cache stores rendered bytes, and the engine is deterministic for a
//! fixed seed), so the header is the *only* way to tell them apart.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gillespie::engine::CancelToken;
use gillespie::{EnsemblePartial, SimProfile, StepperKind};
use obs::log::{event, Level, Value};
use obs::trace::{span_id, SpanGuard, TraceContext, TraceSink};

use crate::api::{CheckRequest, ExactRequest, SimulateRequest, SynthesizeRequest};
use crate::cache::ResultCache;
use crate::error::ServiceError;
use crate::fabric::{Fabric, FabricConfig, ShardTrace, TRACE_HEADER};
use crate::http::{Method, Response};
use crate::json::{self, Json};
use crate::metrics::{EndpointMetrics, Metrics};
use crate::router::{RouteContext, Router};
use crate::scheduler::{
    ChunkOutput, JobId, JobSnapshot, JobState, JobWork, Scheduler, SchedulerTelemetry, SubmitError,
};
use crate::server::{Server, ServerHandle};

/// How long a `wait: true` submission blocks before degrading to a `202`
/// status response the client can poll.
const WAIT_TIMEOUT: Duration = Duration::from_secs(600);

/// Bounded capacity of the in-memory trace ring: old spans are dropped
/// once this many are held, so tracing every job forever cannot grow
/// memory.
const TRACE_CAPACITY: usize = 4096;

/// Configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Scheduler worker threads (0 = one per CPU).
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// When set, this daemon coordinates a worker fabric: `/simulate`
    /// ensembles shard across the configured pool instead of running on
    /// the local scheduler threads.
    pub fabric: Option<FabricConfig>,
    /// Requests whose handler takes at least this many milliseconds emit a
    /// `slow_request` warning event. `0` disables the check.
    pub slow_request_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 256,
            max_body_bytes: 1 << 20,
            fabric: None,
            slow_request_ms: 10_000,
        }
    }
}

/// The shared state behind every route handler.
pub struct App {
    scheduler: Scheduler,
    cache: ResultCache,
    metrics: Metrics,
    /// Bounded ring of trace spans; `GET /trace/:job_id` reads it.
    trace: Arc<TraceSink>,
    fabric: Option<Arc<Fabric>>,
    config: ServiceConfig,
    /// Set once the listener is bound; `/shutdown` self-connects through it
    /// to wake the accept loop.
    local_addr: OnceLock<SocketAddr>,
    /// Raised by `/shutdown`; checked by the accept loop.
    stopping: Mutex<bool>,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "App({:?})", self.config)
    }
}

impl App {
    /// Creates the service state (scheduler workers start immediately).
    pub fn new(config: ServiceConfig) -> Arc<App> {
        let metrics = Metrics::new();
        let trace = Arc::new(TraceSink::new(TRACE_CAPACITY));
        // The scheduler reports queue waits into the shared histogram and
        // gauges, and the dequeue hook turns each wait into a
        // `schedule-wait` span under the job's root span. None of this
        // influences scheduling order — see the telemetry docs.
        let dequeue_sink = Arc::clone(&trace);
        let telemetry = SchedulerTelemetry {
            queue_wait_us: Arc::clone(&metrics.queue_wait_us),
            queue_depth: metrics.registry().gauge("scheduler_queue_depth"),
            running_jobs: metrics.registry().gauge("scheduler_running_jobs"),
            on_dequeue: Box::new(move |id, _label, wait| {
                let trace_id = id.to_string();
                let end_us = dequeue_sink.now_us();
                let wait_us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
                dequeue_sink
                    .span(
                        &trace_id,
                        "schedule-wait",
                        0,
                        Some(span_id(&trace_id, "job", 0)),
                    )
                    .started_at(end_us.saturating_sub(wait_us))
                    .finish_at(end_us);
            }),
        };
        let fabric = config
            .fabric
            .clone()
            .map(|f| Arc::new(Fabric::new(f).with_metrics(Arc::clone(metrics.registry()))));
        Arc::new(App {
            scheduler: Scheduler::with_telemetry(
                config.workers,
                config.queue_capacity,
                Some(telemetry),
            ),
            cache: ResultCache::new(config.cache_capacity),
            metrics,
            trace,
            fabric,
            config,
            local_addr: OnceLock::new(),
            stopping: Mutex::new(false),
        })
    }

    /// The scheduler, for embedders and tests.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The result cache, for embedders and tests.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The typed metrics handles, for embedders and tests.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace-span ring, for embedders and tests.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// The fabric coordinator, when this daemon was configured with one.
    pub fn fabric(&self) -> Option<&Arc<Fabric>> {
        self.fabric.as_ref()
    }

    /// Builds the route table for this app. Every handler is wrapped in
    /// [`instrumented`], which times it, maintains the per-endpoint
    /// request/status/latency series and emits the request log events.
    pub fn router(self: &Arc<App>) -> Router {
        let mut router = Router::new();
        let app = Arc::clone(self);
        router.route(
            Method::Post,
            "/simulate",
            instrumented(self, "simulate", move |ctx| submit_simulate(&app, ctx)),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Post,
            "/exact",
            instrumented(self, "exact", move |ctx| {
                match parse_body(ctx).and_then(|body| ExactRequest::parse(&body)) {
                    Ok(r) => {
                        let (key, priority, wait) = (r.cache_key(), r.priority, r.wait);
                        submit_analysis(&app, "exact", key, priority, wait, move |_| r.execute())
                    }
                    Err(error) => error_response(&error),
                }
            }),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Post,
            "/synthesize",
            instrumented(self, "synthesize", move |ctx| {
                match parse_body(ctx).and_then(|body| SynthesizeRequest::parse(&body)) {
                    Ok(r) => {
                        let (key, priority, wait) = (r.cache_key(), r.priority, r.wait);
                        submit_analysis(&app, "synthesize", key, priority, wait, move |_| {
                            r.execute()
                        })
                    }
                    Err(error) => error_response(&error),
                }
            }),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Post,
            "/check",
            instrumented(self, "check", move |ctx| submit_check(&app, ctx)),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Get,
            "/jobs/:id",
            instrumented(self, "job_status", move |ctx| job_status(&app, ctx)),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Delete,
            "/jobs/:id",
            instrumented(self, "job_cancel", move |ctx| job_cancel(&app, ctx)),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Get,
            "/healthz",
            instrumented(self, "healthz", move |_| {
                let body = Json::object([
                    ("status", Json::str("ok")),
                    ("workers", Json::count(app.scheduler.stats().workers as u64)),
                    ("uptime_ms", Json::count(app.metrics.uptime_ms())),
                ]);
                Response::json(200, body.render())
            }),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Get,
            "/metrics",
            instrumented(self, "metrics", move |ctx| {
                if ctx.query_param("format") == Some("text") {
                    Response::text(200, app.render_metrics_text())
                } else {
                    Response::json(200, app.render_metrics())
                }
            }),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Get,
            "/trace/:id",
            instrumented(self, "trace", move |ctx| trace_query(&app, ctx)),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Get,
            "/fabric",
            instrumented(self, "fabric", move |_| match &app.fabric {
                Some(fabric) => Response::json(200, fabric.render().render()),
                None => error_response(&ServiceError::bad_request(
                    "this daemon is not a fabric coordinator",
                )),
            }),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Post,
            "/fabric/workers",
            instrumented(self, "fabric_workers", move |ctx| {
                register_worker(&app, ctx)
            }),
        );
        let app = Arc::clone(self);
        router.route(
            Method::Post,
            "/shutdown",
            instrumented(self, "shutdown", move |ctx| shutdown(&app, ctx)),
        );
        router
    }

    /// Counts one written response (every response, including framing-level
    /// rejections and router-level 404/405s — wired in as the server's
    /// [`ResponseObserver`](crate::ResponseObserver) by [`serve`]).
    pub fn count_response(&self, response: &Response) {
        self.metrics.requests.inc();
        if (400..500).contains(&response.status) {
            self.metrics.responses_4xx.inc();
        } else if response.status >= 500 {
            self.metrics.responses_5xx.inc();
        }
    }

    fn render_metrics(&self) -> String {
        let cache = self.cache.stats();
        let scheduler = self.scheduler.stats();
        // Per-endpoint breakdown for the four submission endpoints: request
        // count, status classes and service-time quantiles. Additive — the
        // legacy sections keep their exact shape.
        let series: Vec<(&str, EndpointMetrics)> = ["simulate", "exact", "synthesize", "check"]
            .into_iter()
            .map(|name| (name, self.metrics.endpoint(name)))
            .collect();
        let endpoints: Vec<(&str, Json)> = series
            .iter()
            .map(|(name, endpoint)| {
                let latency = endpoint.latency_us.snapshot();
                (
                    *name,
                    Json::object([
                        ("requests", Json::count(endpoint.requests.get())),
                        ("responses_4xx", Json::count(endpoint.responses_4xx.get())),
                        ("responses_5xx", Json::count(endpoint.responses_5xx.get())),
                        (
                            "latency_us",
                            Json::object([
                                ("count", Json::count(latency.count)),
                                ("p50", Json::count(latency.p50())),
                                ("p90", Json::count(latency.p90())),
                                ("p99", Json::count(latency.p99())),
                                ("max", Json::count(latency.max)),
                            ]),
                        ),
                    ]),
                )
            })
            .collect();
        let totals = [
            ("requests", &self.metrics.requests),
            ("responses_4xx", &self.metrics.responses_4xx),
            ("responses_5xx", &self.metrics.responses_5xx),
        ];
        let http = totals
            .iter()
            .map(|(key, counter)| (key.to_string(), counter.get()))
            .chain(
                series
                    .iter()
                    .map(|(name, endpoint)| (format!("{name}_requests"), endpoint.requests.get())),
            )
            .map(|(key, count)| (key, Json::count(count)))
            .collect();
        let auto_resolutions = StepperKind::ALL
            .iter()
            .zip(&self.metrics.auto_resolutions)
            .map(|(kind, counter)| (kind.name().replace('-', "_"), Json::count(counter.get())))
            .collect();
        let mut members = Json::object([
            ("uptime_ms", Json::count(self.metrics.uptime_ms())),
            ("http", Json::Object(http)),
            ("endpoints", Json::object(endpoints)),
            ("auto_resolutions", Json::Object(auto_resolutions)),
            (
                "cache",
                Json::object([
                    ("entries", Json::count(cache.entries as u64)),
                    ("capacity", Json::count(cache.capacity as u64)),
                    ("hits", Json::count(cache.hits)),
                    ("misses", Json::count(cache.misses)),
                    ("evictions", Json::count(cache.evictions)),
                ]),
            ),
            (
                "scheduler",
                Json::object([
                    ("workers", Json::count(scheduler.workers as u64)),
                    ("queued", Json::count(scheduler.queued as u64)),
                    ("running", Json::count(scheduler.running as u64)),
                    ("completed", Json::count(scheduler.completed)),
                    ("failed", Json::count(scheduler.failed)),
                    ("cancelled", Json::count(scheduler.cancelled)),
                    ("rejected", Json::count(scheduler.rejected)),
                    ("steals", Json::count(scheduler.steals)),
                ]),
            ),
        ]);
        if let Some(fabric) = &self.fabric {
            if let Json::Object(m) = &mut members {
                m.push(("fabric".to_string(), fabric.render()));
            }
        }
        members.render()
    }

    /// The Prometheus-style text exposition (`GET /metrics?format=text`):
    /// every registry series, plus the cache, scheduler and fabric counters
    /// (owned by their subsystems, not the registry) appended as gauges.
    fn render_metrics_text(&self) -> String {
        let cache = self.cache.stats();
        let scheduler = self.scheduler.stats();
        let mut extra: Vec<(String, f64)> = vec![
            (
                "service_uptime_ms".to_string(),
                self.metrics.uptime_ms() as f64,
            ),
            ("cache_entries".to_string(), cache.entries as f64),
            ("cache_capacity".to_string(), cache.capacity as f64),
            ("cache_hits_total".to_string(), cache.hits as f64),
            ("cache_misses_total".to_string(), cache.misses as f64),
            ("cache_evictions_total".to_string(), cache.evictions as f64),
            ("scheduler_workers".to_string(), scheduler.workers as f64),
            (
                "scheduler_jobs_completed_total".to_string(),
                scheduler.completed as f64,
            ),
            (
                "scheduler_jobs_failed_total".to_string(),
                scheduler.failed as f64,
            ),
            (
                "scheduler_jobs_cancelled_total".to_string(),
                scheduler.cancelled as f64,
            ),
            (
                "scheduler_jobs_rejected_total".to_string(),
                scheduler.rejected as f64,
            ),
            (
                "scheduler_steals_total".to_string(),
                scheduler.steals as f64,
            ),
        ];
        if let Some(fabric) = &self.fabric {
            let stats = fabric.stats();
            extra.extend([
                (
                    "fabric_shards_dispatched_total".to_string(),
                    stats.shards_dispatched as f64,
                ),
                (
                    "fabric_shards_completed_total".to_string(),
                    stats.shards_completed as f64,
                ),
                (
                    "fabric_shard_retries_total".to_string(),
                    stats.shard_retries as f64,
                ),
                (
                    "fabric_worker_failures_total".to_string(),
                    stats.worker_failures as f64,
                ),
                (
                    "fabric_remote_cache_hits_total".to_string(),
                    stats.remote_cache_hits as f64,
                ),
                (
                    "fabric_remote_cache_misses_total".to_string(),
                    stats.remote_cache_misses as f64,
                ),
            ]);
        }
        self.metrics.registry().render_text(&extra)
    }
}

/// Wraps a route handler with the per-endpoint telemetry: service-time
/// histogram, request/status counters, a debug-level `request` event, and
/// a warn-level `slow_request` event when the handler ran longer than
/// [`ServiceConfig::slow_request_ms`]. Purely observational — the wrapped
/// handler's response passes through untouched.
fn instrumented(
    app: &Arc<App>,
    endpoint: &'static str,
    handler: impl Fn(&RouteContext<'_>) -> Response + Send + Sync + 'static,
) -> impl Fn(&RouteContext<'_>) -> Response + Send + Sync + 'static {
    let app = Arc::clone(app);
    let series = app.metrics.endpoint(endpoint);
    move |ctx| {
        let started = Instant::now();
        let response = handler(ctx);
        let elapsed = started.elapsed();
        series.observe(response.status, elapsed);
        let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        event(
            Level::Debug,
            "service::http",
            "request",
            &[
                ("endpoint", Value::str(endpoint)),
                ("status", Value::U64(u64::from(response.status))),
                ("elapsed_us", Value::U64(elapsed_us)),
            ],
        );
        let threshold_ms = app.config.slow_request_ms;
        if threshold_ms > 0 && elapsed >= Duration::from_millis(threshold_ms) {
            event(
                Level::Warn,
                "service::http",
                "slow_request",
                &[
                    ("endpoint", Value::str(endpoint)),
                    ("status", Value::U64(u64::from(response.status))),
                    ("elapsed_ms", Value::U64(elapsed_us / 1_000)),
                    ("threshold_ms", Value::U64(threshold_ms)),
                ],
            );
        }
        response
    }
}

/// `GET /trace/:id` — the recorded span tree of one job, ordered by start
/// time. Span ids render as 16-hex-digit strings (they are 64-bit hashes,
/// too wide for JSON's f64 numbers).
fn trace_query(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    let id = match parse_job_id(ctx) {
        Ok(id) => id,
        Err(error) => return error_response(&error),
    };
    let trace_id = id.to_string();
    let spans = app.trace.spans(&trace_id);
    if spans.is_empty() {
        return error_response(&ServiceError::UnknownJob { id });
    }
    let rendered: Vec<Json> = spans
        .iter()
        .map(|span| {
            let attrs: Vec<Json> = span
                .attrs
                .iter()
                .map(|(k, v)| {
                    Json::object([
                        ("key", Json::str(k.clone())),
                        ("value", Json::str(v.clone())),
                    ])
                })
                .collect();
            Json::object([
                ("id", Json::str(format!("{:016x}", span.id))),
                (
                    "parent",
                    match span.parent {
                        Some(parent) => Json::str(format!("{parent:016x}")),
                        None => Json::Null,
                    },
                ),
                ("name", Json::str(span.name.clone())),
                ("start_us", Json::count(span.start_us)),
                ("end_us", Json::count(span.end_us)),
                ("attrs", Json::Array(attrs)),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::object([
            ("trace", Json::str(trace_id)),
            ("spans", Json::Array(rendered)),
        ])
        .render(),
    )
}

/// Renders a [`ServiceError`] as its HTTP response.
fn error_response(error: &ServiceError) -> Response {
    Response::json(
        error.status(),
        Json::object([("error", Json::str(error.to_string()))]).render(),
    )
}

/// Renders a job-status body (for every non-completed state).
fn status_body(snapshot: &JobSnapshot) -> String {
    let mut members = vec![
        ("kind", Json::str("job")),
        ("job", Json::count(snapshot.id)),
        ("state", Json::str(snapshot.state.as_str())),
        ("label", Json::str(snapshot.label.clone())),
        ("priority", Json::count(u64::from(snapshot.priority))),
        ("progress", Json::num(snapshot.progress())),
        (
            "completed_chunks",
            Json::count(snapshot.completed_chunks as u64),
        ),
        ("total_chunks", Json::count(snapshot.total_chunks as u64)),
    ];
    if let Some(error) = &snapshot.error {
        members.push(("error", Json::str(error.clone())));
    }
    if let Some(index) = snapshot.completion_index {
        members.push(("completion_index", Json::count(index)));
    }
    Json::object(members).render()
}

/// The response for a job snapshot: the raw result body for completed jobs,
/// a status document otherwise. Every variant carries an `x-job-state`
/// header; result bodies add `cache: miss` (they were computed, not
/// replayed).
fn snapshot_response(snapshot: &JobSnapshot) -> Response {
    let state = snapshot.state.as_str();
    match snapshot.state {
        JobState::Completed => Response::json(
            200,
            snapshot
                .result
                .clone()
                .expect("completed jobs have results"),
        )
        .header("cache", "miss")
        .header("x-job-state", state),
        JobState::Failed => Response::json(500, status_body(snapshot)).header("x-job-state", state),
        _ => Response::json(200, status_body(snapshot)).header("x-job-state", state),
    }
}

/// Shared submit flow: consult the cache (timing the lookup), otherwise
/// schedule the work `build` constructs for the allocated job id and either
/// wait for it (`wait: true`) or hand back a `202`.
///
/// `build` receives the job id so chunk closures can carry the trace id
/// (the id, as text); the built work's `finish` is wrapped to cache the
/// body under `key` and record the trace's root `job` span when the job
/// settles. Cache hits schedule nothing and record no spans: the replayed
/// bytes never went near the scheduler.
fn submit_cached_job(
    app: &Arc<App>,
    label: &'static str,
    key: String,
    priority: u8,
    wait: bool,
    build: impl FnOnce(JobId) -> JobWork,
) -> Response {
    let lookup_started = Instant::now();
    let cached = app.cache.lookup(&key);
    app.metrics
        .cache_lookup_us
        .record(u64::try_from(lookup_started.elapsed().as_micros()).unwrap_or(u64::MAX));
    if let Some(body) = cached {
        return Response::json(200, body)
            .header("cache", "hit")
            .header("x-job-state", "completed");
    }
    let submitted_us = app.trace.now_us();
    let finish_app = Arc::clone(app);
    let id = match app.scheduler.submit_with(priority, label, |id| {
        let mut work = build(id);
        let trace_id = id.to_string();
        let inner = work.finish;
        work.finish = Box::new(move |outputs| {
            let result = inner(outputs);
            if let Ok(body) = &result {
                finish_app.cache.insert(&key, body);
            }
            finish_app
                .trace
                .span(&trace_id, "job", 0, None)
                .started_at(submitted_us)
                .attr("label", label)
                .attr("outcome", if result.is_ok() { "ok" } else { "error" })
                .finish();
            result
        });
        work
    }) {
        Ok(id) => id,
        Err(SubmitError::QueueFull { capacity }) => {
            return error_response(&ServiceError::Busy { capacity })
        }
        Err(SubmitError::Draining) => {
            return error_response(&ServiceError::Unavailable {
                message: "server is draining".to_string(),
            })
        }
    };
    if wait {
        if let Some(snapshot) = app.scheduler.wait_terminal(id, WAIT_TIMEOUT) {
            return snapshot_response(&snapshot);
        }
    }
    let snapshot = app.scheduler.status(id).expect("job was just submitted");
    Response::json(202, status_body(&snapshot))
        .header("cache", "miss")
        .header("x-job-state", snapshot.state.as_str())
}

/// Submits a single-chunk job whose work is one opaque computation
/// producing the whole body: `/exact`, `/synthesize`, single-point
/// `/check` and simulate shards.
fn submit_analysis<E: ToString>(
    app: &Arc<App>,
    label: &'static str,
    key: String,
    priority: u8,
    wait: bool,
    execute: impl Fn(&CancelToken) -> Result<String, E> + Send + Sync + 'static,
) -> Response {
    let work = JobWork {
        chunks: 1,
        run_chunk: Box::new(move |_, cancel| {
            execute(cancel)
                .map(ChunkOutput::Body)
                .map_err(|e| e.to_string())
        }),
        finish: Box::new(|mut outputs| Ok(outputs.remove(0).into_body())),
    };
    submit_cached_job(app, label, key, priority, wait, move |_| work)
}

/// Runs trials `[start, end)` of `request`, adds the engine's work counters
/// to the per-stepper metrics, and finishes `span` (when traced) with the
/// range and those counters.
fn run_trials(
    app: &App,
    request: &SimulateRequest,
    (start, end): (u64, u64),
    cancel: &CancelToken,
    span: Option<SpanGuard<'_>>,
) -> Result<EnsemblePartial, String> {
    let mut profile = SimProfile::default();
    let partial = request
        .ensemble()
        .map_err(|e| e.to_string())?
        .run_range_profiled(start, end, cancel, &mut profile)
        .map_err(|e| e.to_string())?;
    app.metrics
        .record_profile(request.resolved.name(), &profile);
    if let Some(span) = span {
        span.attr("range", format!("[{start}, {end})"))
            .attr("steps", profile.steps)
            .attr("propensity_evals", profile.propensity_evals)
            .finish();
    }
    Ok(partial)
}

/// Parses the request body as JSON, mapping failures to a 400.
fn parse_body(ctx: &RouteContext<'_>) -> Result<Json, ServiceError> {
    json::parse(&ctx.request.body)
        .map_err(|e| ServiceError::bad_request(format!("invalid JSON body: {e}")))
}

/// `POST /fabric/workers` — registers a worker address with the
/// coordinator at run time (loopback-only, like `/shutdown`: the pool an
/// operator dispatches compute to is operator configuration, not a public
/// surface).
fn register_worker(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    if !ctx.peer.ip().is_loopback() {
        return error_response(&ServiceError::Forbidden {
            message: "POST /fabric/workers is only accepted from loopback".to_string(),
        });
    }
    let Some(fabric) = &app.fabric else {
        return error_response(&ServiceError::bad_request(
            "this daemon is not a fabric coordinator",
        ));
    };
    let addr = match parse_body(ctx).and_then(|body| {
        body.get("addr")
            .ok_or_else(|| ServiceError::bad_request("missing `addr`"))?
            .as_str("addr")
            .map(str::to_string)
            .map_err(ServiceError::bad_request)
    }) {
        Ok(addr) => addr,
        Err(error) => return error_response(&error),
    };
    let registered = fabric.registry().register(&addr);
    Response::json(
        200,
        Json::object([
            ("addr", Json::str(addr)),
            ("registered", Json::Bool(registered)),
            ("workers", Json::count(fabric.registry().len() as u64)),
        ])
        .render(),
    )
}

fn submit_simulate(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    // Timestamps for the `parse` and `classify` trace spans are captured
    // here, but the spans are recorded later, inside the submit `build`
    // callback — the trace id is the job id, which does not exist yet.
    let parse_started_us = app.trace.now_us();
    let body = parse_body(ctx);
    let parse_done_us = app.trace.now_us();
    let request = match body.and_then(|body| SimulateRequest::parse(&body)) {
        Ok(request) => Arc::new(request),
        Err(error) => return error_response(&error),
    };
    let classify_done_us = app.trace.now_us();
    // Count what the portfolio decided (even when the cache answers the
    // request): the per-kind histogram in `/metrics` is how operators see
    // which regimes their workloads land in.
    if request.method == StepperKind::Auto {
        app.metrics.auto_resolution_counter(request.resolved).inc();
    }
    let key = request.cache_key();
    let (priority, wait) = (request.priority, request.wait);

    // A shard request (`"range": [start, end)`) runs its trial range as
    // one chunk and answers with a partial wire document — the worker side
    // of the fabric. The partial is cached under the range-suffixed key,
    // so a coordinator retrying or re-dispatching a shard replays it
    // byte-for-byte. When the coordinator stamped a trace header, the
    // execution is recorded as a `shard-exec` span under the
    // *coordinator's* trace id (in this worker's own sink).
    if let Some(range) = request.range {
        let context = ctx
            .request
            .header(TRACE_HEADER)
            .and_then(TraceContext::parse);
        let run_app = Arc::clone(app);
        return submit_analysis(app, "simulate-shard", key, priority, wait, move |cancel| {
            let span = context.as_ref().map(|context| {
                let parent = Some(context.parent);
                run_app
                    .trace
                    .span(&context.trace_id, "shard-exec", range.0, parent)
            });
            run_trials(&run_app, &request, range, cancel, span)
                .map(|partial| SimulateRequest::render_partial(&partial))
        });
    }

    // Chunk the ensemble. On a coordinator the chunks are fabric shards
    // dispatched to the worker pool; locally they are trial ranges sized
    // for ~4 tasks per scheduler worker so stealing has something to
    // steal, without shattering small ensembles into per-trial tasks.
    let fabric = app
        .fabric
        .as_ref()
        .filter(|f| !f.registry().is_empty())
        .cloned();
    // Read the worker count up front: the build callback below runs under
    // the scheduler lock, where calling back into `scheduler.stats()`
    // would deadlock.
    let scheduler_workers = app.scheduler.stats().workers as u64;
    let build_app = Arc::clone(app);
    submit_cached_job(app, "simulate", key, priority, wait, move |id| {
        let app = build_app;
        let trials = request.trials;
        let plan = match &fabric {
            Some(fabric) => fabric.plan(trials),
            None => {
                let chunk_size = trials.div_ceil((scheduler_workers * 4).clamp(1, trials));
                (0..trials)
                    .step_by(chunk_size as usize)
                    .map(|start| (start, (start + chunk_size).min(trials)))
                    .collect()
            }
        };
        let trace_id = id.to_string();
        let root = Some(span_id(&trace_id, "job", 0));
        app.trace
            .span(&trace_id, "parse", 0, root)
            .started_at(parse_started_us)
            .finish_at(parse_done_us);
        app.trace
            .span(&trace_id, "classify", 0, root)
            .started_at(parse_done_us)
            .attr("method", request.method.name())
            .attr("resolved", request.resolved.name())
            .finish_at(classify_done_us);

        let chunks = plan.len();
        let run_app = Arc::clone(&app);
        let run_request = Arc::clone(&request);
        let run_trace_id = trace_id.clone();
        let run_chunk = move |index: usize, cancel: &CancelToken| {
            let range = plan[index];
            let span = run_app
                .trace
                .span(&run_trace_id, "shard", index as u64, root);
            let partial = match &fabric {
                Some(fabric) => {
                    let shard_trace = ShardTrace {
                        sink: Arc::clone(&run_app.trace),
                        trace_id: run_trace_id.clone(),
                        parent: span.id(),
                        index: index as u64,
                    };
                    let result = fabric.run_shard(&run_request, range, cancel, Some(&shard_trace));
                    span.attr("range", format!("[{}, {})", range.0, range.1))
                        .attr("outcome", if result.is_ok() { "ok" } else { "error" })
                        .finish();
                    result?
                }
                None => run_trials(&run_app, &run_request, range, cancel, Some(span))?,
            };
            Ok(ChunkOutput::Partial(Box::new(partial)))
        };

        let finish = move |outputs: Vec<ChunkOutput>| {
            let span = app.trace.span(&trace_id, "merge", 0, root);
            let partials: Vec<EnsemblePartial> =
                outputs.into_iter().map(ChunkOutput::into_partial).collect();
            let merged = partials.len();
            let report = request
                .ensemble()
                .map_err(|e| e.to_string())?
                .merge(partials)
                .map_err(|e| e.to_string())?;
            let body = request.render_report(&report);
            span.attr("partials", merged).finish();
            Ok(body)
        };

        JobWork {
            chunks,
            run_chunk: Box::new(run_chunk),
            finish: Box::new(finish),
        }
    })
}

fn submit_check(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    let request = match parse_body(ctx).and_then(|body| CheckRequest::parse(&body)) {
        Ok(request) => request,
        Err(error) => return error_response(&error),
    };
    let (priority, wait) = (request.priority, request.wait);
    let key = request.cache_key();
    if request.sweep.is_none() {
        let point = request
            .points
            .into_iter()
            .next()
            .expect("a sweepless request has exactly one point");
        return submit_analysis(app, "check", key, priority, wait, move |_| point.execute());
    }

    // A sweep runs each grid point as its own chunk — locally on the
    // scheduler threads, or fanned out to `/check` on the worker pool when
    // this daemon coordinates a fabric. Every point consults (and fills)
    // the per-point cache before the sweep document is assembled, so
    // re-gridded sweeps and single-point replays reuse each other's
    // solves, on top of the whole-document key.
    let request = Arc::new(request);
    let chunks = request.points.len();
    let fabric = app
        .fabric
        .as_ref()
        .filter(|f| !f.registry().is_empty())
        .cloned();
    let run_request = Arc::clone(&request);
    let run_app = Arc::clone(app);
    let run_chunk = move |index: usize, cancel: &CancelToken| {
        let point = &run_request.points[index];
        let point_key = point.cache_key();
        if let Some(body) = run_app.cache.lookup(&point_key) {
            return Ok(ChunkOutput::Body(body));
        }
        let body = match &fabric {
            Some(fabric) => fabric.run_check(point, index, cancel)?,
            None => point.execute().map_err(|e| e.to_string())?,
        };
        run_app.cache.insert(&point_key, &body);
        Ok(ChunkOutput::Body(body))
    };
    let finish = move |outputs: Vec<ChunkOutput>| {
        let bodies: Vec<String> = outputs.into_iter().map(ChunkOutput::into_body).collect();
        request.render_sweep(&bodies).map_err(|e| e.to_string())
    };

    submit_cached_job(app, "check-sweep", key, priority, wait, move |_| JobWork {
        chunks,
        run_chunk: Box::new(run_chunk),
        finish: Box::new(finish),
    })
}

fn parse_job_id(ctx: &RouteContext<'_>) -> Result<JobId, ServiceError> {
    ctx.param("id")
        .and_then(|id| id.parse::<JobId>().ok())
        .ok_or_else(|| ServiceError::bad_request("job ids are positive integers"))
}

fn job_status(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    let id = match parse_job_id(ctx) {
        Ok(id) => id,
        Err(error) => return error_response(&error),
    };
    // `?wait=1` turns the poll into a blocking wait (used by the CLI).
    if ctx.query_param("wait").is_some() {
        if let Some(snapshot) = app.scheduler.wait_terminal(id, WAIT_TIMEOUT) {
            return snapshot_response(&snapshot);
        }
    }
    match app.scheduler.status(id) {
        Some(snapshot) => snapshot_response(&snapshot),
        None => error_response(&ServiceError::UnknownJob { id }),
    }
}

fn job_cancel(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    let id = match parse_job_id(ctx) {
        Ok(id) => id,
        Err(error) => return error_response(&error),
    };
    match app.scheduler.status(id) {
        None => error_response(&ServiceError::UnknownJob { id }),
        // `cancel` re-checks terminality under the scheduler lock: a job
        // that settles between the status read and the cancel reports a
        // conflict, never `cancelled: true`.
        Some(_) if app.scheduler.cancel(id) => {
            let snapshot = app.scheduler.status(id).expect("job still known");
            Response::json(
                202,
                Json::object([
                    ("job", Json::count(id)),
                    ("state", Json::str(snapshot.state.as_str())),
                    ("cancelled", Json::Bool(true)),
                ])
                .render(),
            )
        }
        Some(_) => {
            // Re-read: the pre-cancel snapshot may predate the settling.
            let state = app
                .scheduler
                .status(id)
                .map_or("settled", |s| s.state.as_str());
            error_response(&ServiceError::Conflict {
                message: format!("job {id} is already {state}"),
            })
        }
    }
}

fn shutdown(app: &Arc<App>, ctx: &RouteContext<'_>) -> Response {
    if !ctx.peer.ip().is_loopback() {
        return error_response(&ServiceError::Forbidden {
            message: "POST /shutdown is only accepted from loopback".to_string(),
        });
    }
    let deadline_ms = if ctx.request.body.trim().is_empty() {
        5_000
    } else {
        match parse_body(ctx).and_then(|body| {
            body.get("deadline_ms")
                .map(|v| v.as_u64("deadline_ms").map_err(ServiceError::bad_request))
                .unwrap_or(Ok(5_000))
        }) {
            Ok(ms) => ms,
            Err(error) => return error_response(&error),
        }
    };
    let report = app.scheduler.drain(Duration::from_millis(deadline_ms));
    // Stop the accept loop: raise the flag, then self-connect to wake it.
    *app.stopping.lock().expect("stop flag") = true;
    if let Some(addr) = app.local_addr.get() {
        let _ = std::net::TcpStream::connect_timeout(addr, Duration::from_secs(1));
    }
    Response::json(
        200,
        Json::object([
            ("status", Json::str("drained")),
            ("finished", Json::count(report.finished)),
            ("cancelled", Json::count(report.cancelled)),
        ])
        .render(),
    )
}

/// A running service: the bound address plus handles to stop and join it.
#[derive(Debug)]
pub struct ServiceHandle {
    app: Arc<App>,
    server: ServerHandle,
}

impl ServiceHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The shared app state (scheduler, cache, metrics).
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Drains the scheduler and stops the server — the programmatic
    /// equivalent of `POST /shutdown`.
    pub fn shutdown(&self, deadline: Duration) {
        self.app.scheduler.drain(deadline);
        *self.app.stopping.lock().expect("stop flag") = true;
        self.server.stop();
    }

    /// Blocks until the accept loop exits (via [`ServiceHandle::shutdown`]
    /// or `POST /shutdown`), then joins connection threads.
    pub fn join(self) {
        self.server.join();
    }
}

/// Binds and starts a service instance.
///
/// # Errors
///
/// Propagates socket bind errors.
pub fn serve(config: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let app = App::new(config.clone());
    let router = app.router();
    let stop_app = Arc::clone(&app);
    let observe_app = Arc::clone(&app);
    let server = Server::bind(&config.addr, router, config.max_body_bytes)?
        .stop_when(move || *stop_app.stopping.lock().expect("stop flag"))
        .observe(move |response| observe_app.count_response(response));
    let _ = app.local_addr.set(server.local_addr()?);
    let server = server.start();
    Ok(ServiceHandle { app, server })
}
