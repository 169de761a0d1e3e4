//! The distributed ensemble fabric: shard dispatch, retry and merge.
//!
//! A coordinator daemon configured with worker addresses splits each
//! `/simulate` ensemble into trial-range shards, posts every shard to a
//! worker as a `"range": [start, end)` request, and merges the returned
//! [`EnsemblePartial`](gillespie::EnsemblePartial) wire documents into the
//! final report. Three properties hold by construction:
//!
//! * **Byte determinism** — trial `i` runs with seed `master_seed + i` on
//!   whichever worker gets its shard, and partials merge through exact
//!   accumulators whose readout is a pure function of the per-trial value
//!   multiset. The merged `EnsembleReport` is therefore bit-identical to a
//!   single-process run for *any* cluster shape, shard size, worker
//!   failure or retry pattern.
//! * **Bounded memory** — a shard travels as outcome counts plus `O(1)`
//!   exact accumulators, never per-trial samples, so a million-trial job
//!   costs the coordinator one small document per shard regardless of
//!   trial count. Running statistics stream through an exact
//!   [`EnsembleTally`](gillespie::EnsembleTally), read out as the report
//!   is, so once a job's shards have all landed they equal its report's
//!   figures bit for bit.
//! * **Fault tolerance** — a failed dispatch (dead worker, timeout, error
//!   status) retries on the next healthy worker with bounded doubling
//!   backoff; the worker registry's consecutive-failure counter steers
//!   round-robin away from dead workers until they answer again.
//!
//! Cache federation has two tiers: the coordinator's own
//! [`ResultCache`](crate::ResultCache) answers whole-job replays, and each
//! worker caches its shards under range-suffixed keys, so a re-sharded or
//! partially retried job reuses every shard the pool has seen before. The
//! per-tier hit/miss counters are exposed through `GET /fabric` and the
//! `fabric` section of `GET /metrics`.
//!
//! `/check` parameter sweeps ride the same machinery: each grid point is a
//! work unit dispatched to `/check` on a worker ([`Fabric::run_check`]),
//! retried and counted exactly like a simulate shard, with the per-point
//! verdict cached worker-side under the point's canonical key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gillespie::engine::CancelToken;
use gillespie::{EnsemblePartial, EnsembleTally};
use obs::log::{event, Level, Value};
use obs::trace::{SpanGuard, TraceContext, TraceSink};
use obs::MetricsRegistry;

use crate::api::{CheckPoint, SimulateRequest};
use crate::client::Client;
use crate::json::Json;
use crate::registry::{WorkerRegistry, WorkerSnapshot};

/// The request header a coordinator stamps on every shard dispatch so the
/// worker's spans attach to the coordinator's trace tree.
pub const TRACE_HEADER: &str = "x-stochsynth-trace";

/// Trace coordinates for one shard's dispatches: the sink spans are
/// recorded into, the owning trace, and the shard span every dispatch
/// attempt nests under. Purely observational — dispatch order, retries and
/// merges are identical with or without it.
#[derive(Clone)]
pub struct ShardTrace {
    /// Where dispatch spans are recorded.
    pub sink: Arc<TraceSink>,
    /// The coordinator's trace id (its job id, as text).
    pub trace_id: String,
    /// The shard span's id — the parent of every dispatch attempt span.
    pub parent: u64,
    /// The shard's chunk index, folded into dispatch span ids so attempts
    /// of different shards never collide.
    pub index: u64,
}

/// The span index of dispatch `attempt` of shard `shard`: the shard in the
/// high 32 bits and the attempt in the low 32, so no two (shard, attempt)
/// pairs share a span id.
fn dispatch_span_index(shard: u64, attempt: u32) -> u64 {
    (shard << 32) | u64::from(attempt)
}

/// Configuration of a fabric coordinator.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker addresses to register at startup.
    pub workers: Vec<String>,
    /// Trials per shard. `0` sizes shards automatically (about four per
    /// worker). A fixed explicit value makes shard boundaries independent
    /// of the pool size, which maximises worker-cache reuse when the
    /// cluster shape changes between runs.
    pub shard_trials: u64,
    /// Dispatch attempts per shard before the job fails.
    pub max_attempts: u32,
    /// Initial retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-shard HTTP I/O timeout.
    pub request_timeout: Duration,
    /// Per-address connect timeout (kept short so a dead worker costs
    /// little before the shard rebalances).
    pub connect_timeout: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: Vec::new(),
            shard_trials: 0,
            max_attempts: 6,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            request_timeout: Duration::from_secs(600),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

/// A point-in-time copy of the fabric counters. "Shard" counts every
/// dispatched work unit: simulate trial-range shards and `/check` grid
/// points alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricStats {
    /// Shards handed to workers (including retried dispatches).
    pub shards_dispatched: u64,
    /// Shards merged successfully.
    pub shards_completed: u64,
    /// Dispatches that had to be retried on another (or the same) worker.
    pub shard_retries: u64,
    /// Individual dispatch failures (connect, timeout, error status).
    pub worker_failures: u64,
    /// Shards a worker answered from its own result cache.
    pub remote_cache_hits: u64,
    /// Shards a worker had to compute.
    pub remote_cache_misses: u64,
}

/// The coordinator side of the distributed ensemble fabric.
#[derive(Debug)]
pub struct Fabric {
    registry: WorkerRegistry,
    config: FabricConfig,
    shards_dispatched: AtomicU64,
    shards_completed: AtomicU64,
    shard_retries: AtomicU64,
    worker_failures: AtomicU64,
    remote_cache_hits: AtomicU64,
    remote_cache_misses: AtomicU64,
    /// Exact accumulators over every trial merged so far, fed by shard
    /// tallies as they land — the streaming monitoring surface of long jobs
    /// (`GET /fabric` exposes it mid-flight).
    streamed: Mutex<EnsembleTally>,
    /// When set, per-worker round-trip histograms
    /// (`fabric_shard_rtt_us{worker="…"}`) are recorded here.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Fabric {
    /// Creates a fabric and registers the configured workers.
    pub fn new(config: FabricConfig) -> Fabric {
        let registry = WorkerRegistry::new();
        for addr in &config.workers {
            registry.register(addr);
        }
        Fabric {
            registry,
            config,
            shards_dispatched: AtomicU64::new(0),
            shards_completed: AtomicU64::new(0),
            shard_retries: AtomicU64::new(0),
            worker_failures: AtomicU64::new(0),
            remote_cache_hits: AtomicU64::new(0),
            remote_cache_misses: AtomicU64::new(0),
            streamed: Mutex::new(EnsembleTally::default()),
            metrics: None,
        }
    }

    /// Attaches a metrics registry; dispatches then record per-worker
    /// round-trip histograms into it.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Fabric {
        self.metrics = Some(registry);
        self
    }

    /// The worker registry (for `/fabric/workers` registration and tests).
    pub fn registry(&self) -> &WorkerRegistry {
        &self.registry
    }

    /// The configuration the fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Splits `trials` into shard ranges `[start, end)`.
    pub fn plan(&self, trials: u64) -> Vec<(u64, u64)> {
        let shard = if self.config.shard_trials > 0 {
            self.config.shard_trials
        } else {
            let workers = self.registry.len().max(1) as u64;
            trials.div_ceil(workers * 4)
        }
        .max(1);
        let mut ranges = Vec::with_capacity(trials.div_ceil(shard) as usize);
        let mut start = 0;
        while start < trials {
            let end = (start + shard).min(trials);
            ranges.push((start, end));
            start = end;
        }
        ranges
    }

    /// Runs one shard on the worker pool: dispatch, retry with bounded
    /// doubling backoff, rebalance onto surviving workers, and parse the
    /// returned partial.
    ///
    /// # Errors
    ///
    /// A message naming the shard and the last failure, once
    /// `max_attempts` dispatches failed or the job was cancelled.
    pub fn run_shard(
        &self,
        request: &SimulateRequest,
        range: (u64, u64),
        cancel: &CancelToken,
        trace: Option<&ShardTrace>,
    ) -> Result<EnsemblePartial, String> {
        let body = request.to_wire(range);
        let what = format!("shard [{}, {})", range.0, range.1);
        let partial = self.post_with_retry("/simulate", &body, &what, cancel, trace, |body| {
            let json = crate::json::parse(body)?;
            SimulateRequest::parse_partial(&json).map_err(|e| e.to_string())
        })?;
        self.streamed
            .lock()
            .expect("streamed tally lock")
            .merge(partial.tally());
        Ok(partial)
    }

    /// Runs one `/check` grid point on the worker pool, returning the
    /// worker's rendered verdict body verbatim (bodies travel opaquely so
    /// the sweep document stays byte-identical to a local solve). Shares
    /// the shard dispatch/retry machinery and counters — a point a worker
    /// answers from its cache counts as a remote cache hit, exactly like a
    /// replayed shard.
    ///
    /// # Errors
    ///
    /// A message naming the grid point and the last failure, once
    /// `max_attempts` dispatches failed or the job was cancelled.
    pub fn run_check(
        &self,
        point: &CheckPoint,
        index: usize,
        cancel: &CancelToken,
    ) -> Result<String, String> {
        let body = point.to_wire();
        let what = format!("check point {index}");
        self.post_with_retry("/check", &body, &what, cancel, None, |body| {
            // A worker that hit its wait timeout answers 200 with a job
            // *status* document; treat anything but a verdict as a failed
            // dispatch so the point retries rather than polluting the sweep.
            let json = crate::json::parse(body)?;
            match json.get("kind").and_then(|k| k.as_str("kind").ok()) {
                Some("check") => Ok(body.to_string()),
                _ => Err("worker answered without a check verdict".to_string()),
            }
        })
    }

    /// The shared dispatch driver: post `body` to `path` on the pool,
    /// retrying with bounded doubling backoff and rebalancing onto
    /// surviving workers; `parse` validates each answer (a parse failure
    /// counts as a worker failure and retries like any other).
    fn post_with_retry<T>(
        &self,
        path: &str,
        body: &str,
        what: &str,
        cancel: &CancelToken,
        trace: Option<&ShardTrace>,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut backoff = self.config.backoff;
        // Every attempt either returns or overwrites this, so it only
        // surfaces when no attempt is allowed at all.
        let mut last_error = "no dispatch was attempted (max_attempts is 0)".to_string();
        for attempt in 0..self.config.max_attempts {
            if cancel.is_cancelled() {
                return Err("job cancelled".to_string());
            }
            if attempt > 0 {
                self.shard_retries.fetch_add(1, Ordering::Relaxed);
                event(
                    Level::Debug,
                    "service::fabric",
                    "retry",
                    &[
                        ("what", Value::str(what)),
                        ("attempt", Value::U64(u64::from(attempt))),
                        ("backoff_ms", Value::U64(backoff.as_millis() as u64)),
                        ("last_error", Value::str(&last_error)),
                    ],
                );
                sleep_cancellable(backoff, cancel);
                backoff = (backoff * 2).min(self.config.backoff_cap);
            }
            let Some(addr) = self.registry.next_worker() else {
                return Err("no workers registered".to_string());
            };
            self.shards_dispatched.fetch_add(1, Ordering::Relaxed);
            // The dispatch span is opened *before* the call so the worker
            // can be told its parent through the trace header.
            let dispatch_span = trace.map(|t| {
                let index = dispatch_span_index(t.index, attempt);
                t.sink.span(&t.trace_id, "dispatch", index, Some(t.parent))
            });
            let started = Instant::now();
            let outcome = self
                .dispatch(
                    &addr,
                    path,
                    body,
                    dispatch_span.as_ref().map(SpanGuard::context),
                )
                .and_then(|(body, hit)| parse(&body).map(|parsed| (parsed, hit)));
            let rtt = started.elapsed();
            let rtt_us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
            if let Some(registry) = &self.metrics {
                registry
                    .histogram(&format!("fabric_shard_rtt_us{{worker=\"{addr}\"}}"))
                    .record(rtt_us);
            }
            if let Some(span) = dispatch_span {
                span.attr("worker", &addr)
                    .attr("attempt", attempt)
                    .attr("outcome", if outcome.is_ok() { "ok" } else { "error" })
                    .finish();
            }
            event(
                Level::Trace,
                "service::fabric",
                "dispatch",
                &[
                    ("what", Value::str(what)),
                    ("worker", Value::str(&addr)),
                    ("attempt", Value::U64(u64::from(attempt))),
                    ("rtt_us", Value::U64(rtt_us)),
                    ("ok", Value::Bool(outcome.is_ok())),
                ],
            );
            match outcome {
                Ok((parsed, cache_hit)) => {
                    self.registry.record_success(&addr, cache_hit);
                    if cache_hit {
                        self.remote_cache_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.remote_cache_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    self.shards_completed.fetch_add(1, Ordering::Relaxed);
                    return Ok(parsed);
                }
                Err(error) => {
                    self.registry.record_failure(&addr);
                    self.worker_failures.fetch_add(1, Ordering::Relaxed);
                    last_error = format!("worker {addr}: {error}");
                }
            }
        }
        event(
            Level::Warn,
            "service::fabric",
            "dispatch_exhausted",
            &[
                ("what", Value::str(what)),
                ("attempts", Value::U64(u64::from(self.config.max_attempts))),
                ("last_error", Value::str(&last_error)),
            ],
        );
        Err(format!(
            "{what} failed after {} attempts: {last_error}",
            self.config.max_attempts
        ))
    }

    /// One dispatch: post the request (stamping the trace header when this
    /// hop is traced), check the status, report the body and whether the
    /// worker's cache answered it.
    fn dispatch(
        &self,
        addr: &str,
        path: &str,
        body: &str,
        hop: Option<TraceContext>,
    ) -> Result<(String, bool), String> {
        let client = Client::new(addr)?
            .timeout(self.config.request_timeout)
            .connect_timeout(self.config.connect_timeout);
        let reply = match hop {
            Some(context) => client.post_with_headers(
                path,
                body,
                &[(TRACE_HEADER, context.header_value().as_str())],
            )?,
            None => client.post(path, body)?,
        };
        if !reply.is_success() {
            return Err(format!("status {}: {}", reply.status, reply.body));
        }
        let cache_hit = reply.header("cache") == Some("hit");
        Ok((reply.body, cache_hit))
    }

    /// The fabric counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            shards_dispatched: self.shards_dispatched.load(Ordering::Relaxed),
            shards_completed: self.shards_completed.load(Ordering::Relaxed),
            shard_retries: self.shard_retries.load(Ordering::Relaxed),
            worker_failures: self.worker_failures.load(Ordering::Relaxed),
            remote_cache_hits: self.remote_cache_hits.load(Ordering::Relaxed),
            remote_cache_misses: self.remote_cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Renders the fabric state (counters, streaming statistics, worker
    /// pool) — the body of `GET /fabric` and the `fabric` section of
    /// `GET /metrics`.
    pub fn render(&self) -> Json {
        let stats = self.stats();
        let mut streamed = self.streamed.lock().expect("streamed tally lock");
        let (mean_final_time, final_time_variance) = streamed.final_time_stats();
        let workers: Vec<Json> = self.registry.snapshot().iter().map(render_worker).collect();
        Json::object([
            ("shards_dispatched", Json::count(stats.shards_dispatched)),
            ("shards_completed", Json::count(stats.shards_completed)),
            ("shard_retries", Json::count(stats.shard_retries)),
            ("worker_failures", Json::count(stats.worker_failures)),
            ("remote_cache_hits", Json::count(stats.remote_cache_hits)),
            (
                "remote_cache_misses",
                Json::count(stats.remote_cache_misses),
            ),
            (
                "streaming",
                Json::object([
                    ("trials", Json::count(streamed.trials())),
                    ("mean_final_time", Json::num(mean_final_time)),
                    ("final_time_variance", Json::num(final_time_variance)),
                ]),
            ),
            ("workers", Json::Array(workers)),
        ])
    }
}

fn render_worker(worker: &WorkerSnapshot) -> Json {
    Json::object([
        ("addr", Json::str(worker.addr.clone())),
        ("healthy", Json::Bool(worker.healthy)),
        (
            "consecutive_failures",
            Json::count(u64::from(worker.consecutive_failures)),
        ),
        ("dispatched", Json::count(worker.dispatched)),
        ("completed", Json::count(worker.completed)),
        ("failed", Json::count(worker.failed)),
        ("cache_hits", Json::count(worker.cache_hits)),
        ("cache_misses", Json::count(worker.cache_misses)),
    ])
}

/// Sleeps up to `total`, polling the cancel token every few milliseconds
/// so a cancelled job stops backing off promptly.
fn sleep_cancellable(total: Duration, cancel: &CancelToken) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while !remaining.is_zero() && !cancel.is_cancelled() {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tiles_the_trial_range_exactly() {
        let fabric = Fabric::new(FabricConfig {
            shard_trials: 100,
            ..FabricConfig::default()
        });
        let plan = fabric.plan(250);
        assert_eq!(plan, vec![(0, 100), (100, 200), (200, 250)]);
        // Explicit shard size is independent of the worker pool.
        assert_eq!(fabric.plan(100), vec![(0, 100)]);
        assert_eq!(fabric.plan(1), vec![(0, 1)]);
    }

    #[test]
    fn auto_plan_scales_with_the_pool() {
        let fabric = Fabric::new(FabricConfig {
            workers: vec!["a".to_string(), "b".to_string()],
            ..FabricConfig::default()
        });
        let plan = fabric.plan(800);
        assert_eq!(plan.len(), 8, "plan: {plan:?}");
        assert_eq!(plan.first(), Some(&(0, 100)));
        assert_eq!(plan.last(), Some(&(700, 800)));
        // The tiling is gapless.
        for window in plan.windows(2) {
            assert_eq!(window[0].1, window[1].0);
        }
    }

    #[test]
    fn run_shard_without_workers_fails_fast() {
        let fabric = Fabric::new(FabricConfig::default());
        let body =
            crate::json::parse("{\"network\":\"x -> h @ 1\",\"initial\":{\"x\":1},\"trials\":10}")
                .unwrap();
        let request = SimulateRequest::parse(&body).unwrap();
        let err = fabric
            .run_shard(&request, (0, 10), &CancelToken::new(), None)
            .unwrap_err();
        assert!(err.contains("no workers"), "err: {err}");
    }

    #[test]
    fn zero_attempts_fail_without_blaming_the_pool() {
        let fabric = Fabric::new(FabricConfig {
            workers: vec!["127.0.0.1:1".to_string()],
            max_attempts: 0,
            ..FabricConfig::default()
        });
        let body =
            crate::json::parse("{\"network\":\"x -> h @ 1\",\"initial\":{\"x\":1},\"trials\":10}")
                .unwrap();
        let request = SimulateRequest::parse(&body).unwrap();
        let err = fabric
            .run_shard(&request, (0, 10), &CancelToken::new(), None)
            .unwrap_err();
        assert!(!err.contains("no workers"), "err: {err}");
        assert!(err.contains("max_attempts is 0"), "err: {err}");
        assert_eq!(fabric.stats().shards_dispatched, 0);
    }

    #[test]
    fn dispatch_span_ids_stay_distinct_past_a_thousand_attempts() {
        // A `shard * 1000 + attempt` index would give shard 0's attempt
        // 1000 the id of shard 1's attempt 0.
        let id = |shard, attempt| {
            obs::trace::span_id("7", "dispatch", dispatch_span_index(shard, attempt))
        };
        assert_ne!(id(0, 1000), id(1, 0));
        assert_ne!(id(0, u32::MAX), id(1, 0));
        assert_eq!(dispatch_span_index(3, 5) >> 32, 3);
        assert_eq!(dispatch_span_index(3, 5) as u32, 5);
    }

    #[test]
    fn cancelled_jobs_stop_dispatching() {
        let fabric = Fabric::new(FabricConfig {
            workers: vec!["127.0.0.1:1".to_string()],
            ..FabricConfig::default()
        });
        let body =
            crate::json::parse("{\"network\":\"x -> h @ 1\",\"initial\":{\"x\":1},\"trials\":10}")
                .unwrap();
        let request = SimulateRequest::parse(&body).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = fabric
            .run_shard(&request, (0, 10), &token, None)
            .unwrap_err();
        assert!(err.contains("cancelled"), "err: {err}");
    }
}
