//! Telemetry integration tests: structured logging and trace-span
//! recording never change result bytes, `GET /trace/:job_id` exposes the
//! full span tree of a fabric job, and both metrics expositions stay
//! consistent with the traffic that produced them.
//!
//! The global logger is process-wide, so every assertion that captures or
//! reconfigures it lives in ONE test (`trace_level_logging_...`); the
//! other tests leave the logger alone (its default state is off).

use std::collections::HashSet;
use std::time::Duration;

use obs::log::BufferWriter;
use service::json::Json;
use service::{serve, Client, FabricConfig, ServiceConfig, ServiceHandle};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 256,
        max_body_bytes: 1 << 20,
        fabric: None,
        slow_request_ms: 10_000,
    }
}

fn boot_workers(n: usize) -> (Vec<ServiceHandle>, Vec<String>) {
    let handles: Vec<ServiceHandle> = (0..n)
        .map(|_| serve(test_config()).expect("bind worker"))
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

fn boot_coordinator(workers: Vec<String>, shard_trials: u64) -> ServiceHandle {
    let mut config = test_config();
    // Any request slower than 1 ms is "slow" — which a fabric ensemble job
    // always is, so the slow_request warning path gets exercised.
    config.slow_request_ms = 1;
    config.fabric = Some(FabricConfig {
        workers,
        shard_trials,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..FabricConfig::default()
    });
    serve(config).expect("bind coordinator")
}

fn coin_request(seed: u64, trials: u64, wait: bool) -> String {
    format!(
        "{{\"network\":\"x -> h @ 3\\nx -> t @ 1\",\"initial\":{{\"x\":1}},\
         \"trials\":{trials},\"seed\":{seed},\"wait\":{wait},\
         \"classifier\":[\
         {{\"species\":\"h\",\"at_least\":1,\"outcome\":\"heads\"}},\
         {{\"species\":\"t\",\"at_least\":1,\"outcome\":\"tails\"}}]}}"
    )
}

fn json_number(body: &str, path: &[&str]) -> f64 {
    let mut value = service::json::parse(body).expect("valid JSON body");
    for key in path {
        value = value
            .get(key)
            .unwrap_or_else(|| panic!("missing `{key}` in {body}"))
            .clone();
    }
    value.as_f64(path.last().unwrap()).expect("numeric field")
}

fn shutdown_all(handles: impl IntoIterator<Item = ServiceHandle>) {
    for handle in handles {
        handle.shutdown(Duration::from_secs(5));
        handle.join();
    }
}

/// One parsed span from a `/trace/:id` body.
#[derive(Debug)]
struct SpanRow {
    id: String,
    parent: Option<String>,
    name: String,
    attrs: Vec<(String, String)>,
}

fn parse_spans(body: &str) -> Vec<SpanRow> {
    let parsed = service::json::parse(body).expect("valid trace body");
    let Some(Json::Array(spans)) = parsed.get("spans") else {
        panic!("no spans array in {body}");
    };
    spans
        .iter()
        .map(|span| {
            let field = |key: &str| {
                span.get(key)
                    .unwrap_or_else(|| panic!("span missing `{key}` in {body}"))
                    .clone()
            };
            let id = field("id").as_str("id").expect("span id").to_string();
            let parent = match field("parent") {
                Json::Null => None,
                Json::String(parent) => Some(parent),
                other => panic!("span parent is {other:?}"),
            };
            let name = field("name").as_str("name").expect("span name").to_string();
            let Json::Array(attrs) = field("attrs") else {
                panic!("span attrs are not an array in {body}");
            };
            let attrs = attrs
                .iter()
                .map(|attr| {
                    let text = |key: &str| {
                        attr.get(key)
                            .and_then(|v| v.as_str(key).ok())
                            .unwrap_or_else(|| panic!("attr missing `{key}` in {body}"))
                            .to_string()
                    };
                    (text("key"), text("value"))
                })
                .collect();
            SpanRow {
                id,
                parent,
                name,
                attrs,
            }
        })
        .collect()
}

/// The tentpole's acceptance gate: turn EVERYTHING on — trace-level JSON
/// logging into a capture buffer, a 3-worker fabric with trace-header
/// propagation, a 1 ms slow-request threshold — and the result bytes must
/// still be identical to a silent single-process run. Then walk the
/// recorded span tree end to end.
#[test]
fn trace_level_logging_leaves_fabric_bytes_identical_and_records_the_span_tree() {
    // Reference bytes first, with the logger in its default (off) state.
    let reference_request = coin_request(99, 600, true);
    let single = serve(test_config()).expect("bind single");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/simulate", &reference_request)
        .expect("single-process run");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    shutdown_all([single]);

    // Now the loudest possible telemetry configuration.
    let buffer = BufferWriter::new();
    obs::logger().set_writer(Box::new(buffer.clone()));
    obs::logger().set_json(true);
    obs::logger().set_level_spec("trace").expect("level spec");

    let (workers, addrs) = boot_workers(3);
    let coordinator = boot_coordinator(addrs, 200); // 600 trials → 3 shards
    let client = Client::new(coordinator.addr()).expect("client");
    let reply = client
        .post("/simulate", &reference_request)
        .expect("fabric run");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(
        reply.body, reference.body,
        "trace-level logging + fabric tracing changed the result bytes"
    );

    // A fresh-seed async submission hands back the job id, which is the
    // trace id. (A cache replay would record no trace at all.)
    let submitted = client
        .post("/simulate", &coin_request(100, 600, false))
        .expect("async submit");
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let job = json_number(&submitted.body, &["job"]) as u64;
    let done = client
        .get(&format!("/jobs/{job}?wait=1"))
        .expect("wait for job");
    assert_eq!(done.status, 200, "body: {}", done.body);

    // Coordinator-side span tree: root job span, parse, classify,
    // schedule-wait, one shard span per planned shard with its dispatch
    // attempts, and the merge.
    let trace = client.get(&format!("/trace/{job}")).expect("trace query");
    assert_eq!(trace.status, 200, "body: {}", trace.body);
    let spans = parse_spans(&trace.body);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("job"), 1, "spans: {:?}", spans);
    assert_eq!(count("parse"), 1, "spans: {:?}", spans);
    assert_eq!(count("classify"), 1, "spans: {:?}", spans);
    assert_eq!(count("schedule-wait"), 1, "spans: {:?}", spans);
    assert_eq!(count("shard"), 3, "spans: {:?}", spans);
    assert!(count("dispatch") >= 3, "spans: {:?}", spans);
    assert_eq!(count("merge"), 1, "spans: {:?}", spans);

    // The tree is well-formed: exactly one root, and every parent id
    // resolves to another recorded span.
    let ids: HashSet<&str> = spans.iter().map(|s| s.id.as_str()).collect();
    for span in &spans {
        match (&span.parent, span.name.as_str()) {
            (None, "job") => {}
            (None, other) => panic!("span `{other}` has no parent"),
            (Some(parent), _) => {
                assert!(
                    ids.contains(parent.as_str()),
                    "span `{}` has dangling parent {parent}; spans: {:?}",
                    span.name,
                    spans
                );
            }
        }
    }

    // Worker-side: the trace header carried the coordinator's trace id, so
    // the workers' own sinks hold the `shard-exec` spans for this job.
    let mut shard_execs = 0;
    for worker in &workers {
        let reply = Client::new(worker.addr())
            .expect("client")
            .get(&format!("/trace/{job}"))
            .expect("worker trace query");
        if reply.status == 200 {
            shard_execs += parse_spans(&reply.body)
                .iter()
                .filter(|s| s.name == "shard-exec")
                .count();
        }
    }
    assert!(
        shard_execs >= 3,
        "expected one shard-exec span per shard across the workers, saw {shard_execs}"
    );

    // Captured log output: JSON lines with the standard envelope, covering
    // the scheduler, the fabric and the slow-request warning (the 1 ms
    // threshold on the coordinator makes every ensemble job "slow").
    let contents = buffer.contents();
    assert!(!contents.is_empty(), "trace-level run logged nothing");
    for line in contents.lines().filter(|l| !l.is_empty()) {
        let parsed = service::json::parse(line)
            .unwrap_or_else(|e| panic!("log line is not JSON ({e}): {line}"));
        for key in ["ts_us", "level", "target", "event"] {
            assert!(
                parsed.get(key).is_some(),
                "log line missing `{key}`: {line}"
            );
        }
    }
    for event in [
        "job_queued",
        "job_started",
        "job_finished",
        "dispatch",
        "slow_request",
    ] {
        assert!(
            contents.contains(&format!("\"event\":\"{event}\"")),
            "no `{event}` event in captured logs:\n{contents}"
        );
    }

    // Leave the global logger silent for any test scheduled after this one.
    obs::logger().set_level_spec("off").expect("reset level");
    obs::logger().set_json(false);
    shutdown_all([coordinator]);
    shutdown_all(workers);
}

/// The JSON exposition gained an additive per-endpoint section, and
/// `?format=text` renders the whole registry (plus cache/scheduler extras)
/// as a Prometheus-style text document.
#[test]
fn metrics_expositions_cover_endpoints_uptime_and_cache() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    let request = coin_request(7, 50, true);
    let first = client.post("/simulate", &request).expect("simulate");
    assert_eq!(first.status, 200, "body: {}", first.body);
    let bad = client
        .post("/simulate", "{definitely not json")
        .expect("bad request");
    assert_eq!(bad.status, 400, "body: {}", bad.body);
    let replay = client.post("/simulate", &request).expect("replay");
    assert_eq!(replay.header("cache"), Some("hit"));

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(json_number(&metrics.body, &["uptime_ms"]) >= 0.0);
    assert_eq!(
        json_number(&metrics.body, &["endpoints", "simulate", "requests"]),
        3.0,
        "body: {}",
        metrics.body
    );
    assert_eq!(
        json_number(&metrics.body, &["endpoints", "simulate", "responses_4xx"]),
        1.0
    );
    assert_eq!(
        json_number(
            &metrics.body,
            &["endpoints", "simulate", "latency_us", "count"]
        ),
        3.0
    );
    // The legacy shape is untouched: the per-endpoint counter and the named
    // field are the same series.
    assert_eq!(
        json_number(&metrics.body, &["http", "simulate_requests"]),
        3.0
    );

    let text = client.get("/metrics?format=text").expect("text metrics");
    assert_eq!(text.status, 200);
    assert_eq!(
        text.header("content-type"),
        Some("text/plain; charset=utf-8")
    );
    for needle in [
        "http_requests_total{endpoint=\"simulate\"} 3\n",
        "http_responses_total{endpoint=\"simulate\",class=\"4xx\"} 1\n",
        "http_request_duration_us{endpoint=\"simulate\",quantile=\"0.5\"}",
        "sim_steps_total{stepper=\"",
        "scheduler_queue_depth 0\n",
        "scheduler_queue_wait_us_count 1\n",
        "cache_lookup_duration_us_count 2\n",
        "cache_hits_total 1\n",
        "cache_misses_total 1\n",
        "service_uptime_ms",
    ] {
        assert!(
            text.body.contains(needle),
            "missing `{needle}` in:\n{}",
            text.body
        );
    }

    // The JSON exposition's key order is part of its shape. An `auto`
    // request and its cache-hit replay each count one resolution.
    let auto = coin_request(8, 50, true).replacen('{', "{\"method\":\"auto\",", 1);
    for _ in 0..2 {
        let reply = client.post("/simulate", &auto).expect("auto simulate");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
    }
    let body = client.get("/metrics").expect("metrics").body;
    let metrics = service::json::parse(&body).expect("metrics JSON");
    let members = |path: &str| -> Vec<(String, Json)> {
        let value = if path.is_empty() {
            &metrics
        } else {
            metrics.get(path).expect("metrics section")
        };
        let Json::Object(members) = value else {
            panic!("`{path}` is not an object in {body}");
        };
        members.clone()
    };
    let keys = |path: &str| -> Vec<String> { members(path).into_iter().map(|(k, _)| k).collect() };
    assert_eq!(
        keys(""),
        [
            "uptime_ms",
            "http",
            "endpoints",
            "auto_resolutions",
            "cache",
            "scheduler"
        ]
    );
    assert_eq!(
        keys("http"),
        [
            "requests",
            "responses_4xx",
            "responses_5xx",
            "simulate_requests",
            "exact_requests",
            "synthesize_requests",
            "check_requests"
        ]
    );
    assert_eq!(
        keys("auto_resolutions"),
        [
            "direct",
            "next_reaction",
            "composition_rejection",
            "tau_leaping",
            "hybrid"
        ]
    );
    let resolved: f64 = members("auto_resolutions")
        .iter()
        .map(|(kind, count)| count.as_f64(kind).expect("count"))
        .sum();
    assert_eq!(resolved, 2.0, "body: {body}");
    assert_eq!(json_number(&body, &["http", "simulate_requests"]), 5.0);
    assert_eq!(
        json_number(&body, &["endpoints", "simulate", "requests"]),
        5.0
    );

    shutdown_all([handle]);
}

/// Submits `body` to `path` without waiting, waits for the job, and
/// returns its id (which is also its trace id).
fn run_job(client: &Client, path: &str, body: &str) -> u64 {
    let submitted = client.post(path, body).expect("async submit");
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let job = json_number(&submitted.body, &["job"]) as u64;
    let done = client
        .get(&format!("/jobs/{job}?wait=1"))
        .expect("wait for job");
    assert_eq!(done.status, 200, "body: {}", done.body);
    job
}

/// Asserts that the trace of `job` holds exactly the `expected` spans:
/// `(name, index, parent name, attr keys)`. Each span's id must be
/// `span_id(job, name, index)` and its parent the `index 0` span of the
/// named parent. Returns the spans for further checks.
fn assert_span_tree(
    client: &Client,
    job: u64,
    expected: &[(&str, u64, Option<&str>, &[&str])],
) -> Vec<SpanRow> {
    let trace_id = job.to_string();
    let hex =
        |name: &str, index: u64| format!("{:016x}", obs::trace::span_id(&trace_id, name, index));
    let body = client.get(&format!("/trace/{job}")).expect("trace").body;
    let spans = parse_spans(&body);
    assert_eq!(spans.len(), expected.len(), "spans: {spans:?}");
    for &(name, index, parent, attrs) in expected {
        let id = hex(name, index);
        let span = spans
            .iter()
            .find(|span| span.id == id)
            .unwrap_or_else(|| panic!("no `{name}` #{index} span in {spans:?}"));
        assert_eq!(span.name, name);
        assert_eq!(span.parent, parent.map(|parent| hex(parent, 0)), "{span:?}");
        let keys: Vec<&str> = span.attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, attrs, "{span:?}");
    }
    spans
}

/// The value of attribute `key` on `span`.
fn attr<'a>(span: &'a SpanRow, key: &str) -> Option<&'a str> {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Pins the span tree of every submission endpoint on a single node:
/// `/simulate` records `job → parse, classify, schedule-wait, shard × chunks,
/// merge` with the engine's work counters on each shard; `/exact`, `/check`
/// and `/synthesize` record `job → schedule-wait`.
#[test]
fn local_jobs_record_pinned_span_trees() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");

    // Local chunk plan: about four chunks per scheduler worker.
    let trials = 50u64;
    let chunk = trials.div_ceil((test_config().workers as u64 * 4).clamp(1, trials));
    let chunks = trials.div_ceil(chunk);
    let job = run_job(&client, "/simulate", &coin_request(4242, trials, false));
    let mut expected: Vec<(&str, u64, Option<&str>, &[&str])> = vec![
        ("job", 0, None, &["label", "outcome"]),
        ("parse", 0, Some("job"), &[]),
        ("classify", 0, Some("job"), &["method", "resolved"]),
        ("schedule-wait", 0, Some("job"), &[]),
        ("merge", 0, Some("job"), &["partials"]),
    ];
    for index in 0..chunks {
        expected.push((
            "shard",
            index,
            Some("job"),
            &["range", "steps", "propensity_evals"],
        ));
    }
    for span in assert_span_tree(&client, job, &expected) {
        match span.name.as_str() {
            "job" => {
                assert_eq!(attr(&span, "label"), Some("simulate"));
                assert_eq!(attr(&span, "outcome"), Some("ok"));
            }
            "merge" => assert_eq!(attr(&span, "partials"), Some(&*chunks.to_string())),
            "shard" => {
                for counter in ["steps", "propensity_evals"] {
                    let value: u64 = attr(&span, counter).unwrap().parse().expect("count");
                    assert!(value > 0, "{span:?}");
                }
            }
            _ => {}
        }
    }

    let exact = "{\"network\":\"x -> heads @ 3\\nx -> tails @ 1\",\
        \"initial\":{\"x\":1},\
        \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
        \"analysis\":{\"type\":\"first_passage\",\"outcomes\":[\
        {\"name\":\"heads\",\"species\":\"heads\",\"at_least\":1},\
        {\"name\":\"tails\",\"species\":\"tails\",\"at_least\":1}]},\
        \"wait\":false}";
    let check = "{\"network\":\"x -> h @ 3\\nx -> t @ 1\",\"initial\":{\"x\":1},\
        \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
        \"property\":{\"type\":\"reach_before\",\
        \"target\":{\"species\":\"h\",\"at_least\":1},\
        \"competitor\":{\"species\":\"t\",\"at_least\":1}},\"wait\":false}";
    let synthesize = "{\"input\":\"moi\",\
        \"response\":{\"constant\":2,\"log2\":1,\"linear\":1},\
        \"outcomes\":[\"lysis\",\"lysogeny\"],\"outputs\":[\"cro2\",\"ci2\"],\
        \"thresholds\":[1,1],\"food\":[1,1],\"input_total\":8,\
        \"input_range\":[1,4],\"evaluate\":[1,2],\"wait\":false}";
    for (path, body) in [
        ("/exact", exact),
        ("/check", check),
        ("/synthesize", synthesize),
    ] {
        let job = run_job(&client, path, body);
        let spans = assert_span_tree(
            &client,
            job,
            &[
                ("job", 0, None, &["label", "outcome"]),
                ("schedule-wait", 0, Some("job"), &[]),
            ],
        );
        let root = spans.iter().find(|span| span.name == "job").unwrap();
        assert_eq!(attr(root, "label"), Some(&path[1..]));
        assert_eq!(attr(root, "outcome"), Some("ok"));
    }

    shutdown_all([handle]);
}

/// `/trace/:id` input validation: unknown jobs 404, non-numeric ids 400.
#[test]
fn trace_endpoint_rejects_unknown_and_malformed_ids() {
    let handle = serve(test_config()).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    assert_eq!(client.get("/trace/999999").expect("query").status, 404);
    assert_eq!(client.get("/trace/not-a-job").expect("query").status, 400);
    shutdown_all([handle]);
}

/// Queue-depth and running-jobs gauges move with the scheduler: a saturated
/// one-worker daemon reports a visible queue through the text exposition.
#[test]
fn scheduler_gauges_track_queue_depth() {
    let mut config = test_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let client = Client::new(handle.addr()).expect("client");
    // A pile of async jobs (distinct seeds defeat the cache) on one worker:
    // at least some must be queued or running when we sample the gauges.
    for seed in 0..8 {
        let reply = client
            .post("/simulate", &coin_request(1_000 + seed, 50_000, false))
            .expect("submit");
        assert_eq!(reply.status, 202, "body: {}", reply.body);
    }
    let text = client.get("/metrics?format=text").expect("text metrics");
    let gauge = |name: &str| -> f64 {
        text.body
            .lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no `{name}` in:\n{}", text.body))
            .trim()
            .parse()
            .expect("gauge value")
    };
    assert!(
        gauge("scheduler_queue_depth") + gauge("scheduler_running_jobs") >= 1.0,
        "all jobs settled before the gauges were sampled:\n{}",
        text.body
    );
    shutdown_all([handle]);
}
