//! Distributed-fabric integration tests over real sockets: byte-determinism
//! across cluster shapes, fault injection, cache federation, worker
//! registration and streaming statistics.

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use service::{serve, Client, FabricConfig, ServiceConfig, ServiceHandle};

fn worker_config() -> ServiceConfig {
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

/// Boots `n` plain worker daemons and returns their handles + addresses.
fn boot_workers(n: usize) -> (Vec<ServiceHandle>, Vec<String>) {
    let handles: Vec<ServiceHandle> = (0..n)
        .map(|_| serve(worker_config()).expect("bind worker"))
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

/// Boots a coordinator daemon sharding across `workers` with a fixed shard
/// size, so shard boundaries (and therefore worker cache keys) do not
/// depend on the cluster shape.
fn boot_coordinator(workers: Vec<String>, shard_trials: u64) -> ServiceHandle {
    let mut config = worker_config();
    config.fabric = Some(FabricConfig {
        workers,
        shard_trials,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..FabricConfig::default()
    });
    serve(config).expect("bind coordinator")
}

fn coin_request(seed: u64, trials: u64) -> String {
    format!(
        "{{\"network\":\"x -> h @ 3\\nx -> t @ 1\",\"initial\":{{\"x\":1}},\
         \"trials\":{trials},\"seed\":{seed},\"wait\":true,\
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

/// An address nothing listens on: bind an ephemeral port, then drop the
/// listener so every connect is refused — a permanently dead worker.
fn dead_worker_addr() -> String {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr")
        .to_string()
}

/// The acceptance gate: the same ensemble served single-process and by
/// 1-, 2- and 4-worker fabrics must produce byte-identical response
/// bodies — cluster shape must be unobservable in the result.
#[test]
fn sharded_reports_are_byte_identical_across_cluster_shapes() {
    let request = coin_request(42, 2_000);

    // Reference bytes: a plain single-process daemon.
    let single = serve(worker_config()).expect("bind");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/simulate", &request)
        .expect("single-process run");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    shutdown_all([single]);

    for pool_size in [1usize, 2, 4] {
        let (workers, addrs) = boot_workers(pool_size);
        let coordinator = boot_coordinator(addrs, 250);
        let reply = Client::new(coordinator.addr())
            .expect("client")
            .post("/simulate", &request)
            .expect("fabric run");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        assert_eq!(
            reply.body, reference.body,
            "{pool_size}-worker fabric diverged from the single-process run"
        );

        // The coordinator really sharded: 2000 trials / 250 = 8 shards.
        let fabric = Client::new(coordinator.addr())
            .expect("client")
            .get("/fabric")
            .expect("fabric state");
        assert_eq!(json_number(&fabric.body, &["shards_completed"]), 8.0);
        assert_eq!(json_number(&fabric.body, &["streaming", "trials"]), 2_000.0);

        shutdown_all([coordinator]);
        shutdown_all(workers);
    }
}

/// Fault injection: a pool with a permanently dead worker and a worker
/// killed mid-job still produces the exact single-process bytes — shards
/// rebalance onto survivors, and the retries are visible in the metrics.
#[test]
fn worker_failures_rebalance_without_changing_the_bytes() {
    let request = coin_request(7, 4_000);

    let single = serve(worker_config()).expect("bind");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/simulate", &request)
        .expect("single-process run");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    shutdown_all([single]);

    // Pool of three: one dead on arrival, two live — one of which is shot
    // mid-job.
    let (mut workers, mut addrs) = boot_workers(2);
    addrs.insert(0, dead_worker_addr());
    let coordinator = boot_coordinator(addrs, 100); // 40 shards
    let client = Client::new(coordinator.addr()).expect("client");

    // Submit asynchronously, then kill a live worker while shards are in
    // flight; its unfinished shards must retry onto the survivor.
    let submitted = client
        .post(
            "/simulate",
            &request.replace("\"wait\":true", "\"wait\":false"),
        )
        .expect("submit");
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let id = json_number(&submitted.body, &["job"]) as u64;
    let victim = workers.remove(0);
    victim.shutdown(Duration::from_secs(5));
    victim.join();

    let done = client
        .get(&format!("/jobs/{id}?wait=1"))
        .expect("poll to completion");
    assert_eq!(
        done.header("x-job-state"),
        Some("completed"),
        "{}",
        done.body
    );
    assert_eq!(
        done.body, reference.body,
        "fault-injected fabric run diverged from the single-process bytes"
    );

    // The dead worker was dispatched to, failed, and the shards retried.
    let fabric = client.get("/fabric").expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["shards_completed"]), 40.0);
    assert!(json_number(&fabric.body, &["worker_failures"]) >= 1.0);
    assert!(json_number(&fabric.body, &["shard_retries"]) >= 1.0);

    shutdown_all([coordinator]);
    shutdown_all(workers);
}

/// Cache federation: a *fresh* coordinator re-running a job over a pool
/// that has already computed its shards is answered entirely from the
/// workers' caches — and the replay is byte-identical.
#[test]
fn worker_caches_answer_resharded_replays() {
    let request = coin_request(11, 1_000);
    // One worker, so every shard lands in the same cache — shard→worker
    // assignment in larger pools depends on chunk scheduling order, which
    // would make the hit count nondeterministic.
    let (workers, addrs) = boot_workers(1);

    let first = boot_coordinator(addrs.clone(), 250);
    let original = Client::new(first.addr())
        .expect("client")
        .post("/simulate", &request)
        .expect("first fabric run");
    assert_eq!(original.status, 200, "body: {}", original.body);
    let fabric = Client::new(first.addr())
        .expect("client")
        .get("/fabric")
        .expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["remote_cache_misses"]), 4.0);
    assert_eq!(json_number(&fabric.body, &["remote_cache_hits"]), 0.0);
    shutdown_all([first]);

    // A brand-new coordinator has an empty whole-job cache, so it re-shards
    // — but every shard is a worker-tier cache hit.
    let second = boot_coordinator(addrs, 250);
    let replay = Client::new(second.addr())
        .expect("client")
        .post("/simulate", &request)
        .expect("replayed fabric run");
    assert_eq!(replay.header("cache"), Some("miss"), "coordinator tier");
    assert_eq!(
        replay.body, original.body,
        "federated replay must be byte-identical"
    );
    let fabric = Client::new(second.addr())
        .expect("client")
        .get("/fabric")
        .expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["remote_cache_hits"]), 4.0);
    assert_eq!(json_number(&fabric.body, &["remote_cache_misses"]), 0.0);

    // The whole-job coordinator tier still works on top: an identical
    // resubmission to the *same* coordinator is a tier-1 hit.
    let cached = Client::new(second.addr())
        .expect("client")
        .post("/simulate", &request)
        .expect("tier-1 replay");
    assert_eq!(cached.header("cache"), Some("hit"));
    assert_eq!(cached.body, original.body);

    shutdown_all([second]);
    shutdown_all(workers);
}

/// The hybrid multiscale stepper through the wire: a fast birth–death pool
/// with slow production, explicitly requested with `"method": "hybrid"`,
/// sharded across a fabric — the bytes must match the single-process run
/// exactly, leaps, ODE segments, slow-hazard budgets and all.
#[test]
fn hybrid_shards_are_byte_identical_through_the_fabric() {
    let request =
        "{\"network\":\"0 -> x @ 2000\\nx -> 0 @ 0.2\\nx -> x + p @ 0.0002\\np -> 0 @ 0.5\",\
         \"initial\":{},\"method\":\"hybrid\",\"trials\":400,\"seed\":9,\"wait\":true,\
         \"stop\":{\"type\":\"time\",\"t\":0.25},\
         \"classifier\":[{\"species\":\"p\",\"at_least\":1,\"outcome\":\"produced\"}]}";

    let single = serve(worker_config()).expect("bind");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/simulate", request)
        .expect("single-process run");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    assert!(
        reference.body.contains("\"method\":\"hybrid\""),
        "response must echo the hybrid method: {}",
        reference.body
    );
    shutdown_all([single]);

    let (workers, addrs) = boot_workers(2);
    let coordinator = boot_coordinator(addrs, 100);
    let reply = Client::new(coordinator.addr())
        .expect("client")
        .post("/simulate", request)
        .expect("fabric run");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(
        reply.body, reference.body,
        "hybrid fabric run diverged from the single-process bytes"
    );
    let fabric = Client::new(coordinator.addr())
        .expect("client")
        .get("/fabric")
        .expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["shards_completed"]), 4.0);
    shutdown_all([coordinator]);
    shutdown_all(workers);
}

/// A `/check` parameter sweep over the biased-coin race: `P(h before t)`
/// with the heads rate swept through the grid, each point exactly
/// `k / (k + 1)`.
fn check_sweep_request(values: &str) -> String {
    format!(
        "{{\"network\":\"x -> h @ {{k}}\\nx -> t @ 1\",\"initial\":{{\"x\":1}},\
         \"bounds\":{{\"policy\":\"strict\",\"default_cap\":1}},\
         \"property\":{{\"type\":\"reach_before\",\
         \"target\":{{\"species\":\"h\",\"at_least\":1}},\
         \"competitor\":{{\"species\":\"t\",\"at_least\":1}}}},\
         \"sweep\":{{\"parameter\":\"k\",\"values\":[{values}]}},\"wait\":true}}"
    )
}

/// `/check` sweep determinism: the same robustness landscape computed
/// single-process and by 1-, 2- and 4-worker fabrics must produce
/// byte-identical sweep documents — grid points are pure solves, so the
/// cluster shape must be unobservable.
#[test]
fn check_sweeps_are_byte_identical_across_cluster_shapes() {
    let request = check_sweep_request("1,3,9");

    let single = serve(worker_config()).expect("bind");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/check", &request)
        .expect("single-process sweep");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    // Spot-check the landscape itself: P(h before t) = k / (k + 1).
    let sweep = service::json::parse(&reference.body).expect("sweep JSON");
    let service::json::Json::Array(items) = sweep.get("points").expect("points").clone() else {
        panic!("points must be an array")
    };
    assert_eq!(items.len(), 3);
    for (i, k) in [1.0f64, 3.0, 9.0].iter().enumerate() {
        let result = items[i].get("result").expect("result");
        let got = result.get("value").expect("value").as_f64("value").unwrap();
        assert!(
            (got - k / (k + 1.0)).abs() < 1e-12,
            "point {i}: {got} vs {}",
            k / (k + 1.0)
        );
    }
    shutdown_all([single]);

    for pool_size in [1usize, 2, 4] {
        let (workers, addrs) = boot_workers(pool_size);
        let coordinator = boot_coordinator(addrs, 250);
        let reply = Client::new(coordinator.addr())
            .expect("client")
            .post("/check", &request)
            .expect("fabric sweep");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        assert_eq!(
            reply.body, reference.body,
            "{pool_size}-worker fabric sweep diverged from the single-process document"
        );

        // Every grid point was dispatched as its own fabric work unit.
        let fabric = Client::new(coordinator.addr())
            .expect("client")
            .get("/fabric")
            .expect("fabric state");
        assert_eq!(json_number(&fabric.body, &["shards_completed"]), 3.0);

        shutdown_all([coordinator]);
        shutdown_all(workers);
    }
}

/// Fault injection on a sweep: a dead-on-arrival worker plus a worker shot
/// right after submission still yield the exact single-process sweep
/// bytes — grid points rebalance onto survivors like simulate shards.
#[test]
fn check_sweep_rebalances_after_worker_death() {
    let request = check_sweep_request("1,2,3,4,5,6,7,8");

    let single = serve(worker_config()).expect("bind");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/check", &request)
        .expect("single-process sweep");
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    shutdown_all([single]);

    let (mut workers, mut addrs) = boot_workers(2);
    addrs.insert(0, dead_worker_addr());
    let coordinator = boot_coordinator(addrs, 100);
    let client = Client::new(coordinator.addr()).expect("client");

    let submitted = client
        .post(
            "/check",
            &request.replace("\"wait\":true", "\"wait\":false"),
        )
        .expect("submit");
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let id = json_number(&submitted.body, &["job"]) as u64;
    let victim = workers.remove(0);
    victim.shutdown(Duration::from_secs(5));
    victim.join();

    let done = client
        .get(&format!("/jobs/{id}?wait=1"))
        .expect("poll to completion");
    assert_eq!(
        done.header("x-job-state"),
        Some("completed"),
        "{}",
        done.body
    );
    assert_eq!(
        done.body, reference.body,
        "fault-injected sweep diverged from the single-process bytes"
    );

    // The dead worker was dispatched to, failed, and the points retried.
    let fabric = client.get("/fabric").expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["shards_completed"]), 8.0);
    assert!(json_number(&fabric.body, &["worker_failures"]) >= 1.0);
    assert!(json_number(&fabric.body, &["shard_retries"]) >= 1.0);

    shutdown_all([coordinator]);
    shutdown_all(workers);
}

/// `/check` cache federation: a fresh coordinator re-running a sweep over
/// a warm single-worker pool is answered entirely from the worker's
/// per-point cache — every grid point counts exactly one remote hit — and
/// the points also answer *single-point* `/check` requests directly.
#[test]
fn check_points_federate_through_worker_caches() {
    let request = check_sweep_request("1,3,9,27");
    let (workers, addrs) = boot_workers(1);

    let first = boot_coordinator(addrs.clone(), 250);
    let original = Client::new(first.addr())
        .expect("client")
        .post("/check", &request)
        .expect("first sweep");
    assert_eq!(original.status, 200, "body: {}", original.body);
    let fabric = Client::new(first.addr())
        .expect("client")
        .get("/fabric")
        .expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["remote_cache_misses"]), 4.0);
    assert_eq!(json_number(&fabric.body, &["remote_cache_hits"]), 0.0);
    shutdown_all([first]);

    // A brand-new coordinator re-dispatches every point; each is a
    // worker-tier hit, counted exactly once, and the document is
    // byte-identical.
    let second = boot_coordinator(addrs.clone(), 250);
    let replay = Client::new(second.addr())
        .expect("client")
        .post("/check", &request)
        .expect("replayed sweep");
    assert_eq!(replay.header("cache"), Some("miss"), "coordinator tier");
    assert_eq!(replay.body, original.body);
    let fabric = Client::new(second.addr())
        .expect("client")
        .get("/fabric")
        .expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["remote_cache_hits"]), 4.0);
    assert_eq!(json_number(&fabric.body, &["remote_cache_misses"]), 0.0);

    // Tier-1 on top: resubmitting to the same coordinator replays the
    // whole document without touching the pool.
    let cached = Client::new(second.addr())
        .expect("client")
        .post("/check", &request)
        .expect("tier-1 replay");
    assert_eq!(cached.header("cache"), Some("hit"));
    assert_eq!(cached.body, original.body);

    // The worker cached each point under its canonical single-point key:
    // the same property posted as a plain (sweepless) `/check` with the
    // substituted rate is answered from cache.
    let point = "{\"network\":\"x -> h @ 3\\nx -> t @ 1\",\"initial\":{\"x\":1},\
                 \"bounds\":{\"policy\":\"strict\",\"default_cap\":1},\
                 \"property\":{\"type\":\"reach_before\",\
                 \"target\":{\"species\":\"h\",\"at_least\":1},\
                 \"competitor\":{\"species\":\"t\",\"at_least\":1}},\"wait\":true}";
    let direct = Client::new(workers[0].addr())
        .expect("client")
        .post("/check", point)
        .expect("single-point replay");
    assert_eq!(direct.status, 200, "body: {}", direct.body);
    assert_eq!(direct.header("cache"), Some("hit"), "body: {}", direct.body);
    let value = json_number(&direct.body, &["value"]);
    assert!((value - 0.75).abs() < 1e-12, "value {value}");

    shutdown_all([second]);
    shutdown_all(workers);
}

/// Workers can join a running coordinator through `POST /fabric/workers`;
/// `GET /fabric` reflects the pool, and jobs shard as soon as the first
/// worker registers. The endpoint is loopback-only, like `/shutdown`.
#[test]
fn workers_register_at_runtime() {
    // A coordinator configured as a fabric but with an empty pool runs jobs
    // locally until someone registers.
    let coordinator = boot_coordinator(Vec::new(), 100);
    let client = Client::new(coordinator.addr()).expect("client");

    let local = client
        .post("/simulate", &coin_request(3, 200))
        .expect("local run");
    assert_eq!(local.status, 200, "body: {}", local.body);
    let fabric = client.get("/fabric").expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["shards_completed"]), 0.0);

    let (workers, addrs) = boot_workers(1);
    let registered = client
        .post("/fabric/workers", &format!("{{\"addr\":\"{}\"}}", addrs[0]))
        .expect("register");
    assert_eq!(registered.status, 200, "body: {}", registered.body);
    assert_eq!(json_number(&registered.body, &["workers"]), 1.0);
    // Re-registration is idempotent.
    let again = client
        .post("/fabric/workers", &format!("{{\"addr\":\"{}\"}}", addrs[0]))
        .expect("re-register");
    assert_eq!(json_number(&again.body, &["workers"]), 1.0);

    // A different seed (so the coordinator cache cannot answer) now shards.
    let sharded = client
        .post("/simulate", &coin_request(4, 200))
        .expect("sharded run");
    assert_eq!(sharded.status, 200, "body: {}", sharded.body);
    let fabric = client.get("/fabric").expect("fabric state");
    assert_eq!(json_number(&fabric.body, &["shards_completed"]), 2.0);

    // `/metrics` carries the same fabric section for scrapers.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(
        json_number(&metrics.body, &["fabric", "shards_completed"]),
        2.0
    );

    shutdown_all([coordinator]);
    shutdown_all(workers);
}

/// `GET /fabric` on a daemon that is not a coordinator is a 400, and
/// registration is refused for non-loopback peers at the router level.
#[test]
fn fabric_endpoints_guard_their_preconditions() {
    let plain = serve(worker_config()).expect("bind");
    let client = Client::new(plain.addr()).expect("client");
    let reply = client.get("/fabric").expect("round trip");
    assert_eq!(reply.status, 400, "body: {}", reply.body);
    shutdown_all([plain]);

    use service::{App, Method, Request};
    let mut config = worker_config();
    config.fabric = Some(FabricConfig::default());
    let app = App::new(config);
    let router = app.router();
    let request = Request {
        method: Method::Post,
        path: "/fabric/workers".to_string(),
        query: None,
        headers: Vec::new(),
        body: "{\"addr\":\"127.0.0.1:9001\"}".to_string(),
    };
    let refused = router.dispatch(&request, "203.0.113.9:4444".parse::<SocketAddr>().unwrap());
    assert_eq!(refused.status, 403);
}

/// A large streaming job: 200k trials over a small pool. The coordinator
/// only ever holds one `O(1)` partial per shard, and its running moments
/// cover every merged trial; the final report matches the single-process
/// bytes.
#[test]
fn large_jobs_stream_with_bounded_coordinator_state() {
    let request = coin_request(123, 200_000);

    let single = serve(worker_config()).expect("bind");
    let reference = Client::new(single.addr())
        .expect("client")
        .post("/simulate", &request)
        .expect("single-process run");
    assert_eq!(reference.status, 200);
    shutdown_all([single]);

    let (workers, addrs) = boot_workers(2);
    let coordinator = boot_coordinator(addrs, 25_000); // 8 shards
    let client = Client::new(coordinator.addr()).expect("client");
    let reply = client.post("/simulate", &request).expect("fabric run");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(reply.body, reference.body);

    let fabric = client.get("/fabric").expect("fabric state");
    assert_eq!(
        json_number(&fabric.body, &["streaming", "trials"]),
        200_000.0
    );
    // The streamed statistics come from the same exact accumulators and
    // readout as the report, so once every shard has landed they agree
    // with it bit for bit.
    for key in ["mean_final_time", "final_time_variance"] {
        let streamed = json_number(&fabric.body, &["streaming", key]);
        let reported = json_number(&reply.body, &["report", key]);
        assert_eq!(streamed.to_bits(), reported.to_bits(), "{key}");
    }
    assert!(json_number(&fabric.body, &["streaming", "final_time_variance"]) > 0.0);

    shutdown_all([coordinator]);
    shutdown_all(workers);
}
