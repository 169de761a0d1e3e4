//! Fabric drill: an in-process cluster running a million-trial ensemble.
//!
//! Boots N worker daemons plus a sharding coordinator, proves the fabric
//! byte-identical to a single-process run on a pilot job, then streams a
//! large ensemble through the cluster while polling `GET /fabric` for the
//! live exact statistics — demonstrating that a million-trial job costs
//! the coordinator one `O(1)` partial per shard, never per-trial storage.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fabric_loadtest -- [workers] [trials] [shard-trials]
//! ```
//!
//! Defaults: 3 workers × 1 000 000 trials in 50 000-trial shards.

use std::time::{Duration, Instant};

use stochsynth::service::{serve, Client, FabricConfig, ServiceConfig, ServiceHandle};

fn simulate_request(seed: u64, trials: u64, wait: bool) -> String {
    format!(
        "{{\"network\":\"x -> h @ 3\\nx -> t @ 1\",\"initial\":{{\"x\":1}},\
         \"trials\":{trials},\"seed\":{seed},\"wait\":{wait},\
         \"classifier\":[\
         {{\"species\":\"h\",\"at_least\":1,\"outcome\":\"heads\"}},\
         {{\"species\":\"t\",\"at_least\":1,\"outcome\":\"tails\"}}]}}"
    )
}

fn field(body: &str, path: &[&str]) -> f64 {
    let mut value = stochsynth::service::json::parse(body).expect("valid JSON");
    for key in path {
        value = value
            .get(key)
            .unwrap_or_else(|| panic!("missing `{key}` in {body}"))
            .clone();
    }
    value.as_f64("field").expect("number")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let pool_size = *args.first().unwrap_or(&3) as usize;
    let trials = *args.get(1).unwrap_or(&1_000_000);
    let shard_trials = *args.get(2).unwrap_or(&50_000);

    let workers: Vec<ServiceHandle> = (0..pool_size)
        .map(|_| serve(ServiceConfig::default()))
        .collect::<Result<_, _>>()?;
    let worker_addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = serve(ServiceConfig {
        fabric: Some(FabricConfig {
            workers: worker_addrs.clone(),
            shard_trials,
            ..FabricConfig::default()
        }),
        ..ServiceConfig::default()
    })?;
    println!(
        "fabric_loadtest: coordinator {} sharding over {} workers ({})",
        coordinator.addr(),
        pool_size,
        worker_addrs.join(", ")
    );
    let client = Client::new(coordinator.addr())?;

    // Pilot: the fabric must be unobservable in the bytes.
    let single = serve(ServiceConfig::default())?;
    let pilot = simulate_request(7, 20_000, true);
    let reference = Client::new(single.addr())?.post("/simulate", &pilot)?;
    let sharded = client.post("/simulate", &pilot)?;
    assert_eq!(reference.status, 200, "body: {}", reference.body);
    assert_eq!(
        sharded.body, reference.body,
        "sharded pilot diverged from the single-process bytes"
    );
    println!("pilot: 20000-trial sharded run byte-identical to single-process");
    single.shutdown(Duration::from_secs(5));
    single.join();

    // The main event: a large job submitted asynchronously, watched through
    // the fabric's streaming statistics as shards land. The streaming
    // surface is cumulative over the fabric's lifetime, so subtract what
    // the pilot already merged.
    let baseline = client.get("/fabric")?;
    let trials_before = field(&baseline.body, &["streaming", "trials"]) as u64;
    let shards_before = field(&baseline.body, &["shards_completed"]) as u64;
    let started = Instant::now();
    let submitted = client.post("/simulate", &simulate_request(42, trials, false))?;
    assert_eq!(submitted.status, 202, "body: {}", submitted.body);
    let id = field(&submitted.body, &["job"]) as u64;
    loop {
        let status = client.get(&format!("/jobs/{id}"))?;
        let fabric = client.get("/fabric")?;
        let merged = field(&fabric.body, &["streaming", "trials"]) as u64 - trials_before;
        println!(
            "  streamed {merged:>9}/{trials} trials | shards {}/{} | mean_final_time {:.6}",
            field(&fabric.body, &["shards_completed"]) as u64 - shards_before,
            trials.div_ceil(shard_trials),
            field(&fabric.body, &["streaming", "mean_final_time"]),
        );
        if status.header("x-job-state") == Some("completed") {
            break;
        }
        if let Some(state @ ("failed" | "cancelled")) = status.header("x-job-state") {
            return Err(format!("job ended as {state}: {}", status.body).into());
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    let elapsed = started.elapsed();

    let done = client.get(&format!("/jobs/{id}"))?;
    let fabric = client.get("/fabric")?;
    assert_eq!(
        field(&fabric.body, &["streaming", "trials"]) as u64 - trials_before,
        trials,
        "every merged trial must be streamed through the fabric moments"
    );
    println!("\nfabric state:\n{}", fabric.body);
    println!(
        "\nfabric_loadtest: {trials} trials in {:.2}s ({:.0} trials/s) over {} shards; \
         report mean_final_time {:.9}, coordinator held O(shards) partials only",
        elapsed.as_secs_f64(),
        trials as f64 / elapsed.as_secs_f64(),
        field(&fabric.body, &["shards_completed"]) as u64 - shards_before,
        field(&done.body, &["report", "mean_final_time"]),
    );

    coordinator.shutdown(Duration::from_secs(5));
    coordinator.join();
    for worker in workers {
        worker.shutdown(Duration::from_secs(5));
        worker.join();
    }
    println!("fabric_loadtest passed");
    Ok(())
}
