//! The repository benchmark: end-to-end metrics of two workloads, and a
//! traced run that attributes their time to the workspace's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_figures|service_light \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is a human-readable report (each metric with its
//! unit and sample count). The last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for the workloads and what each metric should move.

mod common;
mod paper;
mod replay;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Metric, Phase};
use trace::{quote, Tracer};

/// The per-layer metrics every traced run prints, in order. A layer a
/// workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 45] = [
    ("gillespie.steps", "count"),
    ("gillespie.propensity_evals", "count"),
    ("gillespie.leaps_accepted", "count"),
    ("gillespie.leaps_rejected", "count"),
    ("gillespie.ns_per_step.direct", "ns"),
    ("gillespie.ns_per_step.tau_leaping", "ns"),
    ("gillespie.fanout_idle_share", "ratio"),
    ("gillespie.engine_share", "ratio"),
    ("gillespie.auto_tau_share", "ratio"),
    ("gillespie.classify_us", "us"),
    ("gillespie.merge_us", "us"),
    ("crn.parse_us", "us"),
    ("service.json_parse_us", "us"),
    ("service.api_parse_us", "us"),
    ("service.cache_key_us", "us"),
    ("service.cache_lookup_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.render_us", "us"),
    ("service.http_overhead_us", "us"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p90_ms", "ms"),
    ("service.steals", "count"),
    ("service.span.parse_us", "us"),
    ("service.span.classify_us", "us"),
    ("service.span.schedule-wait_us", "us"),
    ("service.span.merge_us", "us"),
    ("cme.enumerate_ms", "ms"),
    ("cme.generator_ms", "ms"),
    ("cme.solve_ms", "ms"),
    ("cme.states", "count"),
    ("cme.nnz", "count"),
    ("synthesis.build_ms", "ms"),
    ("lambda.sweep_s.natural", "s"),
    ("lambda.sweep_s.synthetic_fit", "s"),
    ("lambda.sweep_s.eq14", "s"),
    ("lambda.sweep_s.eq14_auto", "s"),
    ("lambda.synthetic_share", "ratio"),
    ("self_ms.crn", "ms"),
    ("self_ms.gillespie", "ms"),
    ("self_ms.cme", "ms"),
    ("self_ms.synthesis", "ms"),
    ("self_ms.lambda", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.obs", "ms"),
    ("machine.nproc", "count"),
];

/// End-to-end metrics whose traced/untraced ratio is `obs.trace_overhead`.
const OVERHEAD_OF: [&str; 5] = [
    "throughput_ops",
    "primary_ms",
    "secondary_ms",
    "tertiary_ms",
    "quaternary_ms",
];

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for `{flag}`: {e}");
        match flag.as_str() {
            "--workload" => options.workload = value,
            "--seed" => options.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => options.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => options.trace = value == "1",
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !options.seconds.is_finite() || options.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(options)
}

fn run_workload(name: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    match name {
        "paper_figures" => paper::run(seed, seconds, tracer),
        "service_light" => traffic::run(seed, seconds, tracer),
        other => Err(format!(
            "unknown workload `{other}` (paper_figures, service_light)"
        )),
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                quote(&m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc} profile {profile}",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    if nproc < 2 {
        println!("note: fewer than 2 cores; the 2-thread fan-out and 2-client loop share one core");
    }

    // A traced run measures an untraced half and a traced half of equal
    // length; their difference is the tracing overhead.
    let seconds = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let untraced = Tracer::new(false);
    let plain = match run_workload(&options.workload, options.seed, seconds, &untraced) {
        Ok(phase) => phase,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_metrics("end-to-end:", &plain.report);
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut problems = plain.problems.clone();
    let mut output = plain.end_to_end.clone();

    if options.trace {
        let tracer = Tracer::new(true);
        let traced = match run_workload(&options.workload, options.seed, seconds, &tracer) {
            Ok(phase) => phase,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        attempted += traced.attempted;
        failed += traced.failed;
        problems.extend(traced.problems.iter().cloned());
        print_metrics("end-to-end (traced):", &traced.report);

        let mut layers: BTreeMap<String, Metric> = traced
            .layers
            .iter()
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        for (layer, ns) in tracer.self_time_by_layer() {
            let name = format!("self_ms.{layer}");
            layers.insert(name.clone(), Metric::new(name, ns as f64 / 1e6, "ms", 1));
        }
        layers.insert(
            "machine.nproc".to_string(),
            Metric::new("machine.nproc", nproc as f64, "count", 1),
        );
        output = LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                layers
                    .get(*name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(*name, 0.0, unit, 0))
            })
            .collect();
        for name in OVERHEAD_OF {
            let find = |phase: &Phase| {
                phase
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.value)
            };
            output.push(Metric::new(
                format!("obs.trace_overhead.{name}"),
                find(&traced) / find(&plain) - 1.0,
                "ratio",
                1,
            ));
        }
        print_metrics("per-layer:", &output);

        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("trace-{}-{}.jsonl", options.workload, options.seed));
        let header = format!(
            "{{\"workload\":{},\"seed\":{},\"nproc\":{nproc},\"profile\":{}}}",
            quote(&options.workload),
            options.seed,
            quote(profile)
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("note: spans not written: {e}"),
        }
    }

    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("error_rate {error_rate:.6} ratio (failed {failed} of {attempted} attempted)");
    for problem in &problems {
        println!("failure: {problem}");
    }
    println!(
        "{}",
        result_line(failed == 0, attempted.max(1), failed, &output)
    );
    ExitCode::SUCCESS
}
