//! `stochsynth-cli` — submit, poll and fetch jobs from a `stochsynthd`.
//!
//! ```sh
//! stochsynth-cli submit   --server 127.0.0.1:8080 --endpoint simulate --file req.json --wait
//! stochsynth-cli simulate --server 127.0.0.1:8080 --network "a -> b @ 1" \
//!                         --initial a=100 --stepper auto --trials 1000
//! stochsynth-cli check    --server 127.0.0.1:8080 --network "x -> h @ {k}\nx -> t @ 1" \
//!                         --initial x=1 --cap 1 --type reach_before \
//!                         --target h>=1 --competitor t>=1 --sweep k=1,3,9
//! stochsynth-cli poll     --server 127.0.0.1:8080 --job 3
//! stochsynth-cli fetch    --server 127.0.0.1:8080 --job 3
//! stochsynth-cli cancel   --server 127.0.0.1:8080 --job 3
//! stochsynth-cli health   --server 127.0.0.1:8080
//! stochsynth-cli metrics  --server 127.0.0.1:8080
//! stochsynth-cli fabric   --server 127.0.0.1:8080
//! stochsynth-cli fabric   --server 127.0.0.1:8080 --register 127.0.0.1:9004
//! stochsynth-cli shutdown --server 127.0.0.1:8080 --deadline-ms 5000
//! ```
//!
//! Response bodies go to stdout; the `cache: hit|miss` header of
//! result-bearing responses goes to stderr as `cache: …` so scripts can
//! assert on it separately (the CI smoke job does exactly that). Exit
//! codes: 0 success, 1 HTTP-level failure, 2 usage/transport error.

use std::collections::HashMap;
use std::io::Read;
use std::process::ExitCode;

use service::{Client, HttpReply};

const USAGE: &str = "usage: stochsynth-cli <command> --server HOST:PORT [options]

commands:
  submit    --endpoint simulate|exact|synthesize|check --file REQ.json|- [--wait]
  simulate  --network TEXT | --network-file PATH [--initial a=5,b=3]
            [--stepper direct|next-reaction|composition-rejection|tau-leaping|hybrid|auto]
            [--trials N] [--seed N]
            synchronous ensemble; with `auto` the resolved stepper goes to stderr
  check     --network TEXT | --network-file PATH [--initial a=5,b=3]
            --cap N [--policy strict|truncating]
            --type reach_before|reach_within|hitting_time|stationary
            --target SPECIES>=COUNT [--competitor SPECIES>=COUNT] [--window T1,T2]
            [--sweep PARAM=V1,V2,...]
            synchronous model-checker verdict; with --sweep the network's
            `{PARAM}` placeholder is swept over the grid
  poll      --job ID          block until the job is terminal, print its body
  fetch     --job ID          print the job's current status/result
  cancel    --job ID
  health
  metrics   [--format text]   JSON by default; text exposition with --format
  trace     --job ID          the job's recorded trace-span tree
  fabric    [--register HOST:PORT]   show coordinator fabric state, or
                                     register a worker first
  shutdown  [--deadline-ms N]

global options:
  --log-level SPEC   log floor, e.g. `debug` or `info,service::http=trace`
  --log-json         emit structured JSON log lines on stderr";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`\n{USAGE}", args[i]))?;
        // `--wait` and `--log-json` are boolean; everything else takes a
        // value.
        if flag == "wait" || flag == "log-json" {
            flags.insert(flag.to_string(), "1".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value\n{USAGE}"))?;
            flags.insert(flag.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(flags)
}

/// Prints a reply: body to stdout, cache header (if any) to stderr.
/// Returns the process exit code implied by the HTTP status.
fn print_reply(reply: &HttpReply) -> ExitCode {
    if let Some(cache) = reply.header("cache") {
        eprintln!("cache: {cache}");
    }
    if let Some(state) = reply.header("x-job-state") {
        eprintln!("job-state: {state}");
    }
    println!("{}", reply.body);
    if reply.is_success() {
        ExitCode::SUCCESS
    } else {
        eprintln!("HTTP {}", reply.status);
        ExitCode::from(1)
    }
}

fn read_request_file(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut body = String::new();
        std::io::stdin()
            .read_to_string(&mut body)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(body)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Err(USAGE.to_string());
    }
    let flags = parse_flags(rest)?;
    if let Some(spec) = flags.get("log-level") {
        obs::logger()
            .set_level_spec(spec)
            .map_err(|e| format!("--log-level: {e}"))?;
    }
    if flags.contains_key("log-json") {
        obs::logger().set_json(true);
    }
    let server = flags
        .get("server")
        .ok_or_else(|| format!("--server is required\n{USAGE}"))?;
    let client = Client::new(server.as_str())?;
    let job_path = || -> Result<String, String> {
        let id = flags
            .get("job")
            .ok_or_else(|| format!("--job is required\n{USAGE}"))?;
        Ok(format!("/jobs/{id}"))
    };

    let reply = match command.as_str() {
        "submit" => {
            let endpoint = flags
                .get("endpoint")
                .ok_or_else(|| format!("--endpoint is required\n{USAGE}"))?;
            if !matches!(
                endpoint.as_str(),
                "simulate" | "exact" | "synthesize" | "check"
            ) {
                return Err(format!("unknown endpoint `{endpoint}`\n{USAGE}"));
            }
            let file = flags
                .get("file")
                .ok_or_else(|| format!("--file is required\n{USAGE}"))?;
            let mut body = read_request_file(file)?;
            // `--wait` forces a synchronous submission regardless of the
            // request document, by wrapping it at the JSON level.
            if flags.contains_key("wait") {
                let parsed = service::json::parse(&body)
                    .map_err(|e| format!("{file}: invalid JSON: {e}"))?;
                let service::json::Json::Object(mut members) = parsed else {
                    return Err(format!("{file}: request must be a JSON object"));
                };
                members.retain(|(k, _)| k != "wait");
                members.push(("wait".to_string(), service::json::Json::Bool(true)));
                body = service::json::Json::Object(members).render();
            }
            client.post(&format!("/{endpoint}"), &body)?
        }
        "simulate" => {
            let network = match (flags.get("network"), flags.get("network-file")) {
                (Some(text), None) => text.clone(),
                (None, Some(path)) => read_request_file(path)?,
                _ => {
                    return Err(format!(
                        "simulate needs exactly one of --network or --network-file\n{USAGE}"
                    ))
                }
            };
            let parse_u64 = |flag: &str, default: u64| -> Result<u64, String> {
                match flags.get(flag) {
                    None => Ok(default),
                    Some(value) => value
                        .parse::<u64>()
                        .map_err(|_| format!("--{flag}: invalid value `{value}`")),
                }
            };
            let trials = parse_u64("trials", 1_000)?;
            let seed = parse_u64("seed", 0)?;
            let stepper = flags.get("stepper").map(String::as_str).unwrap_or("direct");
            use service::json::Json;
            let mut members = vec![
                ("network".to_string(), Json::str(network)),
                ("method".to_string(), Json::str(stepper)),
                ("trials".to_string(), Json::count(trials)),
                ("seed".to_string(), Json::count(seed)),
                ("wait".to_string(), Json::Bool(true)),
            ];
            if let Some(initial) = flags.get("initial") {
                let mut counts = Vec::new();
                for pair in initial.split(',').filter(|p| !p.is_empty()) {
                    let (name, count) = pair.split_once('=').ok_or_else(|| {
                        format!("--initial: expected `species=count`, got `{pair}`")
                    })?;
                    let count = count
                        .parse::<u64>()
                        .map_err(|_| format!("--initial: invalid count in `{pair}`"))?;
                    counts.push((name.to_string(), Json::count(count)));
                }
                members.push(("initial".to_string(), Json::Object(counts)));
            }
            let reply = client.post("/simulate", &Json::Object(members).render())?;
            // Surface the portfolio's decision where scripts can see it
            // without parsing the result body.
            if let Some(resolved) = service::json::parse(&reply.body).ok().and_then(|body| {
                let value = body.get("resolved_stepper")?;
                value.as_str("resolved_stepper").ok().map(str::to_string)
            }) {
                eprintln!("resolved-stepper: {resolved}");
            }
            reply
        }
        "check" => {
            let network = match (flags.get("network"), flags.get("network-file")) {
                (Some(text), None) => text.clone(),
                (None, Some(path)) => read_request_file(path)?,
                _ => {
                    return Err(format!(
                        "check needs exactly one of --network or --network-file\n{USAGE}"
                    ))
                }
            };
            use service::json::Json;
            let parse_target = |flag: &str| -> Result<Json, String> {
                let spec = flags
                    .get(flag)
                    .ok_or_else(|| format!("--{flag} is required\n{USAGE}"))?;
                let (species, count) = spec
                    .split_once(">=")
                    .ok_or_else(|| format!("--{flag}: expected `species>=count`, got `{spec}`"))?;
                let count = count
                    .parse::<u64>()
                    .map_err(|_| format!("--{flag}: invalid count in `{spec}`"))?;
                Ok(Json::Object(vec![
                    ("species".to_string(), Json::str(species)),
                    ("at_least".to_string(), Json::count(count)),
                ]))
            };
            let kind = flags
                .get("type")
                .ok_or_else(|| format!("--type is required\n{USAGE}"))?;
            let mut property = vec![
                ("type".to_string(), Json::str(kind.clone())),
                ("target".to_string(), parse_target("target")?),
            ];
            if kind == "reach_before" {
                property.push(("competitor".to_string(), parse_target("competitor")?));
            }
            if kind == "reach_within" {
                let window = flags
                    .get("window")
                    .ok_or_else(|| format!("--window is required for reach_within\n{USAGE}"))?;
                let (t1, t2) = window
                    .split_once(',')
                    .ok_or_else(|| format!("--window: expected `t1,t2`, got `{window}`"))?;
                let parse_t = |t: &str| {
                    t.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("--window: invalid time `{t}`"))
                };
                property.push((
                    "window".to_string(),
                    Json::Array(vec![Json::num(parse_t(t1)?), Json::num(parse_t(t2)?)]),
                ));
            }
            let cap = flags
                .get("cap")
                .ok_or_else(|| format!("--cap is required\n{USAGE}"))?;
            let cap = cap
                .parse::<u64>()
                .map_err(|_| format!("--cap: invalid value `{cap}`"))?;
            let policy = flags
                .get("policy")
                .map(String::as_str)
                .unwrap_or("truncating");
            let mut members = vec![
                ("network".to_string(), Json::str(network)),
                (
                    "bounds".to_string(),
                    Json::Object(vec![
                        ("policy".to_string(), Json::str(policy)),
                        ("default_cap".to_string(), Json::count(cap)),
                    ]),
                ),
                ("property".to_string(), Json::Object(property)),
                ("wait".to_string(), Json::Bool(true)),
            ];
            if let Some(initial) = flags.get("initial") {
                let mut counts = Vec::new();
                for pair in initial.split(',').filter(|p| !p.is_empty()) {
                    let (name, count) = pair.split_once('=').ok_or_else(|| {
                        format!("--initial: expected `species=count`, got `{pair}`")
                    })?;
                    let count = count
                        .parse::<u64>()
                        .map_err(|_| format!("--initial: invalid count in `{pair}`"))?;
                    counts.push((name.to_string(), Json::count(count)));
                }
                members.push(("initial".to_string(), Json::Object(counts)));
            }
            if let Some(sweep) = flags.get("sweep") {
                let (parameter, grid) = sweep
                    .split_once('=')
                    .ok_or_else(|| format!("--sweep: expected `param=v1,v2,...`, got `{sweep}`"))?;
                let mut values = Vec::new();
                for v in grid.split(',').filter(|v| !v.is_empty()) {
                    values.push(Json::num(
                        v.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("--sweep: invalid grid value `{v}`"))?,
                    ));
                }
                if values.is_empty() {
                    return Err("--sweep: needs at least one grid value".to_string());
                }
                members.push((
                    "sweep".to_string(),
                    Json::Object(vec![
                        ("parameter".to_string(), Json::str(parameter)),
                        ("values".to_string(), Json::Array(values)),
                    ]),
                ));
            }
            client.post("/check", &Json::Object(members).render())?
        }
        "poll" => client.get(&format!("{}?wait=1", job_path()?))?,
        "fetch" => client.get(&job_path()?)?,
        "cancel" => client.delete(&job_path()?)?,
        "health" => client.get("/healthz")?,
        "metrics" => match flags.get("format").map(String::as_str) {
            Some("text") => client.get("/metrics?format=text")?,
            Some(other) => return Err(format!("unknown metrics format `{other}`\n{USAGE}")),
            None => client.get("/metrics")?,
        },
        "trace" => {
            let id = flags
                .get("job")
                .ok_or_else(|| format!("--job is required\n{USAGE}"))?;
            client.get(&format!("/trace/{id}"))?
        }
        "fabric" => match flags.get("register") {
            Some(worker) => client.post(
                "/fabric/workers",
                &format!("{{\"addr\":{}}}", service::json::Json::str(worker).render()),
            )?,
            None => client.get("/fabric")?,
        },
        "shutdown" => {
            let deadline = flags
                .get("deadline-ms")
                .map(String::as_str)
                .unwrap_or("5000");
            deadline
                .parse::<u64>()
                .map_err(|_| format!("--deadline-ms: invalid value `{deadline}`"))?;
            client.post("/shutdown", &format!("{{\"deadline_ms\":{deadline}}}"))?
        }
        other => return Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    Ok(print_reply(&reply))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
