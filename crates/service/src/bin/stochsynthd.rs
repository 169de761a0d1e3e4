//! `stochsynthd` — the stochastic-synthesis simulation server.
//!
//! ```sh
//! stochsynthd --addr 127.0.0.1:8080 --workers 8 --queue 256 --cache 256
//! # ephemeral port for scripts/CI: bind port 0 and read the address back
//! stochsynthd --addr 127.0.0.1:0 --port-file /tmp/stochsynthd.addr
//! # fabric coordinator: shard /simulate ensembles across three workers
//! stochsynthd --addr 127.0.0.1:8080 \
//!     --fabric-worker 127.0.0.1:9001 --fabric-worker 127.0.0.1:9002 \
//!     --fabric-worker 127.0.0.1:9003 --shard-trials 1000
//! ```
//!
//! The process serves until `POST /shutdown` (loopback-only) drains it —
//! see the README's *Running as a service* and *Running as a fabric*
//! sections for the API.

use std::process::ExitCode;
use std::time::Duration;

use service::{serve, FabricConfig, ServiceConfig};

const USAGE: &str = "usage: stochsynthd [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--cache N] [--max-body BYTES] [--port-file PATH] \
                     [--fabric-worker HOST:PORT]... [--shard-trials N] \
                     [--shard-attempts N] [--shard-backoff-ms MS] [--shard-timeout-s S] \
                     [--log-level SPEC] [--log-json] [--slow-request-ms MS]";

struct Args {
    config: ServiceConfig,
    port_file: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut config = ServiceConfig::default();
    let mut fabric = FabricConfig::default();
    let mut port_file = None;
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        // `--log-json` is the one boolean flag; everything else takes a
        // value.
        if flag == "--log-json" {
            obs::logger().set_json(true);
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--log-level" => obs::logger()
                .set_level_spec(&value)
                .map_err(|e| format!("--log-level: {e}"))?,
            "--slow-request-ms" => {
                config.slow_request_ms = value
                    .parse()
                    .map_err(|_| format!("--slow-request-ms: invalid threshold `{value}`"))?
            }
            "--fabric-worker" => fabric.workers.push(value),
            "--shard-trials" => {
                fabric.shard_trials = value
                    .parse()
                    .map_err(|_| format!("--shard-trials: invalid count `{value}`"))?
            }
            "--shard-attempts" => {
                fabric.max_attempts = value
                    .parse()
                    .ok()
                    .filter(|&attempts| attempts > 0)
                    .ok_or_else(|| format!("--shard-attempts: must be at least 1, got `{value}`"))?
            }
            "--shard-backoff-ms" => {
                fabric.backoff = Duration::from_millis(
                    value
                        .parse()
                        .map_err(|_| format!("--shard-backoff-ms: invalid delay `{value}`"))?,
                )
            }
            "--shard-timeout-s" => {
                fabric.request_timeout = Duration::from_secs(
                    value
                        .parse()
                        .map_err(|_| format!("--shard-timeout-s: invalid timeout `{value}`"))?,
                )
            }
            "--workers" => {
                config.workers = value
                    .parse()
                    .map_err(|_| format!("--workers: invalid count `{value}`"))?
            }
            "--queue" => {
                config.queue_capacity = value
                    .parse()
                    .map_err(|_| format!("--queue: invalid capacity `{value}`"))?
            }
            "--cache" => {
                config.cache_capacity = value
                    .parse()
                    .map_err(|_| format!("--cache: invalid capacity `{value}`"))?
            }
            "--max-body" => {
                config.max_body_bytes = value
                    .parse()
                    .map_err(|_| format!("--max-body: invalid size `{value}`"))?
            }
            "--port-file" => port_file = Some(value),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    // Sharding flags only matter once at least one worker is registered;
    // without workers the daemon stays a plain single-node service.
    if !fabric.workers.is_empty() {
        config.fabric = Some(fabric);
    }
    Ok(Args { config, port_file })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let handle = match serve(args.config) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("stochsynthd: cannot bind: {error}");
            return ExitCode::from(1);
        }
    };
    let addr = handle.addr();
    println!("stochsynthd listening on {addr}");
    if let Some(path) = args.port_file {
        // Write to a temp file and rename so watchers never read a partial
        // address.
        let tmp = format!("{path}.tmp");
        if let Err(error) =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, &path))
        {
            eprintln!("stochsynthd: cannot write --port-file {path}: {error}");
            return ExitCode::from(1);
        }
    }
    handle.join();
    println!("stochsynthd: drained, exiting");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn shard_attempts_must_be_positive() {
        let Err(error) = parse(&["--fabric-worker", "127.0.0.1:9001", "--shard-attempts", "0"])
        else {
            panic!("--shard-attempts 0 was accepted");
        };
        assert!(error.contains("--shard-attempts"), "error: {error}");
        let args = parse(&["--fabric-worker", "127.0.0.1:9001", "--shard-attempts", "3"])
            .expect("3 attempts");
        assert_eq!(args.config.fabric.expect("fabric").max_attempts, 3);
    }
}
