//! The `pmcs-serve` command-line driver.
//!
//! Two subcommands:
//!
//! * `listen` — bind the NDJSON-over-TCP admission-control daemon and
//!   serve until a client sends `{"op":"shutdown"}`;
//! * `bench` — spawn a private server on an ephemeral port, replay a
//!   seeded workload from concurrent clients, verify every response
//!   against the from-scratch batch analyzer after the timed phase, and
//!   write `BENCH_serve.json` (qps, p50/p99 latency, shared-cache hit
//!   rate, verdict reuse rate). Any response mismatch exits nonzero.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use pmcs_serve::bench::BenchConfig;
use pmcs_serve::server::ServerConfig;

const USAGE: &str = "\
pmcs-serve — schedulability-as-a-service over NDJSON/TCP

USAGE:
    pmcs-serve <COMMAND> [OPTIONS]

COMMANDS:
    listen   serve until a client sends {\"op\":\"shutdown\"}
    bench    replay a seeded workload against a private server,
             verify every response, write BENCH_serve.json

OPTIONS (listen):
    --addr <A>       bind address                  [default: 127.0.0.1:0]
    --workers <N>    worker threads (0 = one per core)     [default: 0]
    --capacity <N>   per-session task capacity      [default: unbounded]

OPTIONS (bench):
    --clients <N>    concurrent client connections         [default: 4]
    --ops <N>        operations per client after the
                     initial batch admit                   [default: 250]
    --seed <N>       workload seed                         [default: 42]
    --tasks <N>      tasks in the generated base set       [default: 5]
    --log <FILE>     record client 0's request/response pairs
                     (NDJSON, replayable via pmcs-audit serve-replay)
    --no-perf        skip writing BENCH_serve.json
    -h, --help       print this help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut server = ServerConfig::default();
    let mut bench = BenchConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--no-perf" => bench.perf = false,
            "--addr" | "--workers" | "--capacity" | "--clients" | "--ops" | "--seed"
            | "--tasks" | "--log" => {
                let Some(value) = it.next() else {
                    eprintln!("error: {arg} requires a value");
                    return ExitCode::FAILURE;
                };
                let ok = match arg.as_str() {
                    "--addr" => {
                        server.addr = value.clone();
                        true
                    }
                    "--workers" => value.parse().map(|v| server.workers = v).is_ok(),
                    "--capacity" => value
                        .parse()
                        .map(|v| server.session_capacity = Some(v))
                        .is_ok(),
                    "--clients" => value.parse().map(|v| bench.clients = v).is_ok(),
                    "--ops" => value.parse().map(|v| bench.ops = v).is_ok(),
                    "--seed" => value.parse().map(|v| bench.seed = v).is_ok(),
                    "--tasks" => value.parse().map(|v| bench.tasks = v).is_ok(),
                    _ => {
                        bench.log = Some(PathBuf::from(value));
                        true
                    }
                };
                if !ok {
                    eprintln!("error: invalid value {value:?} for {arg}");
                    return ExitCode::FAILURE;
                }
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => {
                eprintln!("error: unexpected argument {other:?}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    match command.as_deref() {
        Some("listen") => cmd_listen(&server),
        Some("bench") => cmd_bench(&bench),
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            print!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_listen(cfg: &ServerConfig) -> ExitCode {
    let server = match pmcs_serve::spawn(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    server.join();
    println!("shut down");
    ExitCode::SUCCESS
}

fn cmd_bench(cfg: &BenchConfig) -> ExitCode {
    if cfg.tasks == 0 {
        eprintln!("error: --tasks must be at least 1");
        return ExitCode::FAILURE;
    }
    let outcome = match pmcs_serve::run_bench(cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} ops over {} clients in {:.3}s — {:.0} qps, p50 {:.0}us, p99 {:.0}us",
        outcome.ops,
        cfg.clients.max(1),
        outcome.wall_secs,
        outcome.qps,
        outcome.p50_us,
        outcome.p99_us,
    );
    println!(
        "shared cache: {} hits, {} misses, {} evictions (hit rate {:.2})",
        outcome.cache.hits,
        outcome.cache.misses,
        outcome.cache.evictions,
        outcome.cache.hit_rate(),
    );
    println!(
        "verdicts: {} reused, {} fresh (reuse rate {:.2})",
        outcome.verdicts_reused,
        outcome.verdicts_fresh,
        outcome.verdict_reuse_rate(),
    );
    if let Some(path) = &cfg.log {
        println!("replay log: {}", path.display());
    }
    if outcome.mismatches == 0 {
        println!("verification: every response matched the batch analyzer");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "verification: {} MISMATCH(ES); first: {}",
            outcome.mismatches,
            outcome.first_mismatch.as_deref().unwrap_or("<unrecorded>"),
        );
        ExitCode::FAILURE
    }
}
