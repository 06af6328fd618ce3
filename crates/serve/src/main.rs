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
//!   rate, verdict reuse rate). Any response mismatch exits 1.
//!
//! A malformed command line prints the usage on stderr and exits 2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use pmcs_bench::cli::{Args, CliError};
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
    let mut command: Option<String> = None;
    let mut server = ServerConfig::default();
    let mut bench = BenchConfig::default();
    let mut args = Args::from_env(USAGE);
    args.parse(|arg, args| {
        match arg {
            "--no-perf" => bench.perf = false,
            "--addr" => server.addr = args.value(arg)?,
            "--workers" => server.workers = args.value(arg)?,
            "--capacity" => server.session_capacity = Some(args.value(arg)?),
            "--clients" => bench.clients = args.value(arg)?,
            "--ops" => bench.ops = args.value(arg)?,
            "--seed" => bench.seed = args.value(arg)?,
            "--tasks" => {
                bench.tasks = args.value_with(arg, |v| v.parse().ok().filter(|&n| n >= 1))?
            }
            "--log" => bench.log = Some(args.value::<PathBuf>(arg)?),
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => return Err(CliError::unknown(other)),
        }
        Ok(())
    });

    match command.as_deref() {
        Some("listen") => cmd_listen(&server),
        Some("bench") => cmd_bench(&bench),
        Some(other) => args.fail(format!("unknown command {other:?}")),
        None => args.fail("missing command"),
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
