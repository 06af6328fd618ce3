//! The self-hosting load generator (`pmcs-serve bench`).
//!
//! Spawns a server on an ephemeral loopback port, replays a seeded
//! admission-control workload from several concurrent clients, and writes
//! `BENCH_serve.json` (qps, p50/p99 latency, shared-cache hit rate,
//! incremental verdict-reuse rate). Clients only time their round trips
//! and log every exchange; after the timed phase **every** response of
//! every client is re-derived from scratch by [`replay_log`], so the
//! latencies measure the server, not the verifier.
//!
//! Every client replays the *same* deterministic script (derived from the
//! base seed via [`derive_seed`], never from client identity), for two
//! reasons: responses are load-independent so any client's log replays
//! offline, and the shared delay cache demonstrably pays off — whichever
//! client reaches a window first warms it for the others, so with `C`
//! clients the steady-state shared-cache hit rate is at least
//! `(C-1)/C`. Update operations cycle each task's execution time through
//! a small set of values, so configurations recur and the session-level
//! verdict cache gets hits too.

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use pmcs_bench::{parallel_map, PerfPoint, PerfRecord};
use pmcs_cert::json::{parse_value, write_value, Value};
use pmcs_core::CacheStats;
use pmcs_model::{Task, Time};
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::proto::{encode_request, obj_get, Request};
use crate::replay::replay_log;
use crate::server::{spawn, ServerConfig};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrent client connections (each gets its own worker).
    pub clients: usize,
    /// Single-request operations per client after the initial batch admit.
    pub ops: usize,
    /// Base seed of the workload script.
    pub seed: u64,
    /// Tasks in the generated base set.
    pub tasks: usize,
    /// Record client 0's request/response pairs here (NDJSON) for
    /// offline replay via `pmcs-audit serve-replay`.
    pub log: Option<PathBuf>,
    /// Write `BENCH_serve.json` at the repository root.
    pub perf: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            clients: 4,
            ops: 250,
            seed: 42,
            // n = 5 keeps every window comfortably on the exact DP's
            // fast path; n >= 6 can cross the combinatorial wall on
            // unlucky update sequences and stall the load generator.
            tasks: 5,
            log: None,
            perf: true,
        }
    }
}

/// Aggregated measurement of one bench run.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Total requests answered (all clients, batch entries included).
    pub ops: u64,
    /// Responses that differed from the batch-analyzer re-derivation
    /// (refutations of the offline replay of every client's log).
    pub mismatches: u64,
    /// First mismatch, for diagnostics.
    pub first_mismatch: Option<String>,
    /// End-to-end wall-clock seconds of the client phase.
    pub wall_secs: f64,
    /// Requests per second across all clients.
    pub qps: f64,
    /// Median single-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile single-request latency, microseconds.
    pub p99_us: f64,
    /// Server-side shared-delay-cache counters (shard-authoritative).
    pub cache: CacheStats,
    /// Per-task verdicts served from session verdict caches.
    pub verdicts_reused: u64,
    /// Per-task verdicts computed fresh.
    pub verdicts_fresh: u64,
}

impl BenchOutcome {
    /// `verdicts_reused / (reused + fresh)` — the incremental-vs-scratch
    /// reuse rate across every session the run created.
    pub fn verdict_reuse_rate(&self) -> f64 {
        let total = self.verdicts_reused + self.verdicts_fresh;
        if total == 0 {
            0.0
        } else {
            self.verdicts_reused as f64 / total as f64
        }
    }
}

/// The deterministic workload script: the initial batch admit plus `ops`
/// follow-up operations. Identical for every client by construction.
fn workload(cfg: &BenchConfig) -> (Vec<Request>, Vec<Request>) {
    let set = TaskSetGenerator::new(
        TaskSetConfig {
            n: cfg.tasks,
            ..TaskSetConfig::default()
        },
        derive_seed(cfg.seed, 0, 0),
    )
    .generate();
    let catalog: Vec<Task> = set.iter().cloned().collect();
    let batch: Vec<Request> = catalog
        .iter()
        .map(|t| Request::Admit {
            session: 0,
            task: t.clone(),
        })
        .collect();

    // Present/absent bookkeeping mirrors the session the script drives.
    let mut present: Vec<bool> = vec![true; catalog.len()];
    let mut current: Vec<Task> = catalog.clone();
    let mut ops = Vec::with_capacity(cfg.ops);
    for k in 0..cfg.ops {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1, k as u64));
        let ins: Vec<usize> = (0..catalog.len()).filter(|&i| present[i]).collect();
        let outs: Vec<usize> = (0..catalog.len()).filter(|&i| !present[i]).collect();
        let action = rng.gen_range(0u32..4);
        let req = match action {
            0 if !ins.is_empty() => {
                let i = ins[rng.gen_range(0..ins.len())];
                present[i] = false;
                Request::Remove {
                    session: 0,
                    id: current[i].id(),
                }
            }
            1 if !outs.is_empty() => {
                let i = outs[rng.gen_range(0..outs.len())];
                present[i] = true;
                Request::Admit {
                    session: 0,
                    task: current[i].clone(),
                }
            }
            2 if !ins.is_empty() => {
                // Cycle the execution time through four fixed fractions
                // of the original, so parameter configurations recur and
                // the verdict cache has something to reuse.
                let i = ins[rng.gen_range(0..ins.len())];
                let quarters = rng.gen_range(1i64..=4);
                let base = &catalog[i];
                let exec = Time::from_ticks((base.exec().as_ticks() * quarters / 4).max(1));
                let task = Task::builder(base.id())
                    .exec(exec)
                    .copy_in(base.copy_in())
                    .copy_out(base.copy_out())
                    .arrival(base.arrival().clone())
                    .deadline(base.deadline())
                    .priority(base.priority())
                    .build()
                    .expect("scaled-down task stays valid");
                current[i] = task.clone();
                Request::Update {
                    session: 0,
                    id: task.id(),
                    task,
                }
            }
            _ => Request::Query { session: 0 },
        };
        ops.push(req);
    }
    (batch, ops)
}

/// One client's measurements and its full exchange log.
struct ClientOutcome {
    /// Responses received (batch entries counted one by one).
    ops: u64,
    latencies_us: Vec<f64>,
    secs: f64,
    /// Every request/response pair, in `replay_log` format.
    log: String,
}

fn run_client(addr: SocketAddr, batch: &[Request], ops: &[Request]) -> io::Result<ClientOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = ClientOutcome {
        ops: 0,
        latencies_us: Vec::with_capacity(ops.len()),
        secs: 0.0,
        log: String::new(),
    };
    let started = Instant::now();

    let encode = |r: &Request| -> io::Result<String> {
        encode_request(r)
            .map(|v| write_value(&v))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
    };
    let mut round_trip = |line: &str| -> io::Result<(String, f64)> {
        let begin = Instant::now();
        writer.write_all(format!("{line}\n").as_bytes())?;
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let us = begin.elapsed().as_secs_f64() * 1e6;
        Ok((resp.trim_end().to_string(), us))
    };
    let record = |out: &mut ClientOutcome, line: &str, resp_line: &str| {
        out.log
            .push_str(&format!("{{\"req\":{line},\"resp\":{resp_line}}}\n"));
    };

    // Phase 1: the initial admits travel as one batch array line.
    if !batch.is_empty() {
        let entries: Vec<String> = batch.iter().map(&encode).collect::<io::Result<_>>()?;
        let line = format!("[{}]", entries.join(","));
        let (resp_line, _) = round_trip(&line)?;
        out.ops += batch.len() as u64;
        record(&mut out, &line, &resp_line);
    }

    // Phase 2: single-request lines, each a latency sample.
    for req in ops {
        let line = encode(req)?;
        let (resp_line, us) = round_trip(&line)?;
        out.latencies_us.push(us);
        out.ops += 1;
        record(&mut out, &line, &resp_line);
    }

    out.secs = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Replays one client's log offline: its refutations, plus one more if
/// the replay did not check every response the client received.
fn verify_log(client: &ClientOutcome) -> Vec<String> {
    let replay = replay_log(&client.log);
    let mut refutations = replay.refutations;
    if replay.checked as u64 != client.ops {
        refutations.push(format!(
            "replay checked {} of {} responses",
            replay.checked, client.ops
        ));
    }
    refutations
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn stat_u64(v: &Value, key: &str) -> u64 {
    match obj_get(v, key) {
        Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    }
}

/// Runs the bench: spawn, replay, verify, measure, shut down, and (when
/// configured) write `BENCH_serve.json` and the replay log.
///
/// # Errors
///
/// Propagates socket and filesystem errors; verification mismatches are
/// *not* errors — they are reported in the outcome so the caller can
/// choose the exit code.
pub fn run(cfg: &BenchConfig) -> io::Result<BenchOutcome> {
    let server = spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // One worker per client: no client ever waits for a worker, so
        // latency percentiles measure analysis, not queueing.
        workers: cfg.clients.max(1) + 1,
        session_capacity: None,
    })?;
    let addr = server.addr();
    let (batch, ops) = workload(cfg);

    let clients: Vec<usize> = (0..cfg.clients.max(1)).collect();
    let started = Instant::now();
    let results: Vec<Result<ClientOutcome, String>> =
        parallel_map(&clients, clients.len(), |_, _| {
            run_client(addr, &batch, &ops).map_err(|e| e.to_string())
        });
    let wall_secs = started.elapsed().as_secs_f64();

    // Server-wide counters, then an orderly shutdown over the wire.
    let control = TcpStream::connect(addr)?;
    let mut control_reader = BufReader::new(control.try_clone()?);
    let mut control_writer = control;
    let mut ask = |op: &str| -> io::Result<Value> {
        control_writer.write_all(op.as_bytes())?;
        control_writer.write_all(b"\n")?;
        control_writer.flush()?;
        let mut resp = String::new();
        control_reader.read_line(&mut resp)?;
        parse_value(resp.trim_end()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    };
    let stats = ask("{\"op\":\"stats\"}")?;
    let stats = obj_get(&stats, "ok").cloned().unwrap_or(Value::Null);
    let _ = ask("{\"op\":\"shutdown\"}")?;
    drop(control_writer);
    server.join();

    let mut outcome = BenchOutcome {
        ops: 0,
        mismatches: 0,
        first_mismatch: None,
        wall_secs,
        qps: 0.0,
        p50_us: 0.0,
        p99_us: 0.0,
        cache: CacheStats {
            hits: stat_u64(&stats, "cache_hits"),
            misses: stat_u64(&stats, "cache_misses"),
            evictions: stat_u64(&stats, "cache_evictions"),
        },
        verdicts_reused: stat_u64(&stats, "verdicts_reused"),
        verdicts_fresh: stat_u64(&stats, "verdicts_fresh"),
    };
    let clients: Vec<ClientOutcome> = results
        .into_iter()
        .enumerate()
        .map(|(c, r)| r.map_err(|e| io::Error::other(format!("client {c}: {e}"))))
        .collect::<io::Result<_>>()?;
    // Every response of every client is re-derived from scratch, after
    // the timed phase so the latencies measure only the server.
    let refutations = parallel_map(&clients, clients.len(), |_, client| verify_log(client));
    let mut latencies: Vec<f64> = Vec::new();
    let mut points: Vec<PerfPoint> = Vec::new();
    for (c, (client, refuted)) in clients.iter().zip(refutations).enumerate() {
        outcome.ops += client.ops;
        outcome.mismatches += refuted.len() as u64;
        if outcome.first_mismatch.is_none() {
            outcome.first_mismatch = refuted.into_iter().next();
        }
        latencies.extend(&client.latencies_us);
        points.push(PerfPoint {
            label: format!("client{c}"),
            secs: client.secs,
        });
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    outcome.p50_us = percentile(&latencies, 0.50);
    outcome.p99_us = percentile(&latencies, 0.99);
    outcome.qps = if wall_secs > 0.0 {
        outcome.ops as f64 / wall_secs
    } else {
        0.0
    };

    if let Some(path) = &cfg.log {
        std::fs::write(path, &clients[0].log)?;
    }

    if cfg.perf {
        let mut record = PerfRecord::new("serve");
        record.wall_secs = wall_secs;
        record.jobs = cfg.clients.max(1);
        record.cache = outcome.cache;
        record.points = points;
        record.extra_num("qps", outcome.qps);
        record.extra_num("p50_latency_us", outcome.p50_us);
        record.extra_num("p99_latency_us", outcome.p99_us);
        record.extra_num("verdict_reuse_rate", outcome.verdict_reuse_rate());
        record.extra_num("verdicts_reused", outcome.verdicts_reused as f64);
        record.extra_num("verdicts_fresh", outcome.verdicts_fresh as f64);
        record.extra_num("replay_ops", outcome.ops as f64);
        record.extra_num("mismatches", outcome.mismatches as f64);
        record.extra_str(
            "workload",
            &format!(
                "seed={} clients={} ops={} tasks={}",
                cfg.seed,
                cfg.clients.max(1),
                cfg.ops,
                cfg.tasks
            ),
        );
        record.write()?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_model::TaskId;

    #[test]
    fn workload_is_deterministic_and_keeps_invariants() {
        let cfg = BenchConfig {
            ops: 40,
            ..BenchConfig::default()
        };
        let (batch_a, ops_a) = workload(&cfg);
        let (batch_b, ops_b) = workload(&cfg);
        assert_eq!(batch_a, batch_b);
        assert_eq!(ops_a, ops_b);
        assert_eq!(batch_a.len(), cfg.tasks);
        assert_eq!(ops_a.len(), cfg.ops);

        // Replay the script against a shadow: every remove targets a
        // present task, every admit an absent one.
        let mut present: Vec<TaskId> = batch_a
            .iter()
            .map(|r| match r {
                Request::Admit { task, .. } => task.id(),
                other => panic!("batch must be all admits, got {other:?}"),
            })
            .collect();
        for op in &ops_a {
            match op {
                Request::Remove { id, .. } => {
                    let pos = present.iter().position(|t| t == id);
                    present.remove(pos.expect("remove targets a present task"));
                }
                Request::Admit { task, .. } => {
                    assert!(!present.contains(&task.id()), "admit targets absent task");
                    present.push(task.id());
                }
                Request::Update { id, .. } => {
                    assert!(present.contains(id), "update targets a present task");
                }
                Request::Query { .. } => {}
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn different_seeds_give_different_scripts() {
        let a = workload(&BenchConfig {
            ops: 20,
            seed: 1,
            ..BenchConfig::default()
        });
        let b = workload(&BenchConfig {
            ops: 20,
            seed: 2,
            ..BenchConfig::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn percentiles_pick_order_statistics() {
        let sorted: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 51.0);
        assert_eq!(percentile(&sorted, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn unchecked_responses_count_as_mismatches() {
        let client = ClientOutcome {
            ops: 2,
            latencies_us: Vec::new(),
            secs: 0.0,
            log: "{\"req\":{\"op\":\"query\"},\"resp\":{\"ok\":{\"schedulable\":true,\
                  \"rounds\":0,\"promoted\":[],\"verdicts\":[]}}}\n"
                .to_string(),
        };
        let refuted = verify_log(&client);
        assert!(
            refuted.iter().any(|r| r.contains("of 2 responses")),
            "{refuted:?}"
        );
    }

    #[test]
    fn small_end_to_end_bench_has_zero_mismatches() {
        let cfg = BenchConfig {
            clients: 2,
            ops: 12,
            tasks: 4,
            perf: false,
            log: None,
            ..BenchConfig::default()
        };
        let outcome = run(&cfg).expect("bench runs");
        assert_eq!(outcome.mismatches, 0, "{:?}", outcome.first_mismatch);
        assert_eq!(outcome.ops as usize, 2 * (cfg.tasks + cfg.ops));
        assert!(outcome.qps > 0.0);
        // Two clients replaying the same script: the second's windows are
        // warmed by the first, so the shared cache must see hits.
        assert!(outcome.cache.hits > 0, "stats: {:?}", outcome.cache);
    }
}
