//! `admission`: open-loop admission-control traffic into an in-process
//! `pmcs_serve::spawn` server over loopback.
//!
//! Many independent sessions (n=5, U≈0.35) each receive a fixed scripted
//! sequence of admit/remove/update/query requests, interleaved into one
//! stream at a fixed offered rate and computed before the run; the seed
//! picks the session each query reads. One paced writer and one reader share a single connection,
//! so reads queue behind writes exactly as the server orders them. Every request is timed from
//! its due time. Correctness is checked after the timed phase: the
//! exchange log must replay with zero refutations through
//! [`pmcs_serve::replay_log`].

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmcs_cert::json::{parse_value, write_value, Value};
use pmcs_core::{AnalysisSession, DelayEngine, ExactEngine, SharedCachedEngine, SharedDelayCache};
use pmcs_model::{Task, Time};
use pmcs_serve::proto::{encode_report, error_response, obj_get, ok_response, session_error};
use pmcs_serve::{decode_request, encode_request, replay_log, spawn, Request, ServerConfig};
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{max_rss_mb, median, ms, percentile, Outcome};
use crate::timed::{record_engine, EngineTotals, Sinks, TracedEngine};

/// Base seed of the sessions' task sets (the repository's default seed).
const POOL_SEED: u64 = 42;
/// Independent sessions on the connection, and timed requests per
/// session.
const SESSIONS: u64 = 30;
const OPS_PER_SESSION: usize = 50;
/// Tasks per session and their total utilization.
const TASKS: usize = 5;
const UTILIZATION: f64 = 0.35;
/// Offered load in requests per second: the 1500-request script lasts
/// [`ROUND_SECONDS`]; a run replays it once per round.
const RATE: u64 = 150;
const ROUND_SECONDS: u64 = 10;
/// Share of requests that are queries, in percent.
const QUERY_PERCENT: u32 = 30;
/// The latency limit of `admission.slo_frac`.
const SLO_MS: f64 = 5.0;
/// Set-ups timed per round for `setup_s`.
const SETUPS_PER_ROUND: usize = 3;
/// Give up on a response after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
const SESSION_STREAM: u64 = 0xad31_0001;
const OP_STREAM: u64 = 0xad31_0002;
const ORDER_STREAM: u64 = 0xad31_0003;
const QUERY_STREAM: u64 = 0xad31_0004;

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Offset of the due time from the start of the timed phase.
    pub due: Duration,
    /// The request line (without the newline).
    pub line: String,
    /// `false` for queries.
    pub mutates: bool,
}

/// The whole input of a run: one bulk-admit line per session, then the
/// timed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Bulk-admit lines, sent one at a time during set-up.
    pub setup: Vec<String>,
    /// The timed requests, in due order.
    pub ops: Vec<Op>,
}

fn line(r: &Request) -> String {
    write_value(&encode_request(r).expect("scripted requests encode"))
}

/// The script of a run with `seed`. The sessions' task sets, their
/// mutation sequences and the interleaved stream come from the fixed
/// pool; the seed picks the session each query reads.
pub fn inputs(seed: u64) -> Script {
    let config = TaskSetConfig {
        n: TASKS,
        utilization: UTILIZATION,
        ..TaskSetConfig::default()
    };
    let catalogs: Vec<Vec<Task>> = (0..SESSIONS)
        .map(|s| {
            TaskSetGenerator::new(config.clone(), derive_seed(POOL_SEED, SESSION_STREAM, s))
                .generate()
                .tasks()
                .to_vec()
        })
        .collect();
    let setup: Vec<String> = catalogs
        .iter()
        .zip(0..)
        .map(|(tasks, session)| {
            let admits: Vec<String> = tasks
                .iter()
                .map(|t| {
                    line(&Request::Admit {
                        session,
                        task: t.clone(),
                    })
                })
                .collect();
            format!("[{}]", admits.join(","))
        })
        .collect();

    let mut sequences: Vec<std::vec::IntoIter<Request>> = catalogs
        .iter()
        .zip(0..)
        .map(|(catalog, session)| session_requests(session, catalog).into_iter())
        .collect();
    let mut order: Vec<u64> = (0..SESSIONS)
        .flat_map(|s| std::iter::repeat_n(s, OPS_PER_SESSION))
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(POOL_SEED, ORDER_STREAM, 0));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut readers = StdRng::seed_from_u64(derive_seed(seed, QUERY_STREAM, 0));
    let ops = order
        .into_iter()
        .zip(0u64..)
        .map(|(owner, k)| {
            let mut request = sequences[owner as usize]
                .next()
                .expect("each session has OPS_PER_SESSION requests");
            if let Request::Query { session } = &mut request {
                *session = readers.gen_range(0..SESSIONS);
            }
            Op {
                due: Duration::from_nanos(k * 1_000_000_000 / RATE),
                mutates: !matches!(request, Request::Query { .. }),
                line: line(&request),
            }
        })
        .collect();
    Script { setup, ops }
}

/// One session's request sequence: queries and admit/remove/update
/// mutations, with present/absent bookkeeping mirroring the session.
fn session_requests(session: u64, catalog: &[Task]) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(derive_seed(POOL_SEED, OP_STREAM, session));
    let mut present = vec![true; catalog.len()];
    (0..OPS_PER_SESSION)
        .map(|_| {
            let ins: Vec<usize> = (0..catalog.len()).filter(|&i| present[i]).collect();
            let outs: Vec<usize> = (0..catalog.len()).filter(|&i| !present[i]).collect();
            let query = rng.gen_range(0u32..100) < QUERY_PERCENT;
            match rng.gen_range(0u32..3) {
                _ if query => Request::Query { session },
                0 if ins.len() > 1 => {
                    let i = ins[rng.gen_range(0..ins.len())];
                    present[i] = false;
                    Request::Remove {
                        session,
                        id: catalog[i].id(),
                    }
                }
                1 if !outs.is_empty() => {
                    let i = outs[rng.gen_range(0..outs.len())];
                    present[i] = true;
                    Request::Admit {
                        session,
                        task: catalog[i].clone(),
                    }
                }
                _ => {
                    // Update: scale the execution time to one of four
                    // fractions of the original, so configurations recur
                    // and verdict reuse has something to hit.
                    let i = ins[rng.gen_range(0..ins.len())];
                    let base = &catalog[i];
                    let quarters = rng.gen_range(1i64..=4);
                    let task = Task::builder(base.id())
                        .exec(Time::from_ticks(
                            (base.exec().as_ticks() * quarters / 4).max(1),
                        ))
                        .copy_in(base.copy_in())
                        .copy_out(base.copy_out())
                        .arrival(base.arrival().clone())
                        .deadline(base.deadline())
                        .priority(base.priority())
                        .sensitivity(base.sensitivity())
                        .build()
                        .expect("a scaled-down task stays valid");
                    Request::Update {
                        session,
                        id: task.id(),
                        task,
                    }
                }
            }
        })
        .collect()
}

/// A spawned server with one connection whose sessions hold their
/// initial tasks.
struct Connected {
    server: pmcs_serve::Server,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// `(request line, response line)` of each set-up line.
    log: Vec<(String, String)>,
}

impl Connected {
    fn open(script: &Script) -> io::Result<Self> {
        let server = spawn(&ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })?;
        let writer = TcpStream::connect(server.addr())?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut reader = BufReader::new(writer.try_clone()?);
        let mut log = Vec::with_capacity(script.setup.len());
        for request in &script.setup {
            (&writer).write_all(format!("{request}\n").as_bytes())?;
            let mut resp = String::new();
            reader.read_line(&mut resp)?;
            log.push((request.clone(), resp.trim_end().to_string()));
        }
        Ok(Connected {
            server,
            writer,
            reader,
            log,
        })
    }

    fn close(self) {
        drop(self.reader);
        drop(self.writer);
        self.server.shutdown();
        self.server.join();
    }
}

/// What the open-loop phase observed per request.
struct Timings {
    /// Instant the timed phase started; due times are offsets from it.
    start: Instant,
    sent: Vec<Instant>,
    /// Receive instant and response line; `None` when none arrived.
    received: Vec<Option<(Instant, String)>>,
}

/// Sends every op at its due time from this thread while a second thread
/// reads the responses.
fn open_loop(conn: &mut Connected, ops: &[Op]) -> Timings {
    let start = Instant::now() + Duration::from_millis(10);
    let reader = &mut conn.reader;
    let writer = &conn.writer;
    std::thread::scope(|scope| {
        let responses = scope.spawn(move || {
            let mut received = Vec::with_capacity(ops.len());
            for _ in ops {
                let mut resp = String::new();
                match reader.read_line(&mut resp) {
                    Ok(n) if n > 0 => {
                        received.push(Some((Instant::now(), resp.trim_end().to_string())))
                    }
                    _ => break,
                }
            }
            received.resize(ops.len(), None);
            received
        });
        let mut sent = Vec::with_capacity(ops.len());
        let mut out = writer;
        for op in ops {
            let due = start + op.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent.push(Instant::now());
            if out.write_all(format!("{}\n", op.line).as_bytes()).is_err() {
                break;
            }
        }
        sent.resize(ops.len(), Instant::now());
        Timings {
            start,
            sent,
            received: responses.join().expect("the reader thread does not panic"),
        }
    })
}

fn is_ok_response(resp: &str) -> bool {
    parse_value(resp).is_ok_and(|v| obj_get(&v, "ok").is_some())
}

/// One round: a fresh server, every session's bulk admit, then the
/// open-loop script.
struct Round {
    setups: Vec<f64>,
    /// `(request line, response line)` of each set-up line.
    log: Vec<(String, String)>,
    timings: Timings,
}

fn round(script: &Script) -> io::Result<Round> {
    // Extra set-ups (spawn, bulk admits, close) add samples to `setup_s`.
    let mut setups = Vec::with_capacity(SETUPS_PER_ROUND);
    for _ in 1..SETUPS_PER_ROUND {
        let started = Instant::now();
        let conn = Connected::open(script)?;
        setups.push(started.elapsed().as_secs_f64());
        conn.close();
    }
    let started = Instant::now();
    let mut conn = Connected::open(script)?;
    setups.push(started.elapsed().as_secs_f64());
    let timings = open_loop(&mut conn, &script.ops);
    let log = std::mem::take(&mut conn.log);
    conn.close();
    Ok(Round {
        setups,
        log,
        timings,
    })
}

/// Rounds for a run of `seconds`.
fn rounds(seconds: u64) -> usize {
    (seconds / ROUND_SECONDS).max(2) as usize
}

/// Runs the workload and fills `out`.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    let script = inputs(seed);
    let setup_requests: usize = script
        .setup
        .iter()
        .map(|l| l.matches("\"op\"").count())
        .sum();
    let mut done = Vec::new();
    for _ in 0..rounds(seconds) {
        out.attempted += (script.ops.len() + setup_requests) as u64;
        match round(&script) {
            Ok(r) => done.push(r),
            Err(e) => {
                out.failed += (script.ops.len() + setup_requests) as u64;
                out.errors.push(format!("admission: a round failed: {e}"));
            }
        }
    }
    out.set("max_rss_mb", max_rss_mb());
    let Some(first) = done.first() else {
        return;
    };
    let setups: Vec<f64> = done.iter().flat_map(|r| r.setups.iter().copied()).collect();
    out.set("setup_s", median(&setups));

    // Per request, the best latency over the rounds: every round replays
    // the same script against a fresh server, so what recurs is the
    // program's and what does not is the machine's.
    let mut mutate_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut client_ms = Vec::with_capacity(script.ops.len());
    let mut within_slo = 0usize;
    for (k, op) in script.ops.iter().enumerate() {
        let mut best: Option<(f64, f64)> = None;
        let mut all_ok = true;
        for r in &done {
            let t = &r.timings;
            match &t.received[k] {
                Some((at, resp)) if is_ok_response(resp) => {
                    let from_due = ms(at.saturating_duration_since(t.start + op.due));
                    let from_sent = ms(at.saturating_duration_since(t.sent[k]));
                    best = Some(best.map_or((from_due, from_sent), |(d, s)| {
                        (d.min(from_due), s.min(from_sent))
                    }));
                }
                _ => {
                    all_ok = false;
                    out.failed += 1;
                }
            }
        }
        client_ms.push(best.map(|(_, s)| s));
        let Some((latency, _)) = best else { continue };
        if op.mutates {
            mutate_ms.push(latency);
            within_slo += usize::from(all_ok && latency <= SLO_MS);
        } else {
            query_ms.push(latency);
        }
    }
    let late_ms: Vec<f64> = done
        .iter()
        .flat_map(|r| {
            let t = &r.timings;
            script
                .ops
                .iter()
                .zip(&t.sent)
                .map(|(op, sent)| ms(sent.saturating_duration_since(t.start + op.due)))
        })
        .collect();
    let capacity = done
        .iter()
        .map(|r| r.timings.capacity_per_s())
        .fold(0.0, f64::max);
    let mutations = script.ops.iter().filter(|o| o.mutates).count();
    out.failed += done
        .iter()
        .flat_map(|r| &r.log)
        .filter(|(_, resp)| resp.contains("\"error\""))
        .count() as u64;
    out.set("throughput_per_s", capacity);
    out.set("p50_ms", percentile(&mutate_ms, 0.5));
    out.set("tail_ms", percentile(&mutate_ms, 0.99));
    out.set("admission.query_p99_ms", percentile(&query_ms, 0.99));
    out.set(
        "admission.slo_frac",
        within_slo as f64 / mutations.max(1) as f64,
    );
    out.set("loadgen.late_p99_ms", percentile(&late_ms, 0.99));
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("admission: {failed} requests failed or went unanswered")
    });

    // The server is deterministic: every round must answer as the first
    // did, and the first round's exchange must replay from scratch.
    let exchanges = first.exchanges(&script);
    let differing = done[1..]
        .iter()
        .filter(|r| r.exchanges(&script) != exchanges)
        .count();
    out.check(differing == 0, || {
        format!("admission: {differing} rounds answered differently from the first")
    });
    check_replay(&exchanges, out);

    if trace {
        traced(&exchanges, script.setup.len(), &client_ms, out);
    }
}

impl Round {
    /// The round's full exchange, in connection order.
    fn exchanges(&self, script: &Script) -> Vec<(String, String)> {
        let mut all = self.log.clone();
        for (op, received) in script.ops.iter().zip(&self.timings.received) {
            if let Some((_, resp)) = received {
                all.push((op.line.clone(), resp.clone()));
            }
        }
        all
    }
}

impl Timings {
    /// Requests answered per second of time with a request outstanding
    /// (the union of the `[sent, received]` intervals; responses arrive
    /// in request order).
    fn capacity_per_s(&self) -> f64 {
        let mut busy = Duration::ZERO;
        let mut answered = 0usize;
        let mut previous: Option<Instant> = None;
        for (sent, received) in self.sent.iter().zip(&self.received) {
            let Some((at, _)) = received else { continue };
            let began = previous.map_or(*sent, |p| p.max(*sent));
            busy += at.saturating_duration_since(began);
            previous = Some(*at);
            answered += 1;
        }
        answered as f64 / busy.as_secs_f64()
    }
}

/// Re-derives every logged response from scratch with
/// [`replay_log`]. Sessions are independent, so the log is split by
/// session and the halves replay on two threads.
fn check_replay(exchanges: &[(String, String)], out: &mut Outcome) {
    let mut halves = [String::new(), String::new()];
    for (req, resp) in exchanges {
        let session = parse_value(req)
            .ok()
            .and_then(|v| match &v {
                Value::Arr(items) => items.first().and_then(|i| decode_request(i).ok()),
                single => decode_request(single).ok(),
            })
            .and_then(|r| r.session())
            .unwrap_or(0);
        let half = &mut halves[(session % 2) as usize];
        half.push_str(&format!("{{\"req\":{req},\"resp\":{resp}}}\n"));
    }
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|text| scope.spawn(move || replay_log(text)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay does not panic"))
            .collect()
    });
    let lines: usize = outcomes.iter().map(|o| o.lines).sum();
    let refutations: Vec<&String> = outcomes.iter().flat_map(|o| &o.refutations).collect();
    out.check(lines == exchanges.len(), || {
        format!(
            "admission: replay read {lines} of {} log lines",
            exchanges.len()
        )
    });
    out.check(refutations.is_empty(), || {
        format!(
            "admission: {} replay mismatches, first: {}",
            refutations.len(),
            refutations[0]
        )
    });
}

/// Time spent in each layer of one in-process replay.
#[derive(Debug, Default)]
struct Phases {
    decode: Duration,
    session: Duration,
    encode: Duration,
}

type Sessions<E> = HashMap<u64, AnalysisSession<E>>;

fn stamp(on: bool) -> Option<Instant> {
    on.then(Instant::now)
}

fn since(t: Option<Instant>) -> Duration {
    t.map_or(Duration::ZERO, |t| t.elapsed())
}

/// Answers one request line in process through the public functions the
/// server uses: `parse_value` + `decode_request`, the session operation,
/// `encode_report` + `write_value`.
fn respond<E: DelayEngine>(
    line: &str,
    sessions: &mut Sessions<E>,
    engine: &impl Fn() -> E,
    mut phases: Option<&mut Phases>,
) -> String {
    let on = phases.is_some();
    let t = stamp(on);
    let Ok(parsed) = parse_value(line) else {
        return String::new();
    };
    let decode = since(t);
    if let Some(p) = phases.as_deref_mut() {
        p.decode += decode;
    }
    let mut one = |v: &Value, phases: &mut Option<&mut Phases>| -> Value {
        let t = stamp(on);
        let request = decode_request(v);
        let decoded = since(t);
        let t = stamp(on);
        let response = match request {
            Ok(Request::Query { session }) => {
                let s = sessions
                    .entry(session)
                    .or_insert_with(|| AnalysisSession::new(engine()));
                Ok(s.report().clone())
            }
            Ok(Request::Admit { session, task }) => sessions
                .entry(session)
                .or_insert_with(|| AnalysisSession::new(engine()))
                .admit(task)
                .cloned(),
            Ok(Request::Remove { session, id }) => sessions
                .entry(session)
                .or_insert_with(|| AnalysisSession::new(engine()))
                .remove(id)
                .cloned(),
            Ok(Request::Update { session, id, task }) => sessions
                .entry(session)
                .or_insert_with(|| AnalysisSession::new(engine()))
                .update(id, task)
                .cloned(),
            Ok(_) | Err(_) => return Value::Null,
        };
        let operated = since(t);
        let t = stamp(on);
        let value = match response {
            Ok(report) => ok_response(encode_report(&report)),
            Err(e) => error_response(&session_error(&e)),
        };
        if let Some(p) = phases.as_deref_mut() {
            p.decode += decoded;
            p.session += operated;
            p.encode += since(t);
        }
        value
    };
    let value = match &parsed {
        Value::Arr(items) => Value::Arr(items.iter().map(|i| one(i, &mut phases)).collect()),
        single => one(single, &mut phases),
    };
    let t = stamp(on);
    let text = write_value(&value);
    if let Some(p) = phases {
        p.encode += since(t);
    }
    text
}

/// Replays the exchange in process over plain sessions (a warm-up and a
/// timed pass) and once over sessions on the decorated engine stack, and
/// splits each request's client-observed latency into in-process time
/// and socket/queue wait.
fn traced(
    exchanges: &[(String, String)],
    setup: usize,
    client_ms: &[Option<f64>],
    out: &mut Outcome,
) {
    let plain_pass = || {
        let cache = Arc::new(SharedDelayCache::default());
        let engine = || SharedCachedEngine::new(ExactEngine::default(), Arc::clone(&cache));
        let mut sessions: Sessions<SharedCachedEngine<ExactEngine>> = HashMap::new();
        let started = Instant::now();
        for (req, _) in exchanges {
            std::hint::black_box(respond(req, &mut sessions, &engine, None));
        }
        started.elapsed().as_secs_f64()
    };
    plain_pass();
    let untraced_s = plain_pass();

    let sinks = Sinks::default();
    let cache = Arc::new(SharedDelayCache::default());
    let traced_engine = || sinks.engine(&cache);
    let mut sessions: Sessions<TracedEngine> = HashMap::new();
    let mut phases = Phases::default();
    let mut wait_ms = Vec::with_capacity(client_ms.len());
    let mut mismatches = 0usize;
    let started = Instant::now();
    for (i, (req, resp)) in exchanges.iter().enumerate() {
        let before = phases.decode + phases.session + phases.encode;
        let got = respond(req, &mut sessions, &traced_engine, Some(&mut phases));
        let in_process = ms(phases.decode + phases.session + phases.encode - before);
        mismatches += usize::from(&got != resp);
        if let Some(Some(client)) = i.checked_sub(setup).and_then(|k| client_ms.get(k)) {
            wait_ms.push((client - in_process).max(0.0));
        }
    }
    let traced_s = started.elapsed().as_secs_f64();

    let mut totals = EngineTotals::default();
    let (mut ops, mut reused, mut fresh) = (0u64, 0u64, 0u64);
    for session in sessions.values() {
        totals.add(session.engine());
        let stats = session.stats();
        ops += stats.ops;
        reused += stats.verdicts_reused;
        fresh += stats.verdicts_fresh;
    }
    record_engine(out, &sinks, totals);
    out.set("core.session.ops", ops as f64);
    out.set(
        "core.session.self_s",
        phases
            .session
            .saturating_sub(sinks.lookup.busy())
            .as_secs_f64(),
    );
    out.set(
        "core.session.verdict_reuse",
        reused as f64 / (reused + fresh).max(1) as f64,
    );
    out.set("serve.requests", exchanges.len() as f64);
    out.set("serve.decode_s", phases.decode.as_secs_f64());
    out.set("serve.encode_s", phases.encode.as_secs_f64());
    out.set("serve.wait_p99_ms", percentile(&wait_ms, 0.99));
    out.set_overhead(untraced_s, traced_s);
    out.set("trace.checked", exchanges.len() as f64);
    out.check(mismatches == 0, || {
        format!("admission: {mismatches} in-process responses differ from the server's")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
    }

    #[test]
    fn two_seeds_read_different_sessions_between_the_same_mutations() {
        let (a, b) = (inputs(7), inputs(8));
        assert_eq!(a.setup, b.setup);
        assert_ne!(a.ops, b.ops);
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.mutates, y.mutates);
            if x.mutates {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn the_schedule_runs_at_the_offered_rate() {
        let script = inputs(7);
        assert_eq!(script.ops.len() as u64, ROUND_SECONDS * RATE);
        assert_eq!(script.ops.len(), SESSIONS as usize * OPS_PER_SESSION);
        assert!(script.ops.windows(2).all(|w| w[0].due < w[1].due));
        let queries = script.ops.iter().filter(|o| !o.mutates).count();
        assert!(queries > 0 && queries < script.ops.len() / 2);
    }
}
