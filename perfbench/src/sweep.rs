//! `sweep`: an offline batch of fig2b-style task sets (γ=0.3, β=0.4, U
//! grid 0.05–0.60), every set analyzed by every approach of
//! `Registry::standard()` with one worker and a cold cache.
//!
//! The batch is a fixed pool, analyzed in grid order once per round, each
//! round with a fresh (cold) analysis context, for as many rounds as fit
//! in `--seconds`; a set's time is its best over the rounds. `--seed`
//! picks the plans of the cross-validation that follows the timed
//! rounds. Why the pool does not depend on the seed, and why its sets
//! have four tasks, is in the README.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmcs_analysis::{
    cross_validate_report_in, AnalysisConfig, AnalysisContext, ApproachReport, Registry, SimScratch,
};
use pmcs_bench::{evaluate_set_with_reports, fig2_inset, Fig2Inset, SetOutcome};
use pmcs_core::{analyze_task_set, ExactEngine, SharedCachedEngine, SharedDelayCache};
use pmcs_model::TaskSet;
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

use crate::report::{max_rss_mb, median, ms, percentile, Outcome};
use crate::timed::{record_engine, EngineTotals, Sinks};

/// Base seed of the pool (the repository's default seed).
const POOL_SEED: u64 = 42;
/// Tasks per set (fig2b has n=6; see the README).
const TASKS: usize = 4;
/// Sets per utilization point: 12 points × 17 = 204 sets, so the
/// per-set 95th percentile has 10 samples beyond it.
const SETS_PER_POINT: usize = 17;
/// Adversarial plans simulated per approach and set after the timed
/// rounds.
const XVAL_PLANS: usize = 3;
/// Fewest timed rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Plain and traced passes of the traced run (each side keeps its best).
const TRACED_PASSES: usize = 10;
const XVAL_STREAM: u64 = 0x5eed_0002;

/// What a run analyzes and simulates.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The pool, in analysis order (seed-independent).
    pub sets: Vec<TaskSet>,
    /// Base seed of the cross-validation plans.
    pub xval_seed: u64,
}

/// The inputs of a run with `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut sets = Vec::with_capacity(12 * SETS_PER_POINT);
    for (pi, point) in fig2_inset(Fig2Inset::B).iter().enumerate() {
        let config = TaskSetConfig {
            n: TASKS,
            ..point.config.clone()
        };
        for si in 0..SETS_PER_POINT {
            let set_seed = derive_seed(POOL_SEED, pi as u64, si as u64);
            sets.push(TaskSetGenerator::new(config.clone(), set_seed).generate());
        }
    }
    Inputs {
        sets,
        xval_seed: derive_seed(seed, XVAL_STREAM, 0),
    }
}

type Row = Vec<(SetOutcome, Option<ApproachReport>)>;

/// Runs the workload and fills `out`.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    let Inputs { sets, xval_seed } = inputs(seed);
    // Timed rounds: the facade, exactly as sweeps call it. Each set's
    // time is its best over the rounds; the rounds are identical, so what
    // recurs is the program's and what does not is the machine's.
    let registry = Registry::standard();
    let mut best_ms = vec![f64::INFINITY; sets.len()];
    let mut rows: Vec<Row> = Vec::new();
    let mut setup = Vec::new();
    let mut rss_mb = 0.0;
    let timed = Instant::now();
    while setup.len() < MIN_ROUNDS || timed.elapsed() < Duration::from_secs(seconds) {
        // Set-up samples are spread over the run, like the rounds.
        let started = Instant::now();
        std::hint::black_box(inputs(seed));
        setup.push(started.elapsed().as_secs_f64());
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        rows = sets
            .iter()
            .zip(best_ms.iter_mut())
            .map(|(set, best)| {
                let started = Instant::now();
                let outcomes = evaluate_set_with_reports(set, &registry, &ctx);
                *best = best.min(ms(started.elapsed()));
                outcomes.into_iter().map(|(o, _, r)| (o, r)).collect()
            })
            .collect();
        if setup.len() == 1 {
            // The peak of one pass over the batch. Later rounds repeat
            // the same work and add only allocator fragmentation, which
            // grows with the number of rounds that fit in the run.
            rss_mb = max_rss_mb();
        }
    }
    out.set("max_rss_mb", rss_mb);
    out.set("setup_s", median(&setup));
    out.set("workload.gen_s", median(&setup));
    out.set(
        "throughput_per_s",
        sets.len() as f64 * 1e3 / best_ms.iter().sum::<f64>(),
    );
    out.set("p50_ms", percentile(&best_ms, 0.5));
    out.set("tail_ms", percentile(&best_ms, 0.95));

    out.attempted = (setup.len() * sets.len() * registry.len()) as u64;
    out.failed = rows.iter().flatten().filter(|(o, _)| o.failed()).count() as u64;
    let failed = out.failed;
    out.check(failed == 0, || format!("sweep: {failed} analyses failed"));

    cross_validate(xval_seed, &sets, &registry, &rows, out);
    if trace {
        traced(&sets, &registry, &rows, out);
    }
}

/// Simulates every report under adversarial plans after the timed
/// rounds; a refutation of a schedulable verdict (or an invalid trace)
/// fails the run.
fn cross_validate(
    xval_seed: u64,
    sets: &[TaskSet],
    registry: &Registry,
    rows: &[Row],
    out: &mut Outcome,
) {
    let sims = pmcs_sim::Registry::standard();
    let mut scratch = SimScratch::new();
    let mut refutations = Vec::new();
    let mut checked_bounds = 0u64;
    for (si, (set, row)) in sets.iter().zip(rows).enumerate() {
        for (ai, (analyzer, (_, report))) in registry.iter().zip(row).enumerate() {
            let (Some(report), Some(policy)) = (report, sims.get(analyzer.name())) else {
                continue;
            };
            let specs = adversarial_specs(XVAL_PLANS, derive_seed(xval_seed, si as u64, ai as u64));
            match cross_validate_report_in(set, policy, report, &specs, &mut scratch) {
                Ok((_, found)) => {
                    checked_bounds += u64::from(report.schedulable());
                    refutations.extend(found.iter().map(|r| format!("set={si} {r}")));
                }
                Err(e) => refutations.push(format!("set={si} cross-validation failed: {e}")),
            }
        }
    }
    out.check(checked_bounds > 0, || {
        "sweep: no schedulable verdict was cross-validated".to_string()
    });
    out.check(refutations.is_empty(), || {
        format!(
            "sweep: {} refutations, first: {}",
            refutations.len(),
            refutations[0]
        )
    });
}

/// The traced run: [`TRACED_PASSES`] traced passes over the pool
/// ("proposed" over the decorated engine stack, the baselines timed one
/// by one), whose verdicts must all equal the facade's. Passes of
/// "proposed" over the same stack without decorators give the tracing
/// overhead.
fn traced(sets: &[TaskSet], registry: &Registry, rows: &[Row], out: &mut Outcome) {
    // A pass takes well under a second, so single passes would read the
    // machine's phase; plain and traced passes alternate and each side
    // keeps its best.
    let mut untraced_s = f64::INFINITY;
    let mut best: Option<TracedPass> = None;
    let mut mismatches = Vec::new();
    for _ in 0..TRACED_PASSES {
        untraced_s = untraced_s.min(plain_pass(sets));
        let pass = traced_pass(sets, registry, rows);
        mismatches.extend(pass.mismatches.iter().cloned());
        if best
            .as_ref()
            .is_none_or(|b| pass.approach_s[0] < b.approach_s[0])
        {
            best = Some(pass);
        }
    }
    let pass = best.expect("at least one traced pass");

    record_engine(out, &pass.sinks, pass.totals);
    for (analyzer, secs) in registry.iter().zip(&pass.approach_s) {
        if let Some(name) = approach_metric(analyzer.name()) {
            out.set(name, *secs);
        }
    }
    let proposed_s = pass.approach_s[0];
    out.set(
        "core.schedulability.self_s",
        (proposed_s - pass.sinks.lookup.busy().as_secs_f64()).max(0.0),
    );
    out.set("core.schedulability.rounds", pass.rounds as f64);
    out.set_overhead(untraced_s, proposed_s);
    out.set("trace.checked", (sets.len() * registry.len()) as f64);
    out.check(mismatches.is_empty(), || {
        format!(
            "sweep: {} traced verdicts differ from the facade, first: {}",
            mismatches.len(),
            mismatches[0]
        )
    });
}

/// One pass of "proposed" over the undecorated stack; its time.
fn plain_pass(sets: &[TaskSet]) -> f64 {
    let plain = SharedCachedEngine::new(
        ExactEngine::default(),
        Arc::new(SharedDelayCache::default()),
    );
    let started = Instant::now();
    for set in sets {
        std::hint::black_box(analyze_task_set(set, &plain).ok());
    }
    started.elapsed().as_secs_f64()
}

/// What one traced pass over the pool recorded.
struct TracedPass {
    sinks: Sinks,
    totals: EngineTotals,
    /// Time per approach, in registry order ("proposed" first).
    approach_s: Vec<f64>,
    rounds: usize,
    mismatches: Vec<String>,
}

/// One pass over the pool: "proposed" over a fresh decorated stack, the
/// baselines through the facade, every verdict compared with the
/// facade's.
fn traced_pass(sets: &[TaskSet], registry: &Registry, rows: &[Row]) -> TracedPass {
    let ctx = AnalysisContext::new(&AnalysisConfig::default());
    let sinks = Sinks::default();
    let engine = sinks.engine(&Arc::new(SharedDelayCache::default()));
    let mut approach_s = vec![0.0f64; registry.len()];
    let mut rounds = 0usize;
    let mut mismatches = Vec::new();
    for (si, (set, row)) in sets.iter().zip(rows).enumerate() {
        for (ai, analyzer) in registry.iter().enumerate() {
            let started = Instant::now();
            let report = if analyzer.name() == "proposed" {
                analyze_task_set(set, &engine).ok().map(|r| {
                    rounds += r.rounds();
                    ApproachReport::from_schedulability("proposed", &r)
                })
            } else {
                analyzer.analyze_with(set, &ctx).ok()
            };
            approach_s[ai] += started.elapsed().as_secs_f64();
            if verdict(report.as_ref()) != verdict(row[ai].1.as_ref()) {
                mismatches.push(format!("set={si} approach={}", analyzer.name()));
            }
        }
    }
    let mut totals = EngineTotals::default();
    totals.add(&engine);
    TracedPass {
        sinks,
        totals,
        approach_s,
        rounds,
        mismatches,
    }
}

/// The per-layer metric of an approach's analysis time.
pub fn approach_metric(approach: &str) -> Option<&'static str> {
    match approach {
        "proposed" => Some("analysis.proposed_s"),
        "wp" => Some("analysis.wp_s"),
        "nps" => Some("analysis.nps_s"),
        "nps-classic" => Some("analysis.nps-classic_s"),
        _ => None,
    }
}

/// The byte form of a verdict: every per-task bound and marking, the LS
/// assignment and the rounds (solver effort is excluded).
fn verdict(report: Option<&ApproachReport>) -> String {
    report.map_or_else(
        || "failed".to_string(),
        |r| format!("{:?} {:?} {:?}", r.tasks, r.assignment, r.rounds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_eq!(inputs(7).sets.len(), 204);
    }

    #[test]
    fn two_seeds_give_different_plans_over_one_pool() {
        let (a, b) = (inputs(7), inputs(8));
        assert_eq!(a.sets, b.sets);
        assert_ne!(a.xval_seed, b.xval_seed);
    }
}
