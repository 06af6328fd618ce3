//! `campaign`: `pmcs_bench::run_campaign` at its default workload shape
//! (n=5, U=0.25, two-core regulated bus, EMA history) with one worker,
//! once per task set of a fixed pool, for as many rounds as fit in
//! `--seconds`.
//!
//! Every round runs the same pool; a campaign's time is its best over the
//! rounds. `--seed` sets the order of the campaigns within a round.

use std::time::{Duration, Instant};

use pmcs_analysis::{plan_horizon, AnalysisConfig, AnalysisContext, Registry, SimScratch};
use pmcs_bench::{bin_of, run_campaign, CampaignConfig, BINS};
use pmcs_model::{Sensitivity, TaskSet, Time};
use pmcs_sim::kernel::run_streaming;
use pmcs_workload::{adversarial_plan_into, adversarial_spec, derive_seed, TaskSetGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{max_rss_mb, median, percentile, Outcome};
use crate::sweep::approach_metric;

/// Base seed of the pool (the repository's default seed).
const POOL_SEED: u64 = 42;
/// Campaigns (task sets) in the pool: 100, so the per-campaign 90th
/// percentile has 10 samples beyond it.
const SETS: usize = 100;
/// Single-core plans per approach and campaign (the regulated-bus and
/// measured sections add a tenth per core and a twentieth).
const PLANS: usize = 250;
/// Plans per approach and set of the traced single-core loop.
const TRACED_PLANS: usize = 200;
/// Plain and traced passes of the traced loop (each side keeps its best).
const TRACED_PASSES: usize = 4;
const POOL_STREAM: u64 = 0xca3_b001;
const ORDER_STREAM: u64 = 0xca3_b002;
const TRACE_STREAM: u64 = 0xca3_b003;

/// The campaigns of a run with `seed`, in run order: the fixed pool,
/// permuted by the seed.
pub fn inputs(seed: u64) -> Vec<CampaignConfig> {
    let mut pool: Vec<CampaignConfig> = (0..SETS)
        .map(|k| CampaignConfig {
            plans: PLANS,
            seed: derive_seed(POOL_SEED, POOL_STREAM, k as u64),
            baseline_cap: 0,
            analysis: AnalysisConfig::default().with_jobs(1),
            ..CampaignConfig::default()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, ORDER_STREAM, 0));
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    pool
}

/// Fewest timed rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Runs the workload and fills `out`.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    let configs = inputs(seed);

    // Each campaign's time is its best over the rounds; the rounds are
    // identical, so what recurs is the program's and what does not is the
    // machine's.
    let mut best_wall_ms = vec![f64::INFINITY; configs.len()];
    let mut best_stream_s = vec![f64::INFINITY; configs.len()];
    let mut sims = vec![0u64; configs.len()];
    let mut refutations = Vec::new();
    let mut reports: Vec<Option<String>> = vec![None; configs.len()];
    let mut reruns_differ = 0usize;
    let mut setup = Vec::new();
    let timed = Instant::now();
    while setup.len() < MIN_ROUNDS || timed.elapsed() < Duration::from_secs(seconds) {
        // Set-up, sampled before every round: a one-plan campaign is the
        // set's bound analysis, partitioning and EMA history with (almost)
        // no streaming.
        let started = Instant::now();
        for cfg in &configs {
            let one = CampaignConfig {
                plans: 1,
                ..cfg.clone()
            };
            out.attempted += 1;
            out.failed += u64::from(run_campaign(&one).is_err());
        }
        setup.push(started.elapsed().as_secs_f64());
        for (k, cfg) in configs.iter().enumerate() {
            let started = Instant::now();
            let result = run_campaign(cfg);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            let Ok(c) = result else {
                out.failed += 1;
                continue;
            };
            best_wall_ms[k] = best_wall_ms[k].min(wall_ms);
            best_stream_s[k] = best_stream_s[k].min(c.campaign_secs);
            sims[k] = c.sims_run;
            refutations.extend(c.refutations.iter().cloned());
            // Every round reruns every seed: the reports must repeat.
            let text = c.report_text();
            reruns_differ += usize::from(reports[k].get_or_insert_with(|| text.clone()) != &text);
        }
    }
    out.set("max_rss_mb", max_rss_mb());
    out.set("setup_s", median(&setup));
    out.set(
        "throughput_per_s",
        sims.iter().sum::<u64>() as f64 / best_stream_s.iter().sum::<f64>(),
    );
    out.set("p50_ms", percentile(&best_wall_ms, 0.5));
    out.set("tail_ms", percentile(&best_wall_ms, 0.9));
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("campaign: {failed} campaigns failed")
    });
    out.check(refutations.is_empty(), || {
        format!(
            "campaign: {} refutations, first: {}",
            refutations.len(),
            refutations[0]
        )
    });
    out.check(reruns_differ == 0, || {
        format!("campaign: {reruns_differ} reports differ from the same seed's first run")
    });

    if trace {
        traced(&configs, out);
    }
}

/// One approach prepared for streaming, as the campaign's single-core
/// section prepares it.
struct Prep {
    seed: u64,
    name: String,
    marked: TaskSet,
    bounds: Vec<Option<Time>>,
    release_horizon: Time,
    horizon: Time,
}

/// Per-layer split of the single-core section: a benchmark-side loop
/// over the same public calls the campaign makes, run plain (a warm-up,
/// then [`TRACED_PASSES`] timed passes) and as often with a span around
/// each call.
fn traced(configs: &[CampaignConfig], out: &mut Outcome) {
    let registry = Registry::standard();
    let ctx = AnalysisContext::new(&AnalysisConfig::default());
    let mut gen_s = 0.0;
    let mut approach_s = vec![0.0f64; registry.len()];
    let mut preps = Vec::new();
    for cfg in configs {
        let started = Instant::now();
        let set = campaign_set(cfg);
        gen_s += started.elapsed().as_secs_f64();
        for (ai, analyzer) in registry.iter().enumerate() {
            let started = Instant::now();
            let report = analyzer.analyze_with(&set, &ctx);
            approach_s[ai] += started.elapsed().as_secs_f64();
            match report {
                Ok(report) => preps.push(prep(cfg.seed, &set, analyzer.name(), &report)),
                Err(_) => out.failed += 1,
            }
        }
    }
    out.set("workload.gen_s", gen_s);
    for (analyzer, secs) in registry.iter().zip(&approach_s) {
        if let Some(name) = approach_metric(analyzer.name()) {
            out.set(name, *secs);
        }
    }

    // Plain and traced passes alternate after a warm-up; each side keeps
    // its best, and every traced pass must observe what the plain loop
    // did.
    let mut scratch = SimScratch::new();
    let plain = stream(&preps, &mut scratch, None);
    let mut untraced_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut spans = Spans::default();
    let mut timed = None;
    let mut differ = 0usize;
    for _ in 0..TRACED_PASSES {
        let started = Instant::now();
        std::hint::black_box(stream(&preps, &mut scratch, None));
        untraced_s = untraced_s.min(started.elapsed().as_secs_f64());
        let mut pass = Spans::default();
        let started = Instant::now();
        let seen = stream(&preps, &mut scratch, Some(&mut pass));
        let took = started.elapsed().as_secs_f64();
        differ += usize::from(seen != plain);
        if took < traced_s {
            (traced_s, spans) = (took, pass);
        }
        timed = Some(seen);
    }
    let timed = timed.expect("at least one traced pass");

    out.set("workload.plans", spans.plans as f64);
    out.set("workload.plan_s", spans.plan_s);
    out.set("sim.runs", spans.plans as f64);
    out.set("sim.busy_s", spans.sim_s);
    out.set("bench.campaign.check_s", spans.check_s);
    out.set("bench.campaign.refutations", timed.refutations as f64);
    out.set_overhead(untraced_s, traced_s);
    out.set("trace.checked", spans.plans as f64);
    out.check(timed.refutations == 0, || {
        format!(
            "campaign: traced loop found {} refutations",
            timed.refutations
        )
    });
    out.check(differ == 0, || {
        format!("campaign: {differ} traced passes observed other responses than the plain loop")
    });
}

/// The campaign's single-core workload for `cfg`: generated set, lowest
/// priority marked latency-sensitive.
fn campaign_set(cfg: &CampaignConfig) -> TaskSet {
    let config = pmcs_workload::TaskSetConfig {
        n: cfg.tasks,
        utilization: cfg.util,
        ..pmcs_workload::TaskSetConfig::default()
    };
    let set = TaskSetGenerator::new(config, cfg.seed).generate();
    let lowest = set
        .iter()
        .max_by_key(|t| t.priority().0)
        .map(|t| t.id())
        .expect("generated sets are non-empty");
    set.with_sensitivity(lowest, Sensitivity::Ls)
        .expect("the lowest-priority task is in the set")
}

/// Marks the set as the report did and keeps its bounds when the report
/// is schedulable, as the campaign does.
fn prep(seed: u64, set: &TaskSet, name: &str, report: &pmcs_analysis::ApproachReport) -> Prep {
    let mut marked = set.clone();
    for t in &report.tasks {
        if let Some(s) = t.sensitivity {
            marked = marked
                .with_sensitivity(t.task, s)
                .expect("reported tasks are in the set");
        }
    }
    let bounds = marked
        .tasks()
        .iter()
        .map(|task| {
            report
                .schedulable()
                .then(|| report.verdict(task.id()).map(|t| t.wcrt))
                .flatten()
        })
        .collect();
    let release_horizon = plan_horizon(&marked);
    let max_d = marked
        .iter()
        .map(|t| t.deadline())
        .max()
        .unwrap_or(Time::ZERO);
    let tail: i64 = marked.iter().map(|t| t.wcet_serialized().as_ticks()).sum();
    Prep {
        seed,
        name: name.to_string(),
        marked,
        bounds,
        release_horizon,
        horizon: release_horizon + max_d + Time::from_ticks(2 * tail),
    }
}

/// Time spent in each public call of the streaming loop.
#[derive(Debug, Default)]
struct Spans {
    plans: u64,
    plan_s: f64,
    sim_s: f64,
    check_s: f64,
}

/// What the loop observed; plain and traced loops must agree.
#[derive(Debug, PartialEq)]
struct Observed {
    bins: Vec<u64>,
    worst: Vec<Option<Time>>,
    refutations: u64,
}

/// Streams [`TRACED_PLANS`] plans per prep, folding responses into a
/// log₂ histogram and checking bounds as the campaign's single-core
/// section does; with `spans`, each call is timed.
fn stream(preps: &[Prep], scratch: &mut SimScratch, mut spans: Option<&mut Spans>) -> Observed {
    let sims = pmcs_sim::Registry::standard();
    let mut seen = Observed {
        bins: vec![0; BINS],
        worst: Vec::new(),
        refutations: 0,
    };
    for prep in preps {
        let policy = sims
            .get(&prep.name)
            .expect("analyzer and simulator registries are aligned");
        let base = derive_seed(prep.seed, TRACE_STREAM, 0);
        let mut worst = None;
        for i in 0..TRACED_PLANS {
            let on = spans.is_some();
            let t0 = on.then(Instant::now);
            adversarial_plan_into(
                &prep.marked,
                prep.release_horizon,
                adversarial_spec(i, base),
                &mut scratch.plan,
            );
            let t1 = on.then(Instant::now);
            let bins = &mut seen.bins;
            let stats = run_streaming(
                &prep.marked,
                &scratch.plan,
                policy,
                prep.horizon,
                &mut scratch.ws,
                |_, r| bins[bin_of(r)] += 1,
            );
            let t2 = on.then(Instant::now);
            for (ti, bound) in prep.bounds.iter().enumerate() {
                let observed = stats.worst_response(ti);
                worst = worst.max(observed);
                if let (Some(b), Some(w)) = (bound, observed) {
                    seen.refutations += u64::from(w > *b);
                }
            }
            if let (Some(s), Some(t0), Some(t1), Some(t2)) = (spans.as_deref_mut(), t0, t1, t2) {
                s.plans += 1;
                s.plan_s += (t1 - t0).as_secs_f64();
                s.sim_s += (t2 - t1).as_secs_f64();
                s.check_s += t2.elapsed().as_secs_f64();
            }
        }
        seen.worst.push(worst);
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(seed: u64) -> Vec<u64> {
        inputs(seed).iter().map(|c| c.seed).collect()
    }

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(seeds(7), seeds(7));
        let cfg = &inputs(7)[0];
        assert_eq!(campaign_set(cfg), campaign_set(cfg));
    }

    #[test]
    fn two_seeds_give_different_orders_of_one_pool() {
        let (mut a, mut b) = (seeds(7), seeds(8));
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
