//! Schedulability-ratio sweeps (the machinery behind Figure 2).
//!
//! [`sweep_with`] fans the `(point, task set)` grid across a worker pool
//! ([`crate::parallel`]); every item derives its RNG stream from
//! `(base_seed, point_index, set_index)` via
//! [`pmcs_workload::derive_seed`], so the measured ratios — and the CSVs
//! derived from them — are byte-identical for every thread count and
//! cache configuration. Each worker analyzes through its own
//! [`AnalysisContext`] (engine stack built from the [`AnalysisConfig`]),
//! memoizing delay bounds across fixed-point iterations, greedy rounds,
//! and task sets.
//!
//! The approaches under comparison come from a [`Registry`] — sweep
//! columns are whatever is registered, in registration order; nothing in
//! this module knows how many approaches exist.
//!
//! Analyses that *fail* (solver failure, audit refutation) count as
//! unschedulable in the ratios — matching the paper's pessimistic
//! convention — but are additionally tallied per approach in
//! [`SweepRow::failures`] and surfaced through
//! [`SweepOutcome::total_failures`], never silently folded away.
//!
//! With [`AnalysisConfig::cross_validate`] `> 0`, every analyzed set is
//! additionally simulated under that many adversarial release plans per
//! approach (policies resolved by name from the simulator registry), the
//! traces validated, and observed worst responses checked against the
//! analytical bounds. Counters land in [`SweepOutcome::sim`]; any
//! refutations appear as machine-readable lines in
//! [`SweepOutcome::refutations`], ordered by `(point, set, approach,
//! plan)` — byte-identical for every thread count.

use std::sync::Arc;
use std::time::Instant;

use pmcs_analysis::{
    cross_validate_reports, AnalysisConfig, AnalysisContext, AnalysisError, ApproachReport,
    Registry, SimCounters, SimScratch,
};
use pmcs_core::{CacheStats, SharedDelayCache, SolverStats};
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

use crate::parallel::parallel_map_with;

/// Stream tag separating cross-validation plan seeds from the task-set
/// generation seeds derived from the same `(base_seed, point, set)` item
/// seed.
const CV_SEED_STREAM: u64 = 0xadd7_e55a;

/// Outcome of one approach on one task set: a verdict, or a *failed*
/// analysis (distinct from "analyzed fine, deadlines missed").
#[derive(Debug, Clone, PartialEq)]
pub enum SetOutcome {
    /// The analysis completed; every task meets its deadline.
    Schedulable,
    /// The analysis completed; some task misses its deadline.
    Unschedulable,
    /// The analysis itself failed.
    Failed(AnalysisError),
}

impl SetOutcome {
    /// `true` iff the set was proven schedulable.
    pub fn schedulable(&self) -> bool {
        matches!(self, SetOutcome::Schedulable)
    }

    /// `true` iff the analysis failed (as opposed to concluding).
    pub fn failed(&self) -> bool {
        matches!(self, SetOutcome::Failed(_))
    }
}

/// One x-axis point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// X value (utilization, γ, or β depending on the figure).
    pub x: f64,
    /// Generator configuration for this point.
    pub config: TaskSetConfig,
}

/// Measured schedulability ratios at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// X value of the point.
    pub x: f64,
    /// Schedulable fraction per approach, in registry order.
    pub ratios: Vec<f64>,
    /// Failed analyses per approach, in registry order (failures count
    /// as unschedulable in `ratios` but are never hidden).
    pub failures: Vec<usize>,
    /// Task sets evaluated.
    pub sets: usize,
}

/// A sweep's rows plus the execution telemetry feeding `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Approach names, in registry order (the column order of `rows`).
    pub labels: Vec<String>,
    /// Measured ratios, aligned with the input points.
    pub rows: Vec<SweepRow>,
    /// Aggregate compute seconds per point (summed across workers, so
    /// with `jobs > 1` this exceeds the wall-clock share).
    pub point_secs: Vec<f64>,
    /// Delay-cache statistics merged over all workers.
    pub cache: CacheStats,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Solver effort per approach, in registry order (summed over every
    /// point and task set; all-zero for closed-form approaches).
    pub solver: Vec<SolverStats>,
    /// Simulation cross-validation counters, merged over every point, set
    /// and approach (all-zero when `cross_validate` is off).
    pub sim: SimCounters,
    /// Machine-readable refutation lines, in deterministic
    /// `(point, set, approach, plan)` order — byte-identical for every
    /// thread count. Empty when the analyses are sound (or
    /// cross-validation is off).
    pub refutations: Vec<String>,
}

impl SweepOutcome {
    /// Failed analyses summed over every point and approach.
    pub fn total_failures(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.failures.iter().sum::<usize>())
            .sum()
    }
}

/// Evaluates one task set under every registered approach; outcomes are
/// in registry order.
pub fn evaluate_set(
    set: &pmcs_model::TaskSet,
    registry: &Registry,
    ctx: &AnalysisContext,
) -> Vec<SetOutcome> {
    evaluate_set_with_stats(set, registry, ctx)
        .into_iter()
        .map(|(outcome, _)| outcome)
        .collect()
}

/// As [`evaluate_set`], additionally returning the solver effort each
/// approach's report attributed to this set (zero for failed analyses —
/// their effort is not meaningfully attributable).
pub fn evaluate_set_with_stats(
    set: &pmcs_model::TaskSet,
    registry: &Registry,
    ctx: &AnalysisContext,
) -> Vec<(SetOutcome, SolverStats)> {
    evaluate_set_with_reports(set, registry, ctx)
        .into_iter()
        .map(|(outcome, stats, _)| (outcome, stats))
        .collect()
}

/// As [`evaluate_set_with_stats`], additionally keeping each successful
/// analysis's full [`ApproachReport`] (needed downstream for simulation
/// cross-validation; `None` for failed analyses).
pub fn evaluate_set_with_reports(
    set: &pmcs_model::TaskSet,
    registry: &Registry,
    ctx: &AnalysisContext,
) -> Vec<(SetOutcome, SolverStats, Option<ApproachReport>)> {
    registry
        .iter()
        .map(|analyzer| match analyzer.analyze_with(set, ctx) {
            Ok(report) => {
                let outcome = if report.schedulable() {
                    SetOutcome::Schedulable
                } else {
                    SetOutcome::Unschedulable
                };
                let solver = report.solver;
                (outcome, solver, Some(report))
            }
            Err(e) => (SetOutcome::Failed(e), SolverStats::default(), None),
        })
        .collect()
}

/// Runs a sweep: for each point, generates `sets_per_point` task sets
/// (each seeded deterministically from `(base_seed, point, set)`) and
/// measures the schedulability ratio of every registered approach.
///
/// The rows depend only on `(points, sets_per_point, base_seed,
/// registry)` — never on `cfg`'s execution knobs (thread count and
/// caching change wall-clock and telemetry, not results).
pub fn sweep_with(
    points: &[SweepPoint],
    sets_per_point: usize,
    base_seed: u64,
    registry: &Registry,
    cfg: &AnalysisConfig,
) -> SweepOutcome {
    let n_approaches = registry.len();
    let items: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|pi| (0..sets_per_point).map(move |si| (pi, si)))
        .collect();
    let started = Instant::now();
    // One process-wide window cache for the whole sweep: every worker's
    // stack shares it, so a window solved on any thread is a hit for all.
    // Rows cannot change — bounds are content-addressed — and each
    // context reports only its own lookups, so the merge below counts
    // every lookup exactly once.
    let shared_cache = Arc::new(SharedDelayCache::default());
    // Each worker owns one analysis context AND one simulation scratch
    // (workspace + plan buffer): every cross-validated plan in the sweep
    // reuses the worker's buffers instead of allocating per run.
    let (evaluated, contexts) = parallel_map_with(
        &items,
        cfg.jobs,
        || {
            (
                AnalysisContext::with_shared_cache(cfg, Arc::clone(&shared_cache)),
                SimScratch::new(),
            )
        },
        |(ctx, scratch), _, &(pi, si)| {
            let t0 = Instant::now();
            let seed = derive_seed(base_seed, pi as u64, si as u64);
            let set = TaskSetGenerator::new(points[pi].config.clone(), seed).generate();
            let outcomes = evaluate_set_with_reports(&set, registry, ctx);
            // Plan seeds derive from `(item seed, approach index)`, so
            // results are independent of scheduling order.
            let (sim, refutations) = if cfg.cross_validate > 0 {
                match cross_validate_reports(
                    &set,
                    outcomes.iter().map(|(_, _, report)| report.as_ref()),
                    |ai| {
                        let seed = derive_seed(seed, CV_SEED_STREAM, ai as u64);
                        adversarial_specs(cfg.cross_validate, seed)
                    },
                    scratch,
                ) {
                    Ok((sim, found)) => (sim, found.iter().map(|r| r.to_string()).collect()),
                    Err(e) => (
                        SimCounters::default(),
                        vec![format!("ERROR cross-validation failed: {e}")],
                    ),
                }
            } else {
                (SimCounters::default(), Vec::new())
            };
            (outcomes, sim, refutations, t0.elapsed().as_secs_f64())
        },
    );
    let wall_secs = started.elapsed().as_secs_f64();

    let mut wins = vec![vec![0usize; n_approaches]; points.len()];
    let mut fails = vec![vec![0usize; n_approaches]; points.len()];
    let mut point_secs = vec![0.0f64; points.len()];
    let mut solver = vec![SolverStats::default(); n_approaches];
    let mut sim = SimCounters::default();
    let mut refutations = Vec::new();
    for (&(pi, si), (outcomes, item_sim, item_refs, secs)) in items.iter().zip(&evaluated) {
        for (ai, (o, stats, _)) in outcomes.iter().enumerate() {
            wins[pi][ai] += usize::from(o.schedulable());
            fails[pi][ai] += usize::from(o.failed());
            solver[ai].merge(*stats);
        }
        sim.merge(item_sim);
        refutations.extend(
            item_refs
                .iter()
                .map(|line| format!("point={pi} set={si} {line}")),
        );
        point_secs[pi] += secs;
    }
    let rows = points
        .iter()
        .zip(wins.into_iter().zip(fails))
        .map(|(point, (w, f))| SweepRow {
            x: point.x,
            ratios: w
                .into_iter()
                .map(|w| w as f64 / sets_per_point.max(1) as f64)
                .collect(),
            failures: f,
            sets: sets_per_point,
        })
        .collect();
    let mut cache = CacheStats::default();
    for (ctx, _) in contexts {
        cache.merge(ctx.cache_stats());
    }
    SweepOutcome {
        labels: registry.labels(),
        rows,
        point_secs,
        cache,
        jobs: cfg.jobs,
        wall_secs,
        solver,
        sim,
        refutations,
    }
}

/// Single-threaded, cached [`sweep_with`] over the standard registry,
/// returning only the rows.
pub fn sweep(points: &[SweepPoint], sets_per_point: usize, base_seed: u64) -> Vec<SweepRow> {
    sweep_with(
        points,
        sets_per_point,
        base_seed,
        &Registry::standard(),
        &AnalysisConfig::default(),
    )
    .rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_analysis::{Analyzer, ApproachReport};
    use pmcs_baselines::WpAnalysis;
    use pmcs_core::CoreError;
    use pmcs_model::TaskSet;

    #[test]
    fn evaluate_set_is_consistent_with_direct_calls() {
        let mut g = TaskSetGenerator::new(
            TaskSetConfig {
                n: 3,
                utilization: 0.2,
                ..TaskSetConfig::default()
            },
            7,
        );
        let set = g.generate();
        let registry = Registry::standard();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        let outcomes = evaluate_set(&set, &registry, &ctx);
        assert_eq!(outcomes.len(), registry.len());
        assert_eq!(
            outcomes[1].schedulable(),
            WpAnalysis::default().is_schedulable(&set)
        );
        assert!(outcomes.iter().all(|o| !o.failed()));
    }

    fn small_points() -> Vec<SweepPoint> {
        [0.1, 0.2]
            .iter()
            .map(|&u| SweepPoint {
                x: u,
                config: TaskSetConfig {
                    n: 3,
                    utilization: u,
                    ..TaskSetConfig::default()
                },
            })
            .collect()
    }

    #[test]
    fn sweep_rows_align_with_points() {
        let rows = sweep(&small_points(), 3, 42);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].x, 0.1);
        assert_eq!(rows[0].ratios.len(), 4);
        assert!(rows
            .iter()
            .all(|r| r.ratios.iter().all(|&v| (0.0..=1.0).contains(&v))));
        assert!(rows.iter().all(|r| r.failures.iter().all(|&f| f == 0)));
    }

    #[test]
    fn outcome_telemetry_is_populated() {
        let points = small_points();
        let out = sweep_with(
            &points,
            4,
            42,
            &Registry::standard(),
            &AnalysisConfig::default().with_jobs(2),
        );
        assert_eq!(out.labels, ["proposed", "wp", "nps", "nps-classic"]);
        assert_eq!(out.rows.len(), points.len());
        assert_eq!(out.point_secs.len(), points.len());
        assert_eq!(out.jobs, 2);
        assert!(out.wall_secs >= 0.0);
        assert_eq!(out.total_failures(), 0);
        // 4 sets × 2 points: the fixed points alone guarantee lookups.
        assert!(out.cache.hits + out.cache.misses > 0);
        // Solver effort: one entry per approach; the engine-backed
        // "proposed" column spends search nodes, closed-form columns none.
        assert_eq!(out.solver.len(), out.labels.len());
        assert!(out.solver[0].bb_nodes > 0);
        assert!(out.solver[1].is_empty());
    }

    #[test]
    fn caching_does_not_change_rows() {
        let points = small_points();
        let registry = Registry::standard();
        let cached = sweep_with(&points, 5, 7, &registry, &AnalysisConfig::default());
        let uncached = sweep_with(
            &points,
            5,
            7,
            &registry,
            &AnalysisConfig::default().with_cache(false),
        );
        assert_eq!(cached.rows, uncached.rows);
        assert_eq!(uncached.cache, CacheStats::default());
    }

    /// An analyzer whose analysis always fails, to observe the failure
    /// accounting end to end.
    struct FailingAnalyzer;

    impl Analyzer for FailingAnalyzer {
        fn name(&self) -> &str {
            "failing"
        }

        fn analyze_with(
            &self,
            _set: &TaskSet,
            _ctx: &AnalysisContext,
        ) -> Result<ApproachReport, AnalysisError> {
            Err(AnalysisError::from(CoreError::AuditFailed {
                check: "test",
                detail: "injected failure".into(),
            }))
        }
    }

    #[test]
    fn cross_validation_counts_plans_and_finds_no_refutations() {
        let points = small_points();
        let out = sweep_with(
            &points,
            2,
            42,
            &Registry::standard(),
            &AnalysisConfig::default().with_cross_validate(3),
        );
        assert_eq!(
            out.refutations,
            Vec::<String>::new(),
            "sound analyses must survive adversarial plans"
        );
        // 2 points × 2 sets × 4 approaches × 3 plans (every approach has
        // a same-named simulator policy).
        assert_eq!(out.sim.plans_run, 2 * 2 * 4 * 3);
        assert_eq!(out.sim.refutations, 0);
        assert!(out.sim.sim_secs > 0.0);
        // NPS policies have no interval structure to validate; the two
        // interval-structured approaches validate every trace.
        assert_eq!(out.sim.traces_validated, 2 * 2 * 2 * 3);
    }

    #[test]
    fn cross_validation_off_leaves_counters_zero() {
        let out = sweep_with(
            &small_points(),
            2,
            42,
            &Registry::standard(),
            &AnalysisConfig::default(),
        );
        assert_eq!(out.sim, SimCounters::default());
        assert!(out.refutations.is_empty());
    }

    /// An analyzer that claims schedulability with absurdly small bounds,
    /// forcing refutations on every plan — used to observe the refutation
    /// report path and its thread-count determinism.
    struct WeakenedProposed;

    impl Analyzer for WeakenedProposed {
        fn name(&self) -> &str {
            "proposed"
        }

        fn analyze_with(
            &self,
            set: &TaskSet,
            ctx: &AnalysisContext,
        ) -> Result<ApproachReport, AnalysisError> {
            let mut report = pmcs_analysis::ProposedAnalyzer.analyze_with(set, ctx)?;
            for task in &mut report.tasks {
                task.wcrt = pmcs_model::Time::TICK;
                task.schedulable = true;
            }
            Ok(report)
        }
    }

    #[test]
    fn refutation_reports_are_identical_for_any_thread_count() {
        let mut registry = Registry::new();
        registry.register(Box::new(WeakenedProposed));
        let points = small_points();
        let run = |jobs: usize| {
            sweep_with(
                &points,
                3,
                42,
                &registry,
                &AnalysisConfig::default()
                    .with_jobs(jobs)
                    .with_cross_validate(2),
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(
            !serial.refutations.is_empty(),
            "a one-tick bound must be refuted"
        );
        assert_eq!(serial.refutations, parallel.refutations);
        assert_eq!(serial.sim.refutations, parallel.sim.refutations);
        let first = &serial.refutations[0];
        assert!(first.starts_with("point=0 set=0 REFUTATION"), "{first}");
        assert!(first.contains("seed="), "{first}");
        assert!(first.contains("observed="), "{first}");
    }

    #[test]
    fn failed_analyses_are_counted_not_hidden() {
        let mut registry = Registry::standard();
        registry.register(Box::new(FailingAnalyzer));
        let points = small_points();
        let out = sweep_with(&points, 3, 42, &registry, &AnalysisConfig::default());
        assert_eq!(out.labels.len(), 5);
        for row in &out.rows {
            // The failing column: ratio 0 (failure counts as
            // unschedulable) and every set tallied as failed.
            assert_eq!(row.ratios[4], 0.0);
            assert_eq!(row.failures[4], 3);
            // The real approaches never fail on these sets.
            assert!(row.failures[..4].iter().all(|&f| f == 0));
        }
        assert_eq!(out.total_failures(), 3 * points.len());
    }
}
