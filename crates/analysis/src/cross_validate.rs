//! Simulation-vs-analysis cross-validation: the one falsification
//! driver for the analytical WCRT bounds.
//!
//! The paper's protocol is defined operationally (rules R1–R6) while its
//! guarantees are analytical (the WCRT bounds of Sections V–VI). This
//! module closes the loop with two pieces:
//!
//! * a [`Target`]: the set an [`ApproachReport`] actually bounded (its
//!   final LS marking applied), the per-task bounds to check, and the
//!   release and simulation horizons. [`Target::new`] is the one place
//!   that turns a report into bounds.
//! * one plan loop with two kernel modes. [`Target::validate`] runs the
//!   *traced* kernel: every trace is checked against Properties 1–4 and
//!   R1–R6 conformance (where it has interval structure) and the bounds,
//!   and refutations quote a trace excerpt. Cross-validation uses it.
//!   [`Target::stream`] runs the *streaming* kernel: no trace is kept,
//!   every job response feeds a caller sink, and the bounds are checked.
//!   Falsification campaigns use it.
//!
//! Both modes return a [`Validation`]: the [`Refutation`]s, one
//! [`SimCounters`], the worst observed response of every task, and the
//! deadline misses.
//!
//! **Semantics.** Any violation is a [`Refutation`]: a machine-readable
//! record naming the approach, the plan (family + seed — fully
//! reproducing the run), the task, the observed response, the violated
//! bound and, in traced mode, a trace excerpt. A refutation *refutes the
//! analysis* (or the simulator — either way the stack is broken). A clean
//! pass is **necessary, not sufficient**: simulation explores finitely
//! many plans, analysis quantifies over all of them.
//!
//! Bounds are only checked when the approach reports the set
//! *schedulable*: for unschedulable sets the analytical per-task numbers
//! are not sound operational bounds (inter-job precedence defers releases
//! once some task overruns, shifting every later response).

use std::time::Instant;

use pmcs_model::{CoreId, TaskId, TaskSet, Time};
use pmcs_sim::kernel::{run_into, run_streaming};
use pmcs_sim::{
    check_conformance_ref, validate_trace_ref, ProtocolPolicy, ReleasePlan, SimWorkspace, TraceRef,
};
use pmcs_workload::{adversarial_plan_into, adversarial_specs, PlanSpec};

use crate::analyzer::AnalysisContext;
use crate::error::AnalysisError;
use crate::registry::Registry;
use crate::report::ApproachReport;

/// Aggregate simulation-effort counters for one cross-validation run
/// (the `sim_*` keys of the bench perf records).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounters {
    /// Release plans simulated.
    pub plans_run: u64,
    /// Traces checked against Properties 1–4 and R1–R6 (serialized NPS
    /// traces have no interval structure and are not counted).
    pub traces_validated: u64,
    /// Refutations found (bound violations, invalid traces,
    /// non-conformant traces).
    pub refutations: u64,
    /// Wall-clock seconds spent simulating and validating.
    pub sim_secs: f64,
    /// Simulation runs that reused a warm [`SimWorkspace`] (pooled
    /// buffers, no per-run allocation) instead of allocating fresh.
    pub ws_reused: u64,
}

impl SimCounters {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &SimCounters) {
        self.plans_run += other.plans_run;
        self.traces_validated += other.traces_validated;
        self.refutations += other.refutations;
        self.sim_secs += other.sim_secs;
        self.ws_reused += other.ws_reused;
    }

    /// Simulated plans per wall-clock second (`0.0` before any run).
    pub fn plans_per_sec(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.plans_run as f64 / self.sim_secs
        } else {
            0.0
        }
    }
}

/// Per-worker reusable simulation scratch: a pooled [`SimWorkspace`]
/// plus a release-plan buffer. Drivers that evaluate many plans hold one
/// of these per worker thread and pass it to every plan loop, so
/// steady-state simulation allocates nothing.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Pooled kernel buffers.
    pub ws: SimWorkspace,
    /// Pooled release-plan buffer (refilled per spec).
    pub plan: ReleasePlan,
}

impl SimScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// What a refutation refutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefutationKind {
    /// A task's observed worst response exceeded its analytical WCRT.
    BoundExceeded {
        /// The violating task.
        task: TaskId,
        /// Observed worst response under the plan.
        observed: Time,
        /// The violated analytical bound.
        bound: Time,
    },
    /// The trace violated one of the paper's Properties 1–4.
    InvalidTrace {
        /// Rendered violation list.
        violations: String,
    },
    /// The trace violated the R1–R6 conformance rules.
    NonConformant {
        /// Rendered diagnostic list.
        diagnostics: String,
    },
    /// A DMA transfer replayed on the regulated shared bus took longer
    /// than the analytical copy-phase inflation allows (multi-core
    /// cross-validation, see `pmcs_analysis::multicore`).
    BusOverrun {
        /// Core whose transfer overran.
        core: CoreId,
        /// Task the transfer belongs to.
        task: TaskId,
        /// Uninflated transfer demand.
        demand: Time,
        /// Observed bus service time (head-of-queue to completion).
        observed: Time,
        /// The violated inflated bound.
        bound: Time,
    },
}

/// A machine-readable cross-validation failure: enough to reproduce the
/// run (approach + plan spec) and to locate the defect (kind + excerpt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refutation {
    /// Name of the refuted analysis approach.
    pub approach: String,
    /// The adversarial plan that produced the counterexample (its seed
    /// fully reproduces the plan).
    pub plan: PlanSpec,
    /// What went wrong.
    pub kind: RefutationKind,
    /// A short excerpt of the offending trace region (empty in streaming
    /// mode, which keeps no trace; [`Display`](std::fmt::Display) then
    /// omits it).
    pub excerpt: String,
}

impl std::fmt::Display for Refutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "REFUTATION approach={} plan={}",
            self.approach, self.plan
        )?;
        match &self.kind {
            RefutationKind::BoundExceeded {
                task,
                observed,
                bound,
            } => write!(
                f,
                " kind=bound-exceeded task={task} observed={observed} bound={bound}"
            ),
            RefutationKind::InvalidTrace { violations } => {
                write!(f, " kind=invalid-trace violations=[{violations}]")
            }
            RefutationKind::NonConformant { diagnostics } => {
                write!(f, " kind=non-conformant diagnostics=[{diagnostics}]")
            }
            RefutationKind::BusOverrun {
                core,
                task,
                demand,
                observed,
                bound,
            } => write!(
                f,
                " kind=bus-overrun core={core} task={task} demand={demand} observed={observed} bound={bound}"
            ),
        }?;
        if self.excerpt.is_empty() {
            Ok(())
        } else {
            write!(f, " excerpt=[{}]", self.excerpt)
        }
    }
}

/// The horizon over which adversarial plans release jobs: several
/// periods of the slowest task plus slack, so every task sees multiple
/// activations under every plan family.
pub fn plan_horizon(set: &TaskSet) -> Time {
    let max_t = set
        .iter()
        .filter_map(|t| t.arrival().min_inter_arrival())
        .max()
        .unwrap_or(Time::ZERO);
    max_t * 3 + slack(set)
}

/// Twice the set's total serialized demand: the slack both horizons add.
fn slack(set: &TaskSet) -> Time {
    let demand: i64 = set.iter().map(|t| t.wcet_serialized().as_ticks()).sum();
    Time::from_ticks(2 * demand)
}

/// A compact excerpt of the trace around a task's worst-response job
/// (or the trace tail when no task is singled out).
fn trace_excerpt(result: TraceRef<'_>, task: Option<TaskId>) -> String {
    let events: Vec<String> = result
        .events()
        .iter()
        .filter(|e| task.is_none_or(|t| e.job.task() == t))
        .map(|e| e.to_string())
        .collect();
    let tail = events.len().saturating_sub(6);
    events[tail..].join("; ")
}

/// What one plan loop falsifies: a set, one optional bound per task of
/// it, and the approach name refutations carry. Both horizons derive from
/// the set: plans release jobs up to [`plan_horizon`], and the simulation
/// runs long enough past it for every released job of a schedulable set
/// to complete (jobs cut by the horizon have no response — conservative,
/// part of why a pass is necessary-not-sufficient).
#[derive(Debug, Clone)]
pub struct Target {
    approach: String,
    set: TaskSet,
    bounds: Vec<Option<Time>>,
    release_horizon: Time,
    horizon: Time,
}

impl Target {
    /// The target of `report`: `set` under the report's final LS marking
    /// (the proposed analysis chooses sensitivities; the simulator must
    /// run the set the analysis actually bounded), with the report's WCRT
    /// bounds kept only when it says *schedulable* (see the module docs
    /// for why unschedulable bounds are not operational).
    ///
    /// # Errors
    ///
    /// Returns a model error if the report's sensitivity marking
    /// references tasks absent from `set`.
    pub fn new(set: &TaskSet, report: &ApproachReport) -> Result<Self, AnalysisError> {
        let mut marked = set.clone();
        for t in &report.tasks {
            if let Some(s) = t.sensitivity {
                marked = marked
                    .with_sensitivity(t.task, s)
                    .map_err(|e| AnalysisError::Core(pmcs_core::CoreError::Model(e)))?;
            }
        }
        let mut target = Target::unchecked(&report.approach, marked);
        if report.schedulable() {
            for (bound, task) in target.bounds.iter_mut().zip(target.set.iter()) {
                *bound = report.verdict(task.id()).map(|t| t.wcrt);
            }
        }
        Ok(target)
    }

    /// A target that checks no bound: plans are still simulated (and, in
    /// traced mode, their traces validated).
    pub fn unchecked(approach: &str, set: TaskSet) -> Self {
        let release_horizon = plan_horizon(&set);
        let max_d = set.iter().map(|t| t.deadline()).max().unwrap_or(Time::ZERO);
        Target {
            approach: approach.to_string(),
            bounds: vec![None; set.len()],
            release_horizon,
            horizon: release_horizon + max_d + slack(&set),
            set,
        }
    }

    /// The same target checking hand-picked `bounds` (e.g. deliberately
    /// weakened ones), by task index of the set.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` holds exactly one entry per task.
    #[must_use]
    pub fn with_bounds(self, bounds: Vec<Option<Time>>) -> Self {
        assert_eq!(bounds.len(), self.set.len(), "one bound per task");
        Target { bounds, ..self }
    }

    /// Approach name the refutations carry.
    pub fn approach(&self) -> &str {
        &self.approach
    }

    /// The set the simulator runs.
    pub fn set(&self) -> &TaskSet {
        &self.set
    }

    /// Per-task bound by task index of the set; `None` is not checked.
    pub fn bounds(&self) -> &[Option<Time>] {
        &self.bounds
    }

    /// Horizon within which plans release jobs.
    pub fn release_horizon(&self) -> Time {
        self.release_horizon
    }

    /// Simulation horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Traced mode: simulates every plan of `specs` under `policy`,
    /// checks each trace against Properties 1–4 and R1–R6 conformance
    /// (when the policy has interval structure) and every bound, and
    /// quotes a trace excerpt in each refutation. On return `scratch.ws`
    /// still holds the trace of the last plan.
    pub fn validate(
        &self,
        policy: &dyn ProtocolPolicy,
        specs: impl IntoIterator<Item = PlanSpec>,
        scratch: &mut SimScratch,
    ) -> Validation {
        let tasks = self.set.tasks();
        let mut plan_worst = vec![None; tasks.len()];
        self.plan_loop(specs, scratch, |scratch, spec, out| {
            let trace = run_into(
                &self.set,
                &scratch.plan,
                policy,
                self.horizon,
                &mut scratch.ws,
            );
            if policy.interval_structured() {
                let violations = validate_trace_ref(&self.set, trace, policy.ls_rules());
                if !violations.is_empty() {
                    let violations = join(violations.iter());
                    let kind = RefutationKind::InvalidTrace { violations };
                    out.refute(self, spec, kind, trace_excerpt(trace, None));
                }
                let conformance = check_conformance_ref(&self.set, trace, policy.ls_rules());
                if conformance.applicable && !conformance.is_conformant() {
                    let diagnostics = join(conformance.diagnostics.iter());
                    let kind = RefutationKind::NonConformant { diagnostics };
                    out.refute(self, spec, kind, trace_excerpt(trace, None));
                }
                out.counters.traces_validated += 1;
            }
            // One pass over the jobs: a scan per task took a quarter of
            // the traced loop's time.
            plan_worst.fill(None);
            for job in trace.jobs() {
                let Some(response) = job.response() else {
                    continue;
                };
                out.misses += u64::from(job.completion > Some(job.absolute_deadline));
                if let Some(ti) = tasks.iter().position(|t| t.id() == job.job.task()) {
                    plan_worst[ti] = plan_worst[ti].max(Some(response));
                }
            }
            for (ti, task) in tasks.iter().enumerate() {
                out.observe(self, spec, ti, plan_worst[ti], || {
                    trace_excerpt(trace, Some(task.id()))
                });
            }
        })
    }

    /// Streaming mode: simulates every plan of `specs` under `policy`
    /// without keeping a trace, hands every completed job's `(task index,
    /// response)` to `sink`, and checks every bound. Refutations carry no
    /// excerpt.
    pub fn stream<F: FnMut(usize, Time)>(
        &self,
        policy: &dyn ProtocolPolicy,
        specs: impl IntoIterator<Item = PlanSpec>,
        scratch: &mut SimScratch,
        mut sink: F,
    ) -> Validation {
        self.plan_loop(specs, scratch, |scratch, spec, out| {
            let stats = run_streaming(
                &self.set,
                &scratch.plan,
                policy,
                self.horizon,
                &mut scratch.ws,
                &mut sink,
            );
            out.misses += stats.total_misses();
            for ti in 0..self.set.len() {
                out.observe(self, spec, ti, stats.worst_response(ti), String::new);
            }
        })
    }

    /// The plan loop both modes share: fills the pooled plan buffer for
    /// each spec, lets `check` simulate and check it, and counts.
    fn plan_loop(
        &self,
        specs: impl IntoIterator<Item = PlanSpec>,
        scratch: &mut SimScratch,
        mut check: impl FnMut(&mut SimScratch, PlanSpec, &mut Validation),
    ) -> Validation {
        let started = Instant::now();
        let reuses_before = scratch.ws.reuses();
        let mut out = Validation {
            worst: vec![None; self.set.len()],
            ..Validation::default()
        };
        for spec in specs {
            adversarial_plan_into(&self.set, self.release_horizon, spec, &mut scratch.plan);
            check(scratch, spec, &mut out);
            out.counters.plans_run += 1;
        }
        out.counters.refutations = out.refutations.len() as u64;
        out.counters.sim_secs = started.elapsed().as_secs_f64();
        out.counters.ws_reused = scratch.ws.reuses() - reuses_before;
        out
    }
}

fn join<T: ToString>(items: impl Iterator<Item = T>) -> String {
    items.map(|i| i.to_string()).collect::<Vec<_>>().join("; ")
}

/// What one plan loop observed.
#[derive(Debug, Clone, Default)]
pub struct Validation {
    /// Simulation counters of the loop.
    pub counters: SimCounters,
    /// Refutations, in plan order.
    pub refutations: Vec<Refutation>,
    /// Worst observed response per task, by task index of the target's
    /// set (`None` for a task no job of which completed).
    pub worst: Vec<Option<Time>>,
    /// Completed jobs that finished after their deadline (counted, never
    /// hidden: a miss alone refutes nothing).
    pub misses: u64,
}

impl Validation {
    /// Folds one plan's worst response of task `ti` in and checks it
    /// against the target's bound.
    fn observe(
        &mut self,
        target: &Target,
        spec: PlanSpec,
        ti: usize,
        observed: Option<Time>,
        excerpt: impl FnOnce() -> String,
    ) {
        self.worst[ti] = self.worst[ti].max(observed);
        if let (Some(observed), Some(bound)) = (observed, target.bounds[ti]) {
            if observed > bound {
                let task = target.set.tasks()[ti].id();
                let kind = RefutationKind::BoundExceeded {
                    task,
                    observed,
                    bound,
                };
                self.refute(target, spec, kind, excerpt());
            }
        }
    }

    fn refute(&mut self, target: &Target, spec: PlanSpec, kind: RefutationKind, excerpt: String) {
        let approach = target.approach.clone();
        self.refutations.push(Refutation {
            approach,
            plan: spec,
            kind,
            excerpt,
        });
    }
}

/// Cross-validates one report against `policy` in traced mode (see
/// [`Target::new`] and [`Target::validate`]).
///
/// # Errors
///
/// Same conditions as [`Target::new`].
pub fn cross_validate_report_in(
    set: &TaskSet,
    policy: &dyn ProtocolPolicy,
    report: &ApproachReport,
    specs: &[PlanSpec],
    scratch: &mut SimScratch,
) -> Result<(SimCounters, Vec<Refutation>), AnalysisError> {
    let run = Target::new(set, report)?.validate(policy, specs.iter().copied(), scratch);
    Ok((run.counters, run.refutations))
}

/// Cross-validates every report of one task set in traced mode under the
/// simulating policy of the same name; a report with no such policy is
/// skipped, and so is a `None` entry (a failed analysis). The `i`-th
/// entry is simulated under the plans `specs(i)`. Counters are merged and
/// refutations listed in entry order.
///
/// # Errors
///
/// Same conditions as [`Target::new`].
pub fn cross_validate_reports<'r>(
    set: &TaskSet,
    reports: impl IntoIterator<Item = Option<&'r ApproachReport>>,
    mut specs: impl FnMut(usize) -> Vec<PlanSpec>,
    scratch: &mut SimScratch,
) -> Result<(SimCounters, Vec<Refutation>), AnalysisError> {
    let sims = pmcs_sim::Registry::standard();
    let mut counters = SimCounters::default();
    let mut refutations = Vec::new();
    for (i, report) in reports.into_iter().enumerate() {
        let Some(report) = report else { continue };
        let Some(policy) = sims.get(&report.approach) else {
            continue;
        };
        let run = Target::new(set, report)?.validate(policy, specs(i), scratch);
        counters.merge(&run.counters);
        refutations.extend(run.refutations);
    }
    Ok((counters, refutations))
}

/// The one-call convenience: analyzes `set` under the named approach,
/// looks up its simulating policy, and cross-validates the resulting
/// report over `plans` adversarial plans seeded from `base_seed`.
///
/// # Errors
///
/// Returns [`AnalysisError::UnknownApproach`] if `approach` is in
/// neither the analyzer registry nor the simulator registry, or any
/// error the analysis itself produces.
pub fn cross_validate(
    set: &TaskSet,
    approach: &str,
    plans: usize,
    base_seed: u64,
    ctx: &AnalysisContext,
) -> Result<(ApproachReport, Validation), AnalysisError> {
    let analyzers = Registry::standard();
    let analyzer = analyzers.require(approach)?;
    let sims = pmcs_sim::Registry::standard();
    let policy = sims
        .get(approach)
        .ok_or_else(|| AnalysisError::UnknownApproach(approach.to_string()))?;
    let report = analyzer.analyze_with(set, ctx)?;
    let run = Target::new(set, &report)?.validate(
        policy,
        adversarial_specs(plans, base_seed),
        &mut SimScratch::new(),
    );
    Ok((report, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use pmcs_core::window::test_task;

    fn two_task_set() -> TaskSet {
        TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 4, 4, 2_000, 1, false),
        ])
        .expect("valid test task set")
    }

    /// A target over `set` checking one bound on task index 0.
    fn bounded(approach: &str, set: TaskSet, bound: Time) -> Target {
        let bounds = (0..set.len()).map(|ti| (ti == 0).then_some(bound));
        Target::unchecked(approach, set).with_bounds(bounds.collect())
    }

    fn traced(target: &Target, policy: &dyn ProtocolPolicy, specs: &[PlanSpec]) -> Validation {
        target.validate(policy, specs.iter().copied(), &mut SimScratch::new())
    }

    #[test]
    fn clean_set_produces_no_refutations_for_all_approaches() {
        let set = two_task_set();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        for approach in ["proposed", "wp", "nps", "nps-classic"] {
            let (report, run) =
                cross_validate(&set, approach, 6, 42, &ctx).expect("cross-validation runs");
            assert!(report.schedulable(), "{approach}: demo set is schedulable");
            assert_eq!(run.counters.plans_run, 6, "{approach}");
            assert!(
                run.refutations.is_empty(),
                "{approach}: unexpected refutations: {:?}",
                run.refutations
            );
            assert!(run.worst.iter().all(Option::is_some), "{approach}");
            for (task, worst) in report.tasks.iter().zip(&run.worst) {
                assert!(worst.is_some_and(|w| w <= task.wcrt), "{approach}");
            }
        }
    }

    #[test]
    fn weakened_bound_is_refuted_with_task_seed_and_response() {
        // Single task: completion is exactly l + C + u = 2 + 10 + 2 = 14
        // under the proposed protocol, so the analytical WCRT is tight.
        let set = TaskSet::new(vec![test_task(0, 10, 2, 2, 1_000, 0, false)])
            .expect("valid test task set");
        let specs = adversarial_specs(3, 7);
        let tight = Time::from_ticks(14);
        let weakened = tight - Time::TICK;
        let policy = &pmcs_sim::policy::Proposed;
        let run = traced(&bounded("proposed", set.clone(), weakened), policy, &specs);
        assert!(
            run.counters.refutations > 0,
            "weakened bound must be refuted"
        );
        assert_eq!(run.worst, vec![Some(tight)]);
        let r = run
            .refutations
            .iter()
            .find(|r| {
                matches!(
                    r.kind,
                    RefutationKind::BoundExceeded { task, observed, bound }
                        if task == TaskId(0) && observed == tight && bound == weakened
                )
            })
            .expect("a bound-exceeded refutation naming task, observed, bound");
        let line = r.to_string();
        assert!(line.contains("REFUTATION"), "{line}");
        assert!(line.contains("approach=proposed"), "{line}");
        assert!(line.contains("seed="), "{line}");
        assert!(line.contains("task=τ0"), "{line}");
        assert!(line.contains("observed=14"), "{line}");
        assert!(line.contains(" excerpt=["), "{line}");
        // The tight bound itself passes.
        let ok = traced(&bounded("proposed", set, tight), policy, &specs);
        assert!(
            ok.refutations.is_empty(),
            "tight bound must not be refuted: {:?}",
            ok.refutations
        );
    }

    #[test]
    fn nps_blocking_bound_is_tight_and_weakening_it_refutes() {
        // The classical NPS blocking example: τ0 (T=1000, serialized 12)
        // released at 1 behind lp τ1 (serialized 62) released at 0. The
        // classic analysis bounds R(τ0) = B + C' = 61 + 12 = 73 and the
        // burst plan family observes exactly that.
        let set = TaskSet::new(vec![
            test_task(0, 10, 1, 1, 1_000, 0, false),
            test_task(1, 60, 1, 1, 10_000, 1, false),
        ])
        .expect("valid test task set");
        let specs = adversarial_specs(6, 11);
        let policy = &pmcs_sim::policy::Nps;
        let weakened = bounded("nps-classic", set.clone(), Time::from_ticks(72));
        let refuted = traced(&weakened, policy, &specs).refutations;
        assert!(
            refuted
                .iter()
                .any(|r| matches!(r.kind, RefutationKind::BoundExceeded { task, .. } if task == TaskId(0))),
            "weakened NPS bound must be refuted: {refuted:?}"
        );
        let classic = bounded("nps-classic", set, Time::from_ticks(73));
        let ok = traced(&classic, policy, &specs).refutations;
        assert!(ok.is_empty(), "classic bound holds: {ok:?}");
    }

    #[test]
    fn unschedulable_reports_skip_bound_checks_but_still_validate() {
        let set = two_task_set();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        let analyzers = Registry::standard();
        let analyzer = analyzers.require("wp").expect("wp registered");
        let mut report = analyzer.analyze_with(&set, &ctx).expect("analysis runs");
        // Forge an unschedulable verdict with absurd (tiny) bounds: they
        // must NOT be checked.
        for t in &mut report.tasks {
            t.wcrt = Time::ZERO;
            t.schedulable = false;
        }
        let target = Target::new(&set, &report).expect("report tasks are in the set");
        assert_eq!(target.bounds(), [None, None]);
        let short = std::panic::catch_unwind(|| target.clone().with_bounds(vec![None]));
        assert!(short.is_err(), "bounds must cover every task of the set");
        let specs = adversarial_specs(3, 5);
        let run = traced(&target, &pmcs_sim::policy::WaslyPellizzoni, &specs);
        assert!(run.refutations.is_empty(), "{:?}", run.refutations);
        assert_eq!(run.counters.traces_validated, 3);
    }

    #[test]
    fn both_modes_refute_the_same_tuples_in_one_format() {
        // τ0's bound weakened to one tick below its observed worst
        // response: the streaming and the traced loop must refute the
        // same (approach, seed, task, observed, bound) tuples.
        let set = two_task_set();
        let specs = adversarial_specs(8, 0x0f0f);
        let policy = &pmcs_sim::policy::Proposed;
        let probe = traced(&Target::unchecked("proposed", set.clone()), policy, &specs);
        let weakened = probe.worst[0].expect("τ0 completes") - Time::TICK;
        let target = bounded("proposed", set, weakened);
        let from_trace = traced(&target, policy, &specs);
        let streamed = target.stream(
            policy,
            specs.iter().copied(),
            &mut SimScratch::new(),
            |_, _| {},
        );
        assert_eq!(streamed.worst, probe.worst);
        assert_eq!(from_trace.worst, probe.worst);
        assert_eq!(streamed.misses, from_trace.misses);
        assert_eq!(streamed.counters.plans_run, 8);
        assert_eq!(streamed.counters.traces_validated, 0);
        assert_eq!(from_trace.counters.traces_validated, 8);

        // The campaign's refutation line, as it was written by hand.
        let lines = |run: &Validation| -> Vec<String> {
            let line = |r: &Refutation| match r.kind {
                RefutationKind::BoundExceeded {
                    task,
                    observed,
                    bound,
                } => format!(
                    "REFUTATION approach={} plan={} kind=bound-exceeded \
                     task={task} observed={observed} bound={bound}",
                    r.approach, r.plan
                ),
                ref other => panic!("unexpected refutation {other:?}"),
            };
            run.refutations.iter().map(line).collect()
        };
        let expected = lines(&streamed);
        assert!(!expected.is_empty());
        assert_eq!(lines(&from_trace), expected);
        let rendered: Vec<String> = streamed.refutations.iter().map(|r| r.to_string()).collect();
        assert_eq!(rendered, expected, "an empty excerpt is omitted");
        for (r, line) in from_trace.refutations.iter().zip(&expected) {
            assert_eq!(r.to_string(), format!("{line} excerpt=[{}]", r.excerpt));
        }
    }

    #[test]
    fn reports_driver_skips_failed_analyses_and_unsimulated_approaches() {
        let set = two_task_set();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        let registry = Registry::standard();
        let proposed = registry.require("proposed").expect("registered");
        let report = proposed.analyze_with(&set, &ctx).expect("analysis runs");
        let mut unsimulated = report.clone();
        unsimulated.approach = "wp-milp".to_string();
        let mut asked = Vec::new();
        let (counters, refutations) = cross_validate_reports(
            &set,
            [Some(&report), None, Some(&unsimulated)],
            |i| {
                asked.push(i);
                adversarial_specs(2, i as u64)
            },
            &mut SimScratch::new(),
        )
        .expect("cross-validation runs");
        assert_eq!(asked, [0]);
        assert_eq!(counters.plans_run, 2);
        assert!(refutations.is_empty(), "{refutations:?}");
    }

    #[test]
    fn unknown_approach_errors() {
        let set = two_task_set();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        assert!(cross_validate(&set, "bogus", 1, 1, &ctx).is_err());
    }

    #[test]
    fn counters_merge() {
        let mut a = SimCounters {
            plans_run: 2,
            traces_validated: 1,
            refutations: 0,
            sim_secs: 0.5,
            ws_reused: 1,
        };
        let b = SimCounters {
            plans_run: 3,
            traces_validated: 3,
            refutations: 2,
            sim_secs: 1.0,
            ws_reused: 3,
        };
        a.merge(&b);
        assert_eq!(a.plans_run, 5);
        assert_eq!(a.traces_validated, 4);
        assert_eq!(a.refutations, 2);
        assert!((a.sim_secs - 1.5).abs() < 1e-9);
        assert_eq!(a.ws_reused, 4);
        assert!(a.plans_per_sec() > 0.0);
    }
}
