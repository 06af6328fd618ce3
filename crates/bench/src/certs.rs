//! Post-sweep certificate pass: proof-carrying verdicts for bench runs.
//!
//! With `--emit-certs`, every bench binary
//! re-runs the proposed analysis over the same deterministically
//! regenerated task sets **after** the timed sweep, this time with the
//! proof transcript recorded ([`pmcs_core::certify_task_set`]), and
//! validates each emitted bundle with the independent `pmcs-cert`
//! checker. The pass never touches the measured rows or CSVs — the
//! sweep's outputs are byte-identical with the flag on or off — it only
//! adds `cert_emitted` / `cert_checked` / `cert_rejected` counters to
//! `BENCH_<bin>.json` and makes the binary exit non-zero when any
//! certificate is rejected (or cannot be emitted).
//!
//! Task sets are regenerated from the same `(base_seed, point, set)`
//! seed derivation the sweep used, so the certified sets are exactly the
//! measured ones; the items fan out over the worker pool and the
//! rejection lines are merged in deterministic `(point, set)` order,
//! byte-identical for every thread count.

use pmcs_cert::check_certificate_set;
use pmcs_core::{certify_task_set, ExactEngine};
use pmcs_workload::{derive_seed, TaskSetGenerator};

use crate::experiment::SweepPoint;
use crate::parallel::parallel_map;

/// Counters and rejection lines accumulated by a certificate pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CertSummary {
    /// Certificate bundles successfully emitted (one per task set).
    pub emitted: u64,
    /// Individual certificates the independent checker accepted
    /// (windows + WCRT fixed points + set-level transcripts).
    pub checked: u64,
    /// Rejections: checker refusals plus emission failures.
    pub rejected: u64,
    /// Wall-clock seconds spent emitting and checking (outside every
    /// timed region).
    pub secs: f64,
    /// Machine-readable rejection lines, in deterministic item order.
    pub rejections: Vec<String>,
}

impl CertSummary {
    /// Folds another summary into this one.
    pub fn merge(&mut self, other: &CertSummary) {
        self.emitted += other.emitted;
        self.checked += other.checked;
        self.rejected += other.rejected;
        self.secs += other.secs;
        self.rejections.extend(other.rejections.iter().cloned());
    }

    /// `true` iff every bundle was emitted and accepted.
    pub fn ok(&self) -> bool {
        self.rejected == 0
    }
}

/// Certifies one task set and validates the bundle, labelling any
/// rejection lines with `label`.
pub fn certify_set(set: &pmcs_model::TaskSet, label: &str) -> CertSummary {
    let t0 = std::time::Instant::now();
    let mut summary = CertSummary::default();
    match certify_task_set(set, &ExactEngine::default()) {
        Ok((_, bundle)) => {
            summary.emitted += 1;
            let report = check_certificate_set(&bundle);
            summary.checked += report.checked as u64;
            summary.rejected += report.rejections.len() as u64;
            summary.rejections.extend(
                report
                    .rejections
                    .iter()
                    .map(|r| format!("{label} REJECTED code={} detail={}", r.code, r.detail)),
            );
        }
        Err(e) => {
            summary.rejected += 1;
            summary
                .rejections
                .push(format!("{label} REJECTED code=emit.failed detail={e}"));
        }
    }
    summary.secs = t0.elapsed().as_secs_f64();
    summary
}

/// Runs the certificate pass over the same `(point, set)` grid a sweep
/// analyzed: regenerates every task set from `(base_seed, point, set)`
/// via [`derive_seed`] and certifies it, fanning the items across `jobs`
/// workers.
pub fn certify_sweep(
    points: &[SweepPoint],
    sets_per_point: usize,
    base_seed: u64,
    jobs: usize,
) -> CertSummary {
    let items: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|pi| (0..sets_per_point).map(move |si| (pi, si)))
        .collect();
    let summaries = parallel_map(&items, jobs, |_, &(pi, si)| {
        let seed = derive_seed(base_seed, pi as u64, si as u64);
        let set = TaskSetGenerator::new(points[pi].config.clone(), seed).generate();
        certify_set(&set, &format!("point={pi} set={si}"))
    });
    let mut total = CertSummary::default();
    for s in &summaries {
        total.merge(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_workload::TaskSetConfig;

    fn points() -> Vec<SweepPoint> {
        [0.1, 0.3]
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
    fn sweep_certificates_are_accepted() {
        let summary = certify_sweep(&points(), 2, 42, 2);
        assert_eq!(summary.emitted, 4);
        assert!(summary.checked > 0);
        assert!(summary.ok(), "rejections: {:?}", summary.rejections);
    }

    #[test]
    fn pass_is_deterministic_across_thread_counts() {
        let serial = certify_sweep(&points(), 2, 42, 1);
        let parallel = certify_sweep(&points(), 2, 42, 4);
        assert_eq!(serial.emitted, parallel.emitted);
        assert_eq!(serial.checked, parallel.checked);
        assert_eq!(serial.rejections, parallel.rejections);
    }

    #[test]
    fn single_set_certification_counts_once() {
        let set = TaskSetGenerator::new(
            TaskSetConfig {
                n: 3,
                utilization: 0.2,
                ..TaskSetConfig::default()
            },
            7,
        )
        .generate();
        let summary = certify_set(&set, "demo");
        assert_eq!(summary.emitted, 1);
        assert!(summary.ok(), "rejections: {:?}", summary.rejections);
    }
}
