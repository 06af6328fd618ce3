//! Run results: named metrics with units, percentiles, and the one-line
//! JSON result the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["setup_s", "max_rss_mb", "throughput_per_s", "p50_ms"];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer a workload does not exercise reads 0. `tail_ms` is the
/// workload's tail latency, reported here because it is too noisy on the
/// reference machine to bound (see the README).
pub const PER_LAYER: [&str; 37] = [
    "tail_ms",
    "core.engine.solves",
    "core.engine.busy_s",
    "core.engine.solve_p99_ms",
    "core.engine.bb_nodes",
    "core.engine.inexact",
    "core.cache.lookups",
    "core.cache.hit_ratio",
    "core.cache.self_s",
    "core.schedulability.self_s",
    "core.schedulability.rounds",
    "core.session.ops",
    "core.session.self_s",
    "core.session.verdict_reuse",
    "serve.requests",
    "serve.decode_s",
    "serve.encode_s",
    "serve.wait_p99_ms",
    "analysis.proposed_s",
    "analysis.wp_s",
    "analysis.nps_s",
    "analysis.nps-classic_s",
    "workload.gen_s",
    "workload.plans",
    "workload.plan_s",
    "sim.runs",
    "sim.busy_s",
    "bench.campaign.check_s",
    "bench.campaign.refutations",
    "loadgen.late_p99_ms",
    "admission.query_p99_ms",
    "admission.slo_frac",
    "trace.untraced_s",
    "trace.traced_s",
    "trace.overhead_s",
    "trace.overhead_frac",
    "trace.checked",
];

/// The unit of a metric, derived from its name.
fn unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_ratio") || name.ends_with("_frac") || name.ends_with("_reuse") {
        "ratio"
    } else {
        "count"
    }
}

/// One run's outcome: correctness, operation accounting and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// Operations attempted (requests, set analyses, campaigns).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a metric; names must come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.contains(&name) || PER_LAYER.contains(&name));
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Records the tracing overhead: the same work took `untraced_s`
    /// without spans and `traced_s` with them.
    pub fn set_overhead(&mut self, untraced_s: f64, traced_s: f64) {
        self.set("trace.untraced_s", untraced_s);
        self.set("trace.traced_s", traced_s);
        self.set("trace.overhead_s", traced_s - untraced_s);
        self.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Prints one `name = value unit` line per metric in `names` and then,
    /// as the last line, the JSON result. Metrics a workload did not set
    /// read 0.
    pub fn print(&self, names: &[&'static str]) {
        let mut json = String::new();
        for (i, name) in names.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name} = {value} {}", unit(name));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit(name)
            );
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples` by the nearest-rank rule;
/// 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_metrics_are_those_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{}\"", unit(name));
            assert!(compact.contains(&entry), "{entry} is not declared");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn every_metric_has_a_unit() {
        assert_eq!(unit("setup_s"), "s");
        assert_eq!(unit("throughput_per_s"), "1/s");
        assert_eq!(unit("max_rss_mb"), "MB");
        assert_eq!(unit("core.cache.hit_ratio"), "ratio");
        assert_eq!(unit("core.engine.solves"), "count");
    }
}
