//! Typed analysis configuration.
//!
//! Every analysis knob lives on [`AnalysisConfig`]; library code receives
//! the struct and never reads the process environment. Binaries fill it
//! from their command line (`pmcs_bench::cli`), which is the only way to
//! configure a run.

/// Analysis configuration.
///
/// [`AnalysisConfig::default`] is single-threaded, cached, unaudited,
/// with default solver limits; what library callers and tests want.
/// Command-line binaries start from the same defaults with `jobs` set to
/// the machine's available parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Worker threads for sweep executors (always ≥ 1).
    pub jobs: usize,
    /// Wrap the delay engine in a window-level delay-bound cache.
    pub cache: bool,
    /// Cross-check every delay bound against the audited MILP
    /// formulation (exact rational arithmetic). Orders of magnitude
    /// slower; meant for validation runs.
    pub audit: bool,
    /// Memoization-entry budget of the exact engine (the solver limit:
    /// roughly bounds per-window memory and time).
    pub max_states: usize,
    /// Number of adversarial release plans to simulate per schedulable
    /// set, checking observed worst responses against the analytical WCRT
    /// bounds (`0` disables cross-validation).
    pub cross_validate: usize,
    /// Emit a machine-checkable certificate bundle for every analyzed
    /// set (outside the timed regions) and validate it with the
    /// independent `pmcs-cert` checker.
    pub emit_certs: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            jobs: 1,
            cache: true,
            audit: false,
            max_states: pmcs_core::engine::DEFAULT_MAX_STATES,
            cross_validate: 0,
            emit_certs: false,
        }
    }
}

impl AnalysisConfig {
    /// A copy with a different worker count (convenience for sweeps).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// A copy with the delay cache enabled or disabled.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// A copy with a different number of cross-validation plans per
    /// schedulable set (`0` disables cross-validation).
    pub fn with_cross_validate(mut self, plans: usize) -> Self {
        self.cross_validate = plans;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_threaded_cached_unaudited() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.jobs, 1);
        assert!(cfg.cache);
        assert!(!cfg.audit);
        assert!(cfg.max_states > 0);
    }

    #[test]
    fn zero_requests_are_clamped() {
        assert_eq!(AnalysisConfig::default().with_jobs(0).jobs, 1);
    }

    #[test]
    fn builder_helpers_compose() {
        let cfg = AnalysisConfig::default()
            .with_jobs(4)
            .with_cache(false)
            .with_cross_validate(3);
        assert_eq!(cfg.jobs, 4);
        assert!(!cfg.cache);
        assert_eq!(cfg.cross_validate, 3);
    }

    #[test]
    fn cross_validate_defaults_off() {
        assert_eq!(AnalysisConfig::default().cross_validate, 0);
    }

    #[test]
    fn emit_certs_defaults_off() {
        assert!(!AnalysisConfig::default().emit_certs);
    }
}
