//! Property tests for the simulation-vs-analysis cross-validation layer:
//! the analyzer and simulator registries stay aligned, and on random
//! small task sets no registered approach is refuted by adversarial
//! simulation.

use proptest::prelude::*;

use pmcs_analysis::{cross_validate, AnalysisConfig, AnalysisContext, Registry};
use pmcs_model::TaskSet;
use pmcs_workload::{TaskSetConfig, TaskSetGenerator};

/// The analyzer registry and the simulator registry agree on approach
/// names *and presentation order*, so every standard analysis column can
/// be cross-validated by name and reports line up across the stack.
#[test]
fn registries_agree_on_names_and_ordering() {
    let analyzers = Registry::standard();
    let sims = pmcs_sim::Registry::standard();
    assert_eq!(analyzers.labels(), sims.labels());
}

fn random_set(n: usize, util_step: u8, seed: u64) -> TaskSet {
    TaskSetGenerator::new(
        TaskSetConfig {
            n,
            utilization: f64::from(util_step) * 0.05,
            gamma: 0.3,
            beta: 0.4,
            ..TaskSetConfig::default()
        },
        seed,
    )
    .generate()
}

proptest! {
    // Each case analyzes + simulates every approach, so keep the case
    // count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No registered approach is refuted on random small sets: traces
    /// satisfy Properties 1–4 and R1–R6, and observed worst responses
    /// stay within the analytical WCRT bounds of the default (exact)
    /// engine stack.
    #[test]
    fn no_refutations_on_random_sets(
        n in 3usize..=5,
        util_step in 2u8..=8,
        seed in any::<u64>(),
    ) {
        let set = random_set(n, util_step, seed);
        let approaches = Registry::standard().labels();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        for approach in &approaches {
            let (_, run) =
                cross_validate(&set, approach, 3, seed, &ctx).expect("cross-validation runs");
            prop_assert_eq!(run.counters.plans_run, 3, "{}", approach);
            prop_assert!(
                run.refutations.is_empty(),
                "{} refuted: {:?}",
                approach,
                run.refutations,
            );
        }
    }
}
