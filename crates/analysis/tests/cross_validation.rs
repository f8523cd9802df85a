//! Property tests for the simulation-vs-analysis cross-validation layer:
//! the analyzer and simulator registries stay aligned, and on random
//! small task sets no registered approach is refuted by adversarial
//! simulation — whether the proposed bounds come from the exact engine
//! or from the MILP formulation.

use proptest::prelude::*;

use pmcs_analysis::{
    cross_validate, cross_validate_report, AnalysisConfig, AnalysisContext, ApproachReport,
    MilpEngine, Registry,
};
use pmcs_core::analyze_task_set;
use pmcs_model::TaskSet;
use pmcs_workload::{adversarial_specs, TaskSetConfig, TaskSetGenerator};

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

/// The MILP formulation as a bounded-effort engine: windows with more
/// than 60 integral variables get the formulation's safe delay cap
/// instead of a search that the big-M relaxation cannot prune, and a
/// node backstop keeps the rest bounded.
fn gated_milp() -> MilpEngine {
    let mut milp = MilpEngine::new().with_bin_budget(Some(60));
    milp.limits.max_nodes = 20_000;
    milp
}

proptest! {
    // Each case analyzes + simulates every approach, then the proposed
    // approach once more on MILP bounds, so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No registered approach is refuted on random small sets: traces
    /// satisfy Properties 1–4 and R1–R6, and observed worst responses
    /// stay within the analytical WCRT — whichever engine produced the
    /// bounds.
    #[test]
    fn no_refutations_on_random_sets_under_either_engine(
        n in 3usize..=5,
        util_step in 2u8..=8,
        seed in any::<u64>(),
    ) {
        let set = random_set(n, util_step, seed);
        let ctx = AnalysisContext::new(&AnalysisConfig::default());
        for approach in &Registry::standard().labels() {
            let (_, counters, refutations) =
                cross_validate(&set, approach, 3, seed, &ctx).expect("cross-validation runs");
            prop_assert_eq!(counters.plans_run, 3, "{}", approach);
            prop_assert!(refutations.is_empty(), "{} refuted: {:?}", approach, refutations);
        }

        let milp = analyze_task_set(&set, &gated_milp()).expect("MILP analysis");
        let report = ApproachReport::from_schedulability("proposed", &milp);
        let sims = pmcs_sim::Registry::standard();
        let policy = sims.get("proposed").expect("registered policy");
        let (counters, refutations) =
            cross_validate_report(&set, policy, &report, &adversarial_specs(3, seed))
                .expect("cross-validation runs");
        prop_assert_eq!(counters.plans_run, 3);
        prop_assert!(refutations.is_empty(), "MILP bounds refuted: {:?}", refutations);
    }
}
