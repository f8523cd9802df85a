//! Property tests for the analysis facade: every registered analyzer is
//! deterministic (same set + config → same report) and agrees with the
//! legacy entry point it wraps.

use proptest::prelude::*;

use pmcs_analysis::{AnalysisConfig, AnalysisContext, Registry};
use pmcs_baselines::{NpsAnalysis, WpAnalysis};
use pmcs_core::{analyze_task_set, ExactEngine};
use pmcs_model::TaskSet;
use pmcs_workload::{TaskSetConfig, TaskSetGenerator};

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same set + same config → identical reports, for every registered
    /// analyzer.
    #[test]
    fn analyzers_are_deterministic(
        n in 3usize..=5,
        util_step in 2u8..=8,
        seed in any::<u64>(),
    ) {
        let set = random_set(n, util_step, seed);
        let registry = Registry::standard();
        let cfg = AnalysisConfig::default();
        for analyzer in registry.iter() {
            let a = analyzer.analyze(&set, &cfg).expect("analysis");
            let b = analyzer.analyze(&set, &cfg).expect("analysis");
            prop_assert_eq!(&a, &b, "{} is nondeterministic", analyzer.name());
            prop_assert_eq!(a.tasks.len(), set.len());
        }
    }

    /// Each facade analyzer reproduces its legacy entry point's verdicts
    /// exactly — per task, not just the set-level bool.
    #[test]
    fn analyzers_agree_with_legacy_entry_points(
        n in 3usize..=5,
        util_step in 2u8..=8,
        seed in any::<u64>(),
    ) {
        let set = random_set(n, util_step, seed);
        let registry = Registry::standard();
        let ctx = AnalysisContext::new(&AnalysisConfig::default());

        let proposed = registry.require("proposed").unwrap()
            .analyze_with(&set, &ctx).expect("analysis");
        let legacy = analyze_task_set(&set, &ExactEngine::default()).expect("analysis");
        prop_assert_eq!(proposed.schedulable(), legacy.schedulable());
        prop_assert_eq!(proposed.rounds, Some(legacy.rounds()));
        prop_assert_eq!(proposed.assignment.as_ref(), Some(legacy.assignment()));
        for (t, v) in proposed.tasks.iter().zip(legacy.verdicts()) {
            prop_assert_eq!(t.task, v.task);
            prop_assert_eq!(t.wcrt, v.wcrt);
            prop_assert_eq!(t.schedulable, v.schedulable);
        }

        let wp = registry.require("wp").unwrap()
            .analyze_with(&set, &ctx).expect("analysis");
        for (t, r) in wp.tasks.iter().zip(WpAnalysis::default().analyze(&set)) {
            prop_assert_eq!(t.task, r.task);
            prop_assert_eq!(t.wcrt, r.wcrt);
            prop_assert_eq!(t.schedulable, r.schedulable);
        }

        for (name, legacy) in [
            ("nps", NpsAnalysis::with_carry()),
            ("nps-classic", NpsAnalysis::new()),
        ] {
            let report = registry.require(name).unwrap()
                .analyze_with(&set, &ctx).expect("analysis");
            for (t, r) in report.tasks.iter().zip(legacy.analyze(&set)) {
                prop_assert_eq!(t.task, r.task);
                prop_assert_eq!(t.wcrt, r.wcrt);
                prop_assert_eq!(t.schedulable, r.schedulable);
            }
        }
    }
}
