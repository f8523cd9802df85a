//! [`Analyzer`] implementations for every approach the paper evaluates.
//!
//! | name          | analyzer                | legacy entry point                  |
//! |---------------|-------------------------|-------------------------------------|
//! | `proposed`    | [`ProposedAnalyzer`]    | `pmcs_core::analyze_task_set`       |
//! | `wp`          | [`WpAnalyzer`]          | `pmcs_baselines::WpAnalysis`        |
//! | `nps`         | [`NpsAnalyzer`] (carry) | `pmcs_baselines::NpsAnalysis::with_carry` |
//! | `nps-classic` | [`NpsAnalyzer`]         | `pmcs_baselines::NpsAnalysis::new`  |
//! | `wp-milp`     | [`WpMilpAnalyzer`]      | `pmcs_baselines::wp_milp_analysis`  |
//!
//! The first four make up [`Registry::standard`](crate::Registry::standard)
//! — the paper's Fig. 2 comparison. `wp-milp` (the paper's improved
//! analysis of \[3\]: the MILP formulation pinned to all-NLS markings) is
//! provided but not registered by default, so standard sweep output stays
//! exactly four columns; registering it is the one-liner the README
//! walkthrough demonstrates.

use pmcs_baselines::{wp_milp_analysis, NpsAnalysis, WpAnalysis};
use pmcs_core::analyze_task_set;
use pmcs_model::TaskSet;

use crate::analyzer::{AnalysisContext, Analyzer};
use crate::error::AnalysisError;
use crate::report::ApproachReport;

/// The paper's proposed protocol: MILP-based per-window delay bounds
/// plus the greedy latency-sensitivity marking of Section VI.
///
/// Runs on the context's engine stack, so it honors the configured
/// audit layer and solver limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposedAnalyzer;

impl Analyzer for ProposedAnalyzer {
    fn name(&self) -> &str {
        "proposed"
    }

    fn analyze_with(
        &self,
        set: &TaskSet,
        ctx: &AnalysisContext,
    ) -> Result<ApproachReport, AnalysisError> {
        let before = ctx.solver_stats();
        let r = analyze_task_set(set, ctx.engine())?;
        let spent = ctx.solver_stats().since(&before);
        Ok(ApproachReport::from_schedulability(self.name(), &r).with_solver(spent))
    }
}

/// The closed-form Wasly–Pellizzoni interval-counting analysis
/// (reference \[3\], Section III-A).
#[derive(Debug, Clone, Default)]
pub struct WpAnalyzer {
    analysis: WpAnalysis,
}

impl WpAnalyzer {
    /// Creates the analyzer with default iteration limits.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Analyzer for WpAnalyzer {
    fn name(&self) -> &str {
        "wp"
    }

    fn analyze_with(
        &self,
        set: &TaskSet,
        _ctx: &AnalysisContext,
    ) -> Result<ApproachReport, AnalysisError> {
        Ok(ApproachReport::from_wp(
            self.name(),
            set,
            &self.analysis.analyze(set),
        ))
    }
}

/// Non-preemptive serialized-phases analysis (reference \[16\]), in the
/// paper's carry-in convention or the classical critical-instant one.
#[derive(Debug, Clone)]
pub struct NpsAnalyzer {
    analysis: NpsAnalysis,
    name: &'static str,
}

impl NpsAnalyzer {
    /// The paper's carry-in convention (`η_j + 1` interfering jobs);
    /// registered as `"nps"`.
    pub fn carry() -> Self {
        NpsAnalyzer {
            analysis: NpsAnalysis::with_carry(),
            name: "nps",
        }
    }

    /// The classical closed-window critical-instant convention;
    /// registered as `"nps-classic"`.
    pub fn classic() -> Self {
        NpsAnalyzer {
            analysis: NpsAnalysis::new(),
            name: "nps-classic",
        }
    }
}

impl Analyzer for NpsAnalyzer {
    fn name(&self) -> &str {
        self.name
    }

    fn analyze_with(
        &self,
        set: &TaskSet,
        _ctx: &AnalysisContext,
    ) -> Result<ApproachReport, AnalysisError> {
        Ok(ApproachReport::from_nps(
            self.name,
            set,
            &self.analysis.analyze(set),
        ))
    }
}

/// The paper's improved analysis of \[3\]: the MILP formulation with all
/// tasks pinned NLS (rules R3–R5 never fire, degenerating the proposed
/// protocol to Wasly–Pellizzoni).
///
/// Not part of [`Registry::standard`](crate::Registry::standard); the
/// ablation study registers it explicitly.
#[derive(Debug, Clone, Copy, Default)]
pub struct WpMilpAnalyzer;

impl Analyzer for WpMilpAnalyzer {
    fn name(&self) -> &str {
        "wp-milp"
    }

    fn analyze_with(
        &self,
        set: &TaskSet,
        ctx: &AnalysisContext,
    ) -> Result<ApproachReport, AnalysisError> {
        let before = ctx.solver_stats();
        let r = wp_milp_analysis(set, ctx.engine())?;
        let spent = ctx.solver_stats().since(&before);
        Ok(ApproachReport::from_schedulability(self.name(), &r).with_solver(spent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use pmcs_core::window::test_task;
    use pmcs_core::ExactEngine;

    fn demo_set() -> TaskSet {
        TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 4, 4, 2_000, 1, false),
            test_task(2, 30, 3, 3, 3_000, 2, false),
        ])
        .expect("valid task set")
    }

    #[test]
    fn every_analyzer_agrees_with_its_legacy_entry_point() {
        let set = demo_set();
        let cfg = AnalysisConfig::default();
        let ctx = AnalysisContext::new(&cfg);

        let proposed = ProposedAnalyzer.analyze_with(&set, &ctx).unwrap();
        let legacy = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        assert_eq!(proposed.schedulable(), legacy.schedulable());

        let wp = WpAnalyzer::new().analyze_with(&set, &ctx).unwrap();
        assert_eq!(wp.schedulable(), WpAnalysis::default().is_schedulable(&set));

        let nps = NpsAnalyzer::carry().analyze_with(&set, &ctx).unwrap();
        assert_eq!(
            nps.schedulable(),
            NpsAnalysis::with_carry().is_schedulable(&set)
        );

        let classic = NpsAnalyzer::classic().analyze_with(&set, &ctx).unwrap();
        assert_eq!(
            classic.schedulable(),
            NpsAnalysis::new().is_schedulable(&set)
        );

        let wp_milp = WpMilpAnalyzer.analyze_with(&set, &ctx).unwrap();
        let legacy = wp_milp_analysis(&set, &ExactEngine::default()).unwrap();
        assert_eq!(wp_milp.schedulable(), legacy.schedulable());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ProposedAnalyzer.name(), "proposed");
        assert_eq!(WpAnalyzer::new().name(), "wp");
        assert_eq!(NpsAnalyzer::carry().name(), "nps");
        assert_eq!(NpsAnalyzer::classic().name(), "nps-classic");
        assert_eq!(WpMilpAnalyzer.name(), "wp-milp");
    }

    #[test]
    fn one_shot_analyze_matches_context_path() {
        let set = demo_set();
        let cfg = AnalysisConfig::default();
        let ctx = AnalysisContext::new(&cfg);
        let a = ProposedAnalyzer.analyze(&set, &cfg).unwrap();
        let b = ProposedAnalyzer.analyze_with(&set, &ctx).unwrap();
        assert_eq!(a, b);
    }
}
