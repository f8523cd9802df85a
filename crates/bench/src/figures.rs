//! Concrete figure configurations: the Figure 2 insets, the ablation
//! study and the Figure 1 scenario.
//!
//! The paper does not print the per-inset `(n, γ, β)` values of Figure 2;
//! the values here are chosen to reproduce the reported *shapes* (see
//! `DESIGN.md` §4 and `EXPERIMENTS.md`). The utilization grid focuses on
//! the region where the schedulability ratios actually move — our
//! generator produces somewhat harsher task sets than the original
//! evaluation appears to have used, so the cliffs sit at lower `U`.

use pmcs_analysis::{ProposedAnalyzer, Registry, WpAnalyzer, WpMilpAnalyzer};
use pmcs_core::window::test_task;
use pmcs_model::{TaskSet, Time};
use pmcs_workload::TaskSetConfig;

use crate::experiment::SweepPoint;

/// One inset of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig2Inset {
    /// Utilization sweep, n=6, γ=0.1, β=0.4.
    A,
    /// Utilization sweep, n=6, γ=0.3, β=0.4.
    B,
    /// Utilization sweep, n=6, γ=0.5, β=0.4.
    C,
    /// Utilization sweep, n=8, γ=0.3, β=0.4.
    D,
    /// γ sweep at n=6, U=0.35, β=0.4.
    E,
    /// β sweep at n=6, U=0.35, γ=0.3.
    F,
}

impl Fig2Inset {
    /// Parses an inset letter.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "a" => Some(Fig2Inset::A),
            "b" => Some(Fig2Inset::B),
            "c" => Some(Fig2Inset::C),
            "d" => Some(Fig2Inset::D),
            "e" => Some(Fig2Inset::E),
            "f" => Some(Fig2Inset::F),
            _ => None,
        }
    }

    /// All insets in order.
    pub const ALL: [Fig2Inset; 6] = [
        Fig2Inset::A,
        Fig2Inset::B,
        Fig2Inset::C,
        Fig2Inset::D,
        Fig2Inset::E,
        Fig2Inset::F,
    ];

    /// Inset letter.
    pub fn letter(self) -> char {
        match self {
            Fig2Inset::A => 'a',
            Fig2Inset::B => 'b',
            Fig2Inset::C => 'c',
            Fig2Inset::D => 'd',
            Fig2Inset::E => 'e',
            Fig2Inset::F => 'f',
        }
    }

    /// Human-readable description of the swept parameter and fixed values.
    pub fn description(self) -> String {
        match self {
            Fig2Inset::A => "schedulability vs U (n=6, γ=0.1, β=0.4)".into(),
            Fig2Inset::B => "schedulability vs U (n=6, γ=0.3, β=0.4)".into(),
            Fig2Inset::C => "schedulability vs U (n=6, γ=0.5, β=0.4)".into(),
            Fig2Inset::D => "schedulability vs U (n=8, γ=0.3, β=0.4)".into(),
            Fig2Inset::E => "schedulability vs γ (n=6, U=0.35, β=0.4)".into(),
            Fig2Inset::F => "schedulability vs β (n=6, U=0.35, γ=0.3)".into(),
        }
    }

    /// The swept-axis label.
    pub fn x_label(self) -> &'static str {
        match self {
            Fig2Inset::E => "gamma",
            Fig2Inset::F => "beta",
            _ => "utilization",
        }
    }
}

/// Builds the sweep points of one Figure 2 inset.
pub fn fig2_inset(inset: Fig2Inset) -> Vec<SweepPoint> {
    let base = TaskSetConfig::default();
    let u_grid: Vec<f64> = (1..=12).map(|i| i as f64 * 0.05).collect(); // 0.05 … 0.60
    match inset {
        Fig2Inset::A | Fig2Inset::B | Fig2Inset::C | Fig2Inset::D => {
            let (n, gamma) = match inset {
                Fig2Inset::A => (6, 0.1),
                Fig2Inset::B => (6, 0.3),
                Fig2Inset::C => (6, 0.5),
                Fig2Inset::D => (8, 0.3),
                _ => unreachable!(),
            };
            u_grid
                .iter()
                .map(|&u| SweepPoint {
                    x: u,
                    config: TaskSetConfig {
                        n,
                        utilization: u,
                        gamma,
                        beta: 0.4,
                        ..base.clone()
                    },
                })
                .collect()
        }
        Fig2Inset::E => (1..=5)
            .map(|i| {
                let gamma = i as f64 * 0.1;
                SweepPoint {
                    x: gamma,
                    config: TaskSetConfig {
                        n: 6,
                        utilization: 0.35,
                        gamma,
                        beta: 0.4,
                        ..base.clone()
                    },
                }
            })
            .collect(),
        Fig2Inset::F => (0..=5)
            .map(|i| {
                let beta = i as f64 * 0.2;
                SweepPoint {
                    x: beta,
                    config: TaskSetConfig {
                        n: 6,
                        utilization: 0.35,
                        gamma: 0.3,
                        beta,
                        ..base.clone()
                    },
                }
            })
            .collect(),
    }
}

/// The ablation study's points: U = 0.10, 0.15, …, 0.45 at n=6, γ=0.3,
/// β=0.4.
pub fn ablation_points() -> Vec<SweepPoint> {
    (2..=9)
        .map(|step| {
            let u = f64::from(step) * 0.05;
            SweepPoint {
                x: u,
                config: TaskSetConfig {
                    n: 6,
                    utilization: u,
                    gamma: 0.3,
                    beta: 0.4,
                    ..TaskSetConfig::default()
                },
            }
        })
        .collect()
}

/// The ablation study's three columns, in presentation order: the WP
/// closed form, the all-NLS formulation (`wp-milp`, registered here as
/// a fifth approach would be; it is not part of the standard
/// comparison) and the full proposed analysis with greedy LS marking.
pub fn ablation_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(WpAnalyzer::new()));
    registry.register(Box::new(WpMilpAnalyzer));
    registry.register(Box::new(ProposedAnalyzer));
    registry
}

/// The Figure 1 scenario: a task τ_i (here `τ0`, latency-sensitive in the
/// proposed run) together with two pending lower-priority tasks and a
/// previously-running lowest-priority task τ_p whose copy-out is pending
/// when the window of interest begins.
///
/// Releases (see the `fig1` binary): τ_p at 0, the two blockers at 1, and
/// τ_i one time unit after the blockers start executing — reproducing the
/// structure of Figure 1 where τ_i arrives just after the interval in
/// which its blocker was selected.
pub fn fig1_task_set() -> (TaskSet, Vec<(pmcs_model::TaskId, Vec<Time>)>) {
    use pmcs_model::TaskId;
    let tasks = vec![
        // τ0 = τ_i: l=2, C=2, u=2, D=10.
        {
            let mut t = test_task(0, 2, 2, 2, 1_000, 0, true);
            t = pmcs_model::Task::builder(t.id())
                .name("tau_i")
                .exec(Time::from_ticks(2))
                .copy_in(Time::from_ticks(2))
                .copy_out(Time::from_ticks(2))
                .sporadic(Time::from_ticks(1_000))
                .deadline(Time::from_ticks(10))
                .priority(pmcs_model::Priority(0))
                .sensitivity(pmcs_model::Sensitivity::Ls)
                .build()
                .unwrap();
            t
        },
        test_task(1, 3, 1, 1, 1_000, 1, false), // τ_lp1
        test_task(2, 4, 3, 2, 1_000, 2, false), // τ_lp2
        test_task(3, 2, 1, 2, 1_000, 3, false), // τ_p
    ];
    let set = TaskSet::new(tasks).unwrap();
    let releases = vec![
        (TaskId(0), vec![Time::from_ticks(4)]),
        (TaskId(1), vec![Time::from_ticks(1)]),
        (TaskId(2), vec![Time::from_ticks(1)]),
        (TaskId(3), vec![Time::ZERO]),
    ];
    (set, releases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_insets_parse() {
        for inset in Fig2Inset::ALL {
            assert_eq!(Fig2Inset::parse(&inset.letter().to_string()), Some(inset));
        }
        assert_eq!(Fig2Inset::parse("z"), None);
        assert_eq!(Fig2Inset::parse(" B "), Some(Fig2Inset::B));
    }

    #[test]
    fn utilization_insets_have_twelve_points() {
        for inset in [Fig2Inset::A, Fig2Inset::B, Fig2Inset::C, Fig2Inset::D] {
            let pts = fig2_inset(inset);
            assert_eq!(pts.len(), 12);
            assert!((pts[0].x - 0.05).abs() < 1e-12);
            assert!((pts[11].x - 0.60).abs() < 1e-12);
        }
    }

    #[test]
    fn parameter_sweeps_vary_the_right_knob() {
        let gammas = fig2_inset(Fig2Inset::E);
        assert!(gammas
            .windows(2)
            .all(|w| w[0].config.gamma < w[1].config.gamma));
        let betas = fig2_inset(Fig2Inset::F);
        assert!(betas
            .windows(2)
            .all(|w| w[0].config.beta < w[1].config.beta));
        assert_eq!(Fig2Inset::E.x_label(), "gamma");
        assert_eq!(Fig2Inset::F.x_label(), "beta");
    }

    #[test]
    fn fig1_set_is_valid() {
        let (set, releases) = fig1_task_set();
        assert_eq!(set.len(), 4);
        assert_eq!(releases.len(), 4);
        assert!(set.get(pmcs_model::TaskId(0)).unwrap().is_ls());
    }

    #[test]
    fn descriptions_mention_parameters() {
        for inset in Fig2Inset::ALL {
            assert!(fig2_inset(inset).len() >= 5);
            assert!(inset.description().contains("n="));
        }
    }
}
