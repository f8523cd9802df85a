//! Property test: the exact DP and the Section V MILP formulation
//! compute the *same* maximal delay on random small windows.
//!
//! This is the strongest internal-consistency check in the workspace:
//! the symmetry-pruned DP, the unpruned DP reference and the audited
//! MILP share only the [`WindowModel`] abstraction; their agreement on
//! random instances validates both the constraint encoding and the
//! search.

use proptest::prelude::*;

use pmcs_analysis::MilpEngine;
use pmcs_core::{DelayEngine, ExactEngine, WindowCase, WindowModel};
use pmcs_model::{Priority, Sensitivity, Task, TaskId, TaskSet, Time};

/// One task as `(exec, copy_in, copy_out, period, ls)`.
type Spec = (i64, i64, i64, i64, bool);

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (1i64..=30, 0i64..=10, 0i64..=10, 40i64..=120, any::<bool>())
}

fn build_set(specs: &[Spec]) -> TaskSet {
    let tasks: Vec<Task> = specs
        .iter()
        .enumerate()
        .map(|(i, &(exec, copy_in, copy_out, period, ls))| {
            Task::builder(TaskId(i as u32))
                .exec(Time::from_ticks(exec))
                .copy_in(Time::from_ticks(copy_in))
                .copy_out(Time::from_ticks(copy_out))
                .sporadic(Time::from_ticks(period))
                .deadline(Time::from_ticks(period))
                .priority(Priority(i as u32))
                .sensitivity(if ls {
                    Sensitivity::Ls
                } else {
                    Sensitivity::Nls
                })
                .build()
                .unwrap()
        })
        .collect();
    TaskSet::new(tasks).unwrap()
}

/// Pruned DP ≡ unpruned DP ≡ MILP on one window.
fn check_equivalence(set: &TaskSet, under: TaskId, case: WindowCase, t: i64) {
    let w = WindowModel::build(set, under, case, Time::from_ticks(t)).unwrap();
    // Keep MILP sizes tractable.
    if w.n() > 7 {
        return;
    }
    let fast = ExactEngine::default().max_total_delay(&w).unwrap();
    let unpruned = ExactEngine::default()
        .without_symmetry_breaking()
        .max_total_delay(&w)
        .unwrap();
    let milp = MilpEngine::default().max_total_delay(&w).unwrap();
    assert!(fast.exact && unpruned.exact && milp.exact);
    assert_eq!(
        fast.delay, unpruned.delay,
        "pruning changed the optimum for window {w:?}: pruned={} unpruned={}",
        fast.delay, unpruned.delay
    );
    assert_eq!(
        fast.delay, milp.delay,
        "engine mismatch for window {w:?}: engine={} milp={}",
        fast.delay, milp.delay
    );
}

// Same names, strategies and case counts as the DP-only properties in
// `pmcs-core`'s `tests/engine_equivalence.rs`: the case stream is seeded
// from the test name, so both suites draw the same random windows.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NLS windows: identical optima.
    #[test]
    fn nls_windows_agree(
        specs in prop::collection::vec(spec_strategy(), 2..=4),
        t in 1i64..=100,
        under in 0usize..4,
    ) {
        let under = under % specs.len();
        let set = build_set(&specs);
        check_equivalence(&set, TaskId(under as u32), WindowCase::Nls, t);
    }

    /// LS case (a) windows: identical optima.
    #[test]
    fn ls_case_a_windows_agree(
        specs in prop::collection::vec(spec_strategy(), 2..=4),
        t in 1i64..=100,
        under in 0usize..4,
    ) {
        let under = under % specs.len();
        let set = build_set(&specs);
        check_equivalence(&set, TaskId(under as u32), WindowCase::LsCaseA, t);
    }
}

/// Fixed windows that always run, even when proptest shrinks elsewhere.
#[test]
fn deterministic_regression_windows() {
    let set = build_set(&[
        (12, 4, 6, 60, true),
        (25, 9, 2, 90, false),
        (7, 1, 10, 45, true),
    ]);
    for under in 0..3u32 {
        for t in [1, 30, 80] {
            check_equivalence(&set, TaskId(under), WindowCase::Nls, t);
            check_equivalence(&set, TaskId(under), WindowCase::LsCaseA, t);
        }
    }
}
