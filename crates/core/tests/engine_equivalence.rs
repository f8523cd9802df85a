//! Property test: the specialized combinatorial engine and the MILP
//! formulation compute the *same* maximal delay on random small windows.
//!
//! This is the strongest internal-consistency check in the workspace: the
//! two engines share only the [`WindowModel`] abstraction; their agreement
//! on random instances validates both the constraint encoding (Section V
//! of the paper) and the search.

use proptest::prelude::*;

use pmcs_core::{DelayEngine, ExactEngine, MilpEngine, WindowCase, WindowModel};
use pmcs_model::{Priority, Sensitivity, Task, TaskId, TaskSet, Time};

#[derive(Debug, Clone)]
struct RandTask {
    exec: i64,
    copy_in: i64,
    copy_out: i64,
    period: i64,
    ls: bool,
}

fn rand_task_strategy() -> impl Strategy<Value = RandTask> {
    (1i64..=30, 0i64..=10, 0i64..=10, 40i64..=120, any::<bool>()).prop_map(
        |(exec, copy_in, copy_out, period, ls)| RandTask {
            exec,
            copy_in,
            copy_out,
            period,
            ls,
        },
    )
}

fn build_set(specs: &[RandTask]) -> TaskSet {
    let tasks: Vec<Task> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Task::builder(TaskId(i as u32))
                .exec(Time::from_ticks(s.exec))
                .copy_in(Time::from_ticks(s.copy_in))
                .copy_out(Time::from_ticks(s.copy_out))
                .sporadic(Time::from_ticks(s.period))
                .deadline(Time::from_ticks(s.period))
                .priority(Priority(i as u32))
                .sensitivity(if s.ls {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NLS windows: identical optima.
    #[test]
    fn nls_windows_agree(
        specs in prop::collection::vec(rand_task_strategy(), 2..=4),
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
        specs in prop::collection::vec(rand_task_strategy(), 2..=4),
        t in 1i64..=100,
        under in 0usize..4,
    ) {
        let under = under % specs.len();
        let set = build_set(&specs);
        check_equivalence(&set, TaskId(under as u32), WindowCase::LsCaseA, t);
    }
}

/// A couple of deterministic regression windows (kept cheap so they always
/// run, even when proptest shrinks elsewhere).
#[test]
fn deterministic_regression_windows() {
    let specs = vec![
        RandTask {
            exec: 12,
            copy_in: 4,
            copy_out: 6,
            period: 60,
            ls: true,
        },
        RandTask {
            exec: 25,
            copy_in: 9,
            copy_out: 2,
            period: 90,
            ls: false,
        },
        RandTask {
            exec: 7,
            copy_in: 1,
            copy_out: 10,
            period: 45,
            ls: true,
        },
    ];
    let set = build_set(&specs);
    for under in 0..3u32 {
        for t in [1, 30, 80] {
            check_equivalence(&set, TaskId(under), WindowCase::Nls, t);
            check_equivalence(&set, TaskId(under), WindowCase::LsCaseA, t);
        }
    }
}

/// Eight equal-shape competitors — the symmetric instance class whose
/// unbroken `8!`-fold placement symmetry is the paper's n ≥ 8 runtime
/// cliff. The symmetry-pruned DP must still return the same optimum as
/// the unpruned reference (which here explores every member ordering).
#[test]
fn eight_equal_shape_tasks_prune_losslessly() {
    let mut specs = vec![RandTask {
        exec: 9,
        copy_in: 3,
        copy_out: 2,
        period: 400,
        ls: false,
    }];
    specs.extend(std::iter::repeat_n(
        RandTask {
            exec: 5,
            copy_in: 2,
            copy_out: 4,
            period: 55,
            ls: true,
        },
        8,
    ));
    let set = build_set(&specs);
    for t in [40, 120] {
        let w = WindowModel::build(&set, TaskId(0), WindowCase::Nls, Time::from_ticks(t)).unwrap();
        let pruned = ExactEngine::default().max_total_delay(&w).unwrap();
        let unpruned = ExactEngine::default()
            .without_symmetry_breaking()
            .max_total_delay(&w)
            .unwrap();
        assert!(pruned.exact && unpruned.exact);
        assert_eq!(pruned.delay, unpruned.delay, "t={t}");
        assert!(
            pruned.nodes < unpruned.nodes,
            "t={t}: symmetry breaking explored {} nodes vs {} unpruned — \
             the pruning did nothing on a fully symmetric window",
            pruned.nodes,
            unpruned.nodes
        );
    }
}
