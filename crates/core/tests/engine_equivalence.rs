//! Property tests of the exact DP against itself: the symmetry-pruned
//! search, the unpruned reference and the certificate-recording solve
//! compute the *same* maximal delay on random small windows, and a
//! long-lived engine carrying its memo matches a fresh one call for call.
//!
//! The comparison against the independent Section V MILP formulation
//! over the same random windows lives in `pmcs-analysis`
//! (`tests/milp_equivalence.rs`), beside the formulation.

use proptest::prelude::*;

use pmcs_core::wcrt::DelayBound;
use pmcs_core::{certify_window_dp, DelayEngine, ExactEngine, WindowCase, WindowModel};
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
    let fast = ExactEngine::default().max_total_delay(&w).unwrap();
    let unpruned = ExactEngine::default()
        .without_symmetry_breaking()
        .max_total_delay(&w)
        .unwrap();
    assert!(fast.exact && unpruned.exact);
    assert_eq!(
        fast.delay, unpruned.delay,
        "pruning changed the optimum for window {w:?}: pruned={} unpruned={}",
        fast.delay, unpruned.delay
    );
    // The recording solve must reproduce the production optimum
    // (`certify_window_dp` rejects any other value).
    let cert = certify_window_dp(&ExactEngine::default(), &w, fast)
        .unwrap_or_else(|e| panic!("recording diverged from production on {w:?}: {e}"));
    assert_eq!(cert.claimed, fast.delay.as_ticks());
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
/// run, even when proptest shrinks elsewhere). The vendored proptest
/// replays no regression files, so recorded shrunk cases live here.
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

    // A shrunk proptest case: one heavy task and three identical 1-tick
    // tasks with no copy phases, analyzed at t = 1 for τ1.
    let light = RandTask {
        exec: 1,
        copy_in: 0,
        copy_out: 0,
        period: 40,
        ls: false,
    };
    let mut specs = vec![RandTask {
        exec: 16,
        copy_in: 8,
        copy_out: 9,
        period: 40,
        ls: false,
    }];
    specs.extend(std::iter::repeat_n(light, 3));
    let set = build_set(&specs);
    check_equivalence(&set, TaskId(1), WindowCase::Nls, 1);
    check_equivalence(&set, TaskId(1), WindowCase::LsCaseA, 1);
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

// ---------------------------------------------------------------------
// A long-lived engine carries its memo from one solve to the next solve
// of the same window shape. Every call must still return what a fresh
// engine returns: the same delay, the same exactness, and (on budget
// exhaustion) the same fallback bound and fallback count.
// ---------------------------------------------------------------------

/// Solves `w` with `warm` and with a fresh engine of the same settings
/// and checks they agree; returns `(warm, fresh)`.
fn check_warm_matches_fresh(
    warm: &ExactEngine,
    fresh: impl Fn() -> ExactEngine,
    w: &WindowModel,
) -> (DelayBound, DelayBound) {
    let cold = fresh().max_total_delay(w).unwrap();
    let got = warm.max_total_delay(w).unwrap();
    assert_eq!(
        (got.delay, got.exact),
        (cold.delay, cold.exact),
        "long-lived engine diverged from a fresh one on window {w:?}"
    );
    (got, cold)
}

/// Window lengths of a fixed-point sequence: `t0` grown by `steps`.
fn lengths(t0: i64, steps: &[i64]) -> Vec<i64> {
    std::iter::once(t0)
        .chain(steps.iter().scan(t0, |t, &d| {
            *t += d;
            Some(*t)
        }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Growing window lengths of one task, in both window cases, solved
    /// by one long-lived engine (including repeats and a shrink back to
    /// the start, which reuses the larger solves' states).
    #[test]
    fn long_lived_engine_matches_fresh_on_fixed_point_sequences(
        specs in prop::collection::vec(rand_task_strategy(), 2..=5),
        t0 in 1i64..=60,
        steps in prop::collection::vec(0i64..=45, 1..=8),
        under in 0usize..5,
    ) {
        let under = TaskId((under % specs.len()) as u32);
        let set = build_set(&specs);
        for case in [WindowCase::Nls, WindowCase::LsCaseA] {
            let warm = ExactEngine::default();
            // Certifies every window between its production calls:
            // recording must leave the carried memo as it was, so this
            // engine's calls match `warm`'s, node counts included.
            let recording = ExactEngine::default();
            let mut ts = lengths(t0, &steps);
            ts.push(t0);
            for t in ts {
                let w = WindowModel::build(&set, under, case, Time::from_ticks(t)).unwrap();
                let (got, _) = check_warm_matches_fresh(&warm, ExactEngine::default, &w);
                let rec = recording.max_total_delay(&w).unwrap();
                prop_assert_eq!(rec, got);
                if rec.exact {
                    let cert = certify_window_dp(&recording, &w, rec).unwrap();
                    prop_assert_eq!(cert.claimed, rec.delay.as_ticks());
                }
            }
        }
    }

    /// Shapes interleaved A, B, A, C, A with growing lengths: every
    /// switch must restart the memo, and no state of one shape may leak
    /// into another. B differs from A in one task's phases only, so the
    /// two shapes share every memo key but not the values behind them;
    /// C analyzes another task of the same set.
    #[test]
    fn interleaved_shapes_match_fresh(
        specs in prop::collection::vec(rand_task_strategy(), 2..=4),
        t0 in 1i64..=60,
        steps in prop::collection::vec(0i64..=40, 2..=6),
        ls_case in any::<bool>(),
    ) {
        let case = if ls_case { WindowCase::LsCaseA } else { WindowCase::Nls };
        let set = build_set(&specs);
        let mut tweaked = specs.clone();
        tweaked[0].exec += 7;
        tweaked[0].copy_out += 3;
        let tweaked = build_set(&tweaked);
        let last = TaskId(specs.len() as u32 - 1);
        let other = TaskId(specs.len() as u32 - 2);
        let shapes = [(&set, last), (&tweaked, last), (&set, last), (&set, other), (&set, last)];
        let warm = ExactEngine::default();
        for t in lengths(t0, &steps) {
            for &(set, under) in &shapes {
                let w = WindowModel::build(set, under, case, Time::from_ticks(t)).unwrap();
                check_warm_matches_fresh(&warm, ExactEngine::default, &w);
            }
        }
    }

    /// Windows padded with surplus (necessarily idle-heavy) intervals
    /// beyond their job budgets, solved at growing interval counts: a
    /// state at slot `k ≥ 2` of a longer window can match a state at
    /// slot 0 or 1 of a shorter one in slots remaining, choices and
    /// budgets, and only the slot gate of the memo key tells them apart.
    #[test]
    fn padded_windows_match_fresh(
        specs in prop::collection::vec(rand_task_strategy(), 2..=4),
        t in 1i64..=120,
        under in 0usize..4,
        ls_case in any::<bool>(),
    ) {
        let case = if ls_case { WindowCase::LsCaseA } else { WindowCase::Nls };
        let set = build_set(&specs);
        let under = TaskId((under % specs.len()) as u32);
        let base = WindowModel::build(&set, under, case, Time::from_ticks(t)).unwrap();
        let warm = ExactEngine::default();
        for pad in [0, 1, 2, 3, 4, 2, 0] {
            let w = WindowModel {
                n_intervals: base.n_intervals + pad,
                ..base.clone()
            };
            check_warm_matches_fresh(&warm, ExactEngine::default, &w);
        }
    }
}

/// Symmetric sets (equal-shape competitors), with and without symmetry
/// breaking: the symmetry classes are part of the shape, so each engine
/// carries only memos built under its own setting.
#[test]
fn long_lived_engine_matches_fresh_on_symmetric_sets() {
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
            period: 60,
            ls: true,
        },
        4,
    ));
    let set = build_set(&specs);
    let pruned = ExactEngine::default();
    let unpruned = ExactEngine::default().without_symmetry_breaking();
    for case in [WindowCase::Nls, WindowCase::LsCaseA] {
        for under in [0, 2, 4] {
            for t in [1, 40, 61, 100, 130, 61] {
                let w = WindowModel::build(&set, TaskId(under), case, Time::from_ticks(t)).unwrap();
                let (a, _) = check_warm_matches_fresh(&pruned, ExactEngine::default, &w);
                let (b, _) = check_warm_matches_fresh(
                    &unpruned,
                    || ExactEngine::default().without_symmetry_breaking(),
                    &w,
                );
                assert_eq!(a.delay, b.delay, "pruning changed the optimum of {w:?}");
            }
        }
    }
}

/// The smallest memo budget under which a fresh engine solves `w`
/// exactly.
fn cold_states_needed(w: &WindowModel) -> usize {
    let (mut lo, mut hi) = (1usize, 1usize << 20);
    assert!(
        ExactEngine::with_max_states(hi)
            .max_total_delay(w)
            .unwrap()
            .exact
    );
    while lo < hi {
        let mid = (lo + hi) / 2;
        if ExactEngine::with_max_states(mid)
            .max_total_delay(w)
            .unwrap()
            .exact
        {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A memo budget that the carried memo overflows but the cold solve
/// fits: the engine must re-run the solve cold and stay exact.
#[test]
fn carried_memo_overflow_reruns_cold_and_stays_exact() {
    let specs = vec![
        RandTask {
            exec: 12,
            copy_in: 4,
            copy_out: 6,
            period: 45,
            ls: true,
        },
        RandTask {
            exec: 7,
            copy_in: 1,
            copy_out: 10,
            period: 50,
            ls: false,
        },
        RandTask {
            exec: 9,
            copy_in: 8,
            copy_out: 3,
            period: 70,
            ls: true,
        },
        RandTask {
            exec: 25,
            copy_in: 9,
            copy_out: 2,
            period: 400,
            ls: false,
        },
    ];
    let set = build_set(&specs);
    let mut reruns = 0;
    for case in [WindowCase::Nls, WindowCase::LsCaseA] {
        let windows: Vec<WindowModel> = [60, 120, 180]
            .into_iter()
            .map(|t| WindowModel::build(&set, TaskId(3), case, Time::from_ticks(t)).unwrap())
            .collect();
        for pair in windows.windows(2) {
            let budget = cold_states_needed(&pair[1]);
            let warm = ExactEngine::with_max_states(budget);
            check_warm_matches_fresh(&warm, || ExactEngine::with_max_states(budget), &pair[0]);
            let (got, cold) =
                check_warm_matches_fresh(&warm, || ExactEngine::with_max_states(budget), &pair[1]);
            assert!(got.exact, "the cold solve fits the budget of {:?}", pair[1]);
            assert_eq!(warm.solver_stats().fallbacks, 0);
            // A re-run repeats the cold solve after the aborted carried
            // attempt, so it costs more nodes than the cold solve alone.
            reruns += usize::from(got.nodes > cold.nodes);
        }
    }
    assert!(reruns > 0, "no carried memo overflowed its budget");
}

/// A memo budget that the cold solve exceeds too: the long-lived engine
/// falls back exactly when a fresh one does, with the same bound and the
/// same fallback count.
#[test]
fn shared_budget_exhaustion_falls_back_like_a_fresh_engine() {
    let specs = vec![
        RandTask {
            exec: 12,
            copy_in: 4,
            copy_out: 6,
            period: 45,
            ls: true,
        },
        RandTask {
            exec: 7,
            copy_in: 1,
            copy_out: 10,
            period: 50,
            ls: false,
        },
        RandTask {
            exec: 25,
            copy_in: 9,
            copy_out: 2,
            period: 400,
            ls: false,
        },
    ];
    let set = build_set(&specs);
    let ts = [30, 60, 90, 150, 240, 60];
    let probe = WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(90)).unwrap();
    let budget = cold_states_needed(&probe) - 1;
    let warm = ExactEngine::with_max_states(budget);
    let mut fresh_fallbacks = 0;
    for t in ts {
        let w = WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(t)).unwrap();
        let (_, cold) =
            check_warm_matches_fresh(&warm, || ExactEngine::with_max_states(budget), &w);
        fresh_fallbacks += u64::from(!cold.exact);
    }
    assert!(fresh_fallbacks > 0, "budget {budget} never ran out");
    assert!(
        fresh_fallbacks < ts.len() as u64,
        "budget {budget} never sufficed"
    );
    assert_eq!(warm.solver_stats().fallbacks, fresh_fallbacks);
}
