//! Brute-force oracle for the exact DP.
//!
//! On tiny random windows (at most three competitors) this test
//! enumerates every choice sequence of slots `0 … N−2`, replays each one
//! through the independent certificate checker's placement semantics
//! ([`pmcs_cert::dp::replay_witness`]), and requires the largest total of
//! a legal sequence to equal the [`ExactEngine`] optimum. The oracle
//! shares no code with the engine: no memo, no dominance rule, no
//! symmetry breaking, only the paper's interval rules as the checker
//! re-derives them. Sequences are pruned only where a task runs beyond
//! its job budget, which the replay would reject anyway.

use pmcs_cert::dp::{replay_witness, WindowSem};
use pmcs_cert::types::CertChoice;
use pmcs_core::certify::cert_window_of;
use pmcs_core::{DelayEngine, ExactEngine, WindowCase, WindowModel};
use pmcs_model::{Priority, Sensitivity, Task, TaskId, TaskSet, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Windows compared against the engine.
const WINDOWS: usize = 300;
/// Largest number of budget-feasible sequences enumerated per window.
const MAX_SEQUENCES: u64 = 1_000_000;

fn random_set(rng: &mut StdRng) -> TaskSet {
    let n = rng.gen_range(1..=4usize);
    let tasks = (0..n)
        .map(|i| {
            let period = rng.gen_range(20i64..=90);
            Task::builder(TaskId(i as u32))
                .exec(Time::from_ticks(rng.gen_range(1i64..=30)))
                .copy_in(Time::from_ticks(rng.gen_range(0i64..=12)))
                .copy_out(Time::from_ticks(rng.gen_range(0i64..=12)))
                .sporadic(Time::from_ticks(period))
                .deadline(Time::from_ticks(period))
                .priority(Priority(i as u32))
                .sensitivity(if rng.gen_bool(0.5) {
                    Sensitivity::Ls
                } else {
                    Sensitivity::Nls
                })
                .build()
                .expect("valid task")
        })
        .collect();
    TaskSet::new(tasks).expect("valid task set")
}

/// Budget-feasible sequences of the slots from `k` on: each slot idles
/// or runs a task (plain or urgent) whose budget is not yet spent.
fn count_sequences(budgets: &mut [u64], slots: usize, limit: u64) -> u64 {
    if slots == 0 {
        return 1;
    }
    let mut total = count_sequences(budgets, slots - 1, limit);
    for j in 0..budgets.len() {
        if budgets[j] > 0 && total <= limit {
            budgets[j] -= 1;
            total += 2 * count_sequences(budgets, slots - 1, limit);
            budgets[j] += 1;
        }
    }
    total
}

/// Replays every budget-feasible completion of `prefix` and returns the
/// largest legal total (`None` when no completion is legal).
fn best_sequence(
    sem: &WindowSem,
    budgets: &mut [u64],
    prefix: &mut Vec<CertChoice>,
    slots: usize,
) -> Option<i128> {
    if prefix.len() == slots {
        return replay_witness(sem, prefix).ok();
    }
    prefix.push(CertChoice::Idle);
    let mut best = best_sequence(sem, budgets, prefix, slots);
    prefix.pop();
    for task in 0..budgets.len() {
        if budgets[task] == 0 {
            continue;
        }
        budgets[task] -= 1;
        for urgent in [false, true] {
            prefix.push(CertChoice::Run { task, urgent });
            best = best.max(best_sequence(sem, budgets, prefix, slots));
            prefix.pop();
        }
        budgets[task] += 1;
    }
    best
}

#[test]
fn exact_engine_matches_exhaustive_enumeration() {
    let mut rng = StdRng::seed_from_u64(0x0b5e_55ed);
    let mut compared = 0;
    let mut with_competitors = 0;
    let mut ls_case = 0;
    let mut attempts = 0;
    while compared < WINDOWS {
        attempts += 1;
        assert!(
            attempts < 100 * WINDOWS,
            "too few windows fit the size caps"
        );
        let set = random_set(&mut rng);
        let under = TaskId(rng.gen_range(0..set.len()) as u32);
        let case = if rng.gen_bool(0.5) {
            WindowCase::Nls
        } else {
            WindowCase::LsCaseA
        };
        let t = rng.gen_range(1i64..=120);
        let w = WindowModel::build(&set, under, case, Time::from_ticks(t)).expect("task in set");
        if w.n() < 2 || w.tasks.is_empty() || w.tasks.len() > 3 {
            continue;
        }
        let mut budgets: Vec<u64> = w.tasks.iter().map(|t| t.budget).collect();
        let slots = w.n() - 1;
        if count_sequences(&mut budgets, slots, MAX_SEQUENCES) > MAX_SEQUENCES {
            continue;
        }
        let sem = WindowSem::new(&cert_window_of(&w)).expect("valid window");
        let oracle = best_sequence(&sem, &mut budgets, &mut Vec::with_capacity(slots), slots)
            .expect("the all-idle-or-run sequences include a legal one");
        let dp = ExactEngine::default()
            .max_total_delay(&w)
            .expect("engine result");
        assert!(dp.exact, "tiny window fell back: {w:?}");
        assert_eq!(
            i128::from(dp.delay.as_ticks()),
            oracle,
            "DP and exhaustive enumeration disagree on {w:?}"
        );
        compared += 1;
        with_competitors += usize::from(w.tasks.len() >= 2);
        ls_case += usize::from(case == WindowCase::LsCaseA);
    }
    assert!(
        with_competitors >= WINDOWS / 4,
        "{with_competitors} multi-competitor windows"
    );
    assert!(ls_case >= WINDOWS / 4, "{ls_case} LS case (a) windows");
}
