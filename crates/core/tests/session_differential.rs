//! Differential tests of the incremental analysis session: after *every*
//! operation of a randomized admit/remove/update sequence, the session's
//! report must equal a from-scratch [`analyze_task_set`] over the same
//! tasks. The session's dirtiness tracking and verdict reuse are pure
//! optimizations — any divergence from the batch oracle is a bug.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use std::sync::Arc;

use pmcs_core::{
    analyze_task_set, AnalysisSession, ExactEngine, SharedCachedEngine, SharedDelayCache,
};
use pmcs_model::{Priority, Task, TaskId, TaskSet, Time};

fn build_task(id: u32, prio: u32, (c, m, t): (i64, i64, i64)) -> Task {
    Task::builder(TaskId(id))
        .exec(Time::from_ticks(c))
        .copy_in(Time::from_ticks(m))
        .copy_out(Time::from_ticks(m))
        .sporadic(Time::from_ticks(t))
        .deadline(Time::from_ticks(t))
        .priority(Priority(prio))
        .build()
        .unwrap()
}

fn params_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((1i64..=25, 0i64..=8, 50i64..=150), 2..=5)
}

/// One operation of the random script, resolved against the live state
/// inside the test (indices are taken modulo whatever is present/absent).
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, usize, i64)>> {
    prop::collection::vec((0u8..3, 0usize..8, 1i64..=25), 1..=12)
}

/// Asserts the session tracks the batch oracle through a whole script.
fn check_script(params: &[(i64, i64, i64)], ops: &[(u8, usize, i64)]) -> Result<(), TestCaseError> {
    let catalog: Vec<Task> = params
        .iter()
        .enumerate()
        .map(|(i, &p)| build_task(i as u32, i as u32, p))
        .collect();

    let mut session = AnalysisSession::new(SharedCachedEngine::new(
        ExactEngine::default(),
        Arc::new(SharedDelayCache::default()),
    ));
    let mut shadow: Vec<Task> = Vec::new();
    let check = |session: &AnalysisSession<SharedCachedEngine<ExactEngine>>,
                 shadow: &[Task]|
     -> Result<(), TestCaseError> {
        if shadow.is_empty() {
            prop_assert!(session.is_empty());
            return Ok(());
        }
        let set = TaskSet::new(shadow.to_vec()).unwrap();
        let oracle = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        prop_assert_eq!(session.report(), &oracle);
        Ok(())
    };

    for task in &catalog {
        session.admit(task.clone()).unwrap();
        shadow.push(task.clone());
        check(&session, &shadow)?;
    }

    for &(kind, idx, newexec) in ops {
        let present: Vec<u32> = shadow.iter().map(|t| t.id().0).collect();
        let absent: Vec<u32> = (0..catalog.len() as u32)
            .filter(|i| !present.contains(i))
            .collect();
        match kind {
            0 if !present.is_empty() => {
                let id = present[idx % present.len()];
                session.remove(TaskId(id)).unwrap();
                shadow.retain(|t| t.id().0 != id);
            }
            1 if !absent.is_empty() => {
                let id = absent[idx % absent.len()];
                let task = catalog[id as usize].clone();
                session.admit(task.clone()).unwrap();
                shadow.push(task);
            }
            2 if !present.is_empty() => {
                let id = present[idx % present.len()];
                let base = &catalog[id as usize];
                let task = build_task(
                    id,
                    base.priority().0,
                    (
                        newexec,
                        base.copy_in().as_ticks(),
                        base.deadline().as_ticks(),
                    ),
                );
                session.update(TaskId(id), task.clone()).unwrap();
                let pos = shadow.iter().position(|t| t.id().0 == id).unwrap();
                shadow[pos] = task;
            }
            _ => {}
        }
        check(&session, &shadow)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random admit/remove/update scripts: the incremental session equals
    /// the batch analyzer after every single operation.
    #[test]
    fn session_matches_batch_after_every_op(
        params in params_strategy(),
        ops in ops_strategy(),
    ) {
        check_script(&params, &ops)?;
    }
}

/// One cheap deterministic script for the CI fast path, ending with the
/// session drained back to empty.
#[test]
fn session_differential_smoke() {
    let params = [(10, 2, 100), (20, 4, 120), (15, 3, 150)];
    // admit all, update #1, remove #0, re-admit #0, remove all
    let ops = [
        (2u8, 1usize, 5i64),
        (0, 0, 0),
        (1, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
    ];
    check_script(&params, &ops).unwrap();
}
