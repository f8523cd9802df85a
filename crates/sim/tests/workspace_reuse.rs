//! Property tests for the workspace-reuse kernel entry points.
//!
//! Two contracts underpin the fleet-scale campaign drivers:
//!
//! 1. **Dirty reuse is invisible.** `run_into` against a workspace still
//!    warm from an arbitrary earlier simulation must produce a trace
//!    byte-identical to a fresh `run` — whatever set, plan, or policy
//!    the workspace last saw.
//! 2. **Streaming loses nothing it claims to keep.** `run_streaming`'s
//!    folded statistics (per-task worst response, release/completion
//!    counts, deadline misses) must equal the same numbers derived from
//!    the materialized trace, and the `on_response` hook must fire once
//!    per completion in trace order.

use proptest::prelude::*;

use pmcs_core::window::test_task;
use pmcs_model::{TaskSet, Time};
use pmcs_sim::kernel::{run, run_into, run_streaming};
use pmcs_sim::policy::{Nps, Proposed, WaslyPellizzoni};
use pmcs_sim::{ProtocolPolicy, ReleasePlan, SimWorkspace};

/// One generated scenario: a valid task set, a release plan respecting
/// each task's minimum inter-arrival time, a policy, and a horizon.
#[derive(Debug, Clone)]
struct Scenario {
    set: TaskSet,
    plan: ReleasePlan,
    policy: usize,
    horizon: Time,
}

fn policy_of(index: usize) -> &'static dyn ProtocolPolicy {
    match index % 3 {
        0 => &Proposed,
        1 => &WaslyPellizzoni,
        _ => &Nps,
    }
}

/// Task tuples: (period, copy, exec, ls). `test_task` sets deadline =
/// period, which keeps every generated set valid; unique priorities
/// follow the vector order.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let task = (10i64..60, 0i64..4, 1i64..8, any::<bool>());
    (
        proptest::collection::vec(task, 1..5),
        proptest::collection::vec((0i64..40, 0i64..10), 5),
        0usize..3,
        100i64..400,
    )
        .prop_map(|(specs, offsets, policy, horizon)| {
            let tasks: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(i, &(period, copy, exec, ls))| {
                    test_task(i as u32, exec, copy, copy, period, i as u32, ls)
                })
                .collect();
            let set = TaskSet::new(tasks).expect("generated tasks are valid");
            let mut plan = ReleasePlan::default();
            let horizon = Time::from_ticks(horizon);
            for (task, &(offset, jitter)) in set.iter().zip(offsets.iter().cycle()) {
                let gap = task
                    .arrival()
                    .min_inter_arrival()
                    .expect("periodic test tasks have a period")
                    + Time::from_ticks(jitter);
                let mut at = Time::from_ticks(offset);
                while at < horizon {
                    plan.push(task.id(), at);
                    at += gap;
                }
            }
            Scenario {
                set,
                plan,
                policy,
                horizon,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: a workspace dirtied by one scenario replays a second
    /// scenario byte-identically to a fresh allocation.
    #[test]
    fn dirty_workspace_reuse_is_byte_identical(
        first in scenario_strategy(),
        second in scenario_strategy(),
    ) {
        let mut ws = SimWorkspace::new();
        // Dirty the workspace with an unrelated simulation.
        let _ = run_into(
            &first.set,
            &first.plan,
            policy_of(first.policy),
            first.horizon,
            &mut ws,
        );
        let fresh = run(
            &second.set,
            &second.plan,
            policy_of(second.policy),
            second.horizon,
        );
        let reused = run_into(
            &second.set,
            &second.plan,
            policy_of(second.policy),
            second.horizon,
            &mut ws,
        );
        prop_assert_eq!(reused.events(), fresh.events());
        prop_assert_eq!(reused.jobs(), fresh.jobs());
        prop_assert_eq!(reused.interval_starts(), fresh.interval_starts());
        prop_assert_eq!(ws.runs(), 2);
        prop_assert_eq!(ws.reuses(), 1);
    }

    /// Contract 2: streaming statistics equal the trace-derived numbers
    /// and the response hook fires once per completion.
    #[test]
    fn streaming_stats_equal_trace_derived(s in scenario_strategy()) {
        let policy = policy_of(s.policy);
        let trace = run(&s.set, &s.plan, policy, s.horizon);

        let mut ws = SimWorkspace::new();
        let mut seen: Vec<(usize, Time)> = Vec::new();
        let stats = run_streaming(&s.set, &s.plan, policy, s.horizon, &mut ws, |ti, r| {
            seen.push((ti, r));
        });

        for (ti, task) in s.set.iter().enumerate() {
            let records: Vec<_> = trace
                .jobs()
                .iter()
                .filter(|j| j.job.task() == task.id())
                .collect();
            let completed: Vec<Time> = records
                .iter()
                .filter_map(|j| j.completion.map(|c| c - j.release))
                .collect();
            prop_assert_eq!(
                stats.released(ti),
                records.len() as u64,
                "released mismatch for {}", task.id()
            );
            prop_assert_eq!(
                stats.completed(ti),
                completed.len() as u64,
                "completed mismatch for {}", task.id()
            );
            prop_assert_eq!(
                stats.worst_response(ti),
                completed.iter().copied().max(),
                "worst mismatch for {}", task.id()
            );
            let misses = records
                .iter()
                .filter(|j| matches!(j.completion, Some(c) if c > j.absolute_deadline))
                .count() as u64;
            prop_assert_eq!(
                stats.deadline_misses(ti),
                misses,
                "miss mismatch for {}", task.id()
            );
        }
        prop_assert_eq!(stats.intervals() as usize, trace.interval_starts().len());

        // The hook fired once per completed job, each with the recorded
        // response.
        let total_completed: usize = trace
            .jobs()
            .iter()
            .filter(|j| j.completion.is_some())
            .count();
        prop_assert_eq!(seen.len(), total_completed);
        let mut worst_seen: Vec<Option<Time>> = vec![None; s.set.len()];
        for &(ti, r) in &seen {
            let cur = &mut worst_seen[ti];
            *cur = Some(cur.map_or(r, |w| w.max(r)));
        }
        for (ti, &worst) in worst_seen.iter().enumerate() {
            prop_assert_eq!(worst, stats.worst_response(ti));
        }
    }
}
