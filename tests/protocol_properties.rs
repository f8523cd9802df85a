//! Property tests over random workloads and release patterns: every
//! simulated trace must satisfy the paper's Properties 1–4 (phase
//! placement, blocking-interval bounds), under both interval policies.

use proptest::prelude::*;

use pmcs::prelude::*;

#[derive(Debug, Clone)]
struct Spec {
    exec: i64,
    mem: i64,
    period: i64,
    ls: bool,
    offset: i64,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1i64..=40, 0i64..=15, 60i64..=200, any::<bool>(), 0i64..=100).prop_map(
        |(exec, mem, period, ls, offset)| Spec {
            exec,
            mem,
            period,
            ls,
            offset,
        },
    )
}

fn build(specs: &[Spec]) -> (TaskSet, ReleasePlan) {
    let tasks: Vec<Task> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Task::builder(TaskId(i as u32))
                .exec(Time::from_ticks(s.exec))
                .copy_in(Time::from_ticks(s.mem))
                .copy_out(Time::from_ticks(s.mem))
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
    let set = TaskSet::new(tasks).unwrap();
    let horizon = Time::from_ticks(1_500);
    let plan = ReleasePlan::periodic_with_offsets(&set, horizon, |id| {
        Time::from_ticks(specs[id.0 as usize].offset)
    });
    (set, plan)
}

/// The proposed protocol's trace of `specs` satisfies Properties 1–4 and
/// conforms to the rule-addressable R1–R6 analysis.
fn check_proposed(specs: &[Spec]) {
    let (set, plan) = build(specs);
    let result = simulate(&set, &plan, Policy::Proposed, Time::from_ticks(1_500));
    let violations = validate_trace(&set, &result, true);
    assert!(violations.is_empty(), "{violations:?}");
    let report = check_conformance(&set, &result, true);
    assert!(report.is_conformant(), "{:?}", report.diagnostics);
}

/// The WP baseline's trace of `specs` satisfies the structural properties
/// and the two-interval blocking bound, and never cancels.
fn check_wp(specs: &[Spec]) {
    let (set, plan) = build(specs);
    let result = simulate(
        &set,
        &plan,
        Policy::WaslyPellizzoni,
        Time::from_ticks(1_500),
    );
    let violations = validate_trace(&set, &result, false);
    assert!(violations.is_empty(), "{violations:?}");
    // WP never cancels (rule R3 is the proposed protocol's).
    assert!(result.events().iter().all(|e| !e.canceled));
    let report = check_conformance(&set, &result, false);
    assert!(report.is_conformant(), "{:?}", report.diagnostics);
}

/// Shrunk cases recorded by earlier property runs. The vendored proptest
/// replays no regression files, so they run here, under both checks.
#[test]
fn recorded_regressions_validate() {
    let spec = |exec, mem, period, ls, offset| Spec {
        exec,
        mem,
        period,
        ls,
        offset,
    };
    let cases = [
        vec![
            spec(1, 0, 60, false, 0),
            spec(10, 9, 60, false, 4),
            spec(21, 8, 140, true, 23),
            spec(35, 5, 105, false, 66),
        ],
        vec![
            spec(27, 14, 113, false, 74),
            spec(34, 12, 60, false, 0),
            spec(1, 0, 60, false, 0),
            spec(1, 0, 60, false, 0),
        ],
    ];
    for specs in &cases {
        check_proposed(specs);
        check_wp(specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The proposed protocol's traces satisfy Properties 1–4 and conform
    /// to the rule-addressable R1–R6 analysis.
    #[test]
    fn proposed_traces_validate(specs in prop::collection::vec(spec(), 2..=5)) {
        check_proposed(&specs);
    }

    /// The WP baseline's traces satisfy the structural properties and the
    /// two-interval blocking bound.
    #[test]
    fn wp_traces_validate(specs in prop::collection::vec(spec(), 2..=5)) {
        check_wp(&specs);
    }

    /// Jobs complete in release order per task, and responses are
    /// non-negative under every policy.
    #[test]
    fn job_accounting_is_consistent(
        specs in prop::collection::vec(spec(), 1..=4),
        policy_idx in 0usize..3,
    ) {
        let policy = [Policy::Proposed, Policy::WaslyPellizzoni, Policy::Nps][policy_idx];
        let (set, plan) = build(&specs);
        let result = simulate(&set, &plan, policy, Time::from_ticks(1_500));
        for task in set.iter() {
            let mut completions: Vec<Time> = result
                .jobs()
                .iter()
                .filter(|j| j.job.task() == task.id())
                .filter_map(|j| j.completion)
                .collect();
            let sorted = {
                let mut c = completions.clone();
                c.sort();
                c
            };
            prop_assert_eq!(&completions, &sorted, "completions out of order");
            completions.dedup();
            prop_assert_eq!(completions.len(), sorted.len(), "duplicate completion");
        }
        for j in result.jobs() {
            if let Some(r) = j.response() {
                prop_assert!(r >= Time::ZERO);
                // A completed three-phase job takes at least l + C + u.
                let t = set.get(j.job.task()).unwrap();
                prop_assert!(r >= t.wcet_serialized() - t.copy_in() - t.copy_out() ,
                    "response below execution time");
            }
        }
    }

    /// Under harmonic low load the proposed protocol meets all deadlines
    /// (sanity link between simulation and intuition).
    #[test]
    fn low_load_meets_deadlines(seed in 0u64..50) {
        let mut generator = TaskSetGenerator::new(
            TaskSetConfig {
                n: 3,
                utilization: 0.1,
                gamma: 0.2,
                beta: 1.0,
                ..TaskSetConfig::default()
            },
            seed,
        );
        let set = generator.generate();
        let horizon = Time::from_secs(1);
        let plan = random_sporadic_plan(&set, horizon, 0.2, seed);
        let result = simulate(&set, &plan, Policy::Proposed, horizon);
        prop_assert!(result.all_deadlines_met(horizon));
    }
}
