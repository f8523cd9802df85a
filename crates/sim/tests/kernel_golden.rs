//! Differential golden test: the policy-pluggable kernel must reproduce
//! the pre-refactor simulators *byte for byte*.
//!
//! The `legacy` module below is the monolithic simulator text from before
//! the kernel/policy split — `interval_sim::run(set, plan, ls_enabled,
//! horizon)` plus the standalone `nps_sim::run` event loop — adapted only
//! at the seams (public trait-object-free API, `SimResult::from_parts`).
//! For a corpus of hand-built and seeded-random task sets and release
//! plans, the refactored `Proposed`/`WaslyPellizzoni`/`Nps` policies must
//! produce identical events, `JobRecord`s, and interval starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmcs_core::window::test_task;
use pmcs_model::{Task, TaskId, TaskSet, Time};
use pmcs_sim::{simulate, Policy, ReleasePlan, SimResult};

/// The pre-refactor simulators, preserved verbatim as the golden oracle.
mod legacy {
    use std::collections::VecDeque;

    use pmcs_model::{JobId, Phase, Task, TaskSet, Time};
    use pmcs_sim::{JobRecord, ReleasePlan, SimResult, TraceEvent, TraceUnit};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum PartitionContent {
        Empty,
        Loaded(JobId, usize),
        Output(JobId, usize),
    }

    #[derive(Debug)]
    struct TaskRt {
        info: Task,
        releases: VecDeque<Time>,
        next_index: u64,
        last_completion: Time,
        current: Option<CurrentJob>,
    }

    #[derive(Debug, Clone, Copy)]
    struct CurrentJob {
        job: JobId,
        activation: Time,
        state: JobState,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum JobState {
        Ready,
        Urgent,
        CopyingIn,
        Loaded,
        AwaitingCopyOut,
    }

    pub fn interval_run(
        set: &TaskSet,
        plan: &ReleasePlan,
        ls_rules: bool,
        horizon: Time,
    ) -> SimResult {
        let mut tasks: Vec<TaskRt> = set
            .iter()
            .map(|t| TaskRt {
                releases: plan.releases(t.id()).iter().copied().collect(),
                next_index: 0,
                last_completion: Time::ZERO,
                current: None,
                info: t.clone(),
            })
            .collect();

        let mut events: Vec<TraceEvent> = Vec::new();
        let mut jobs: Vec<JobRecord> = Vec::new();
        let mut interval_starts: Vec<Time> = Vec::new();

        let mut partitions = [PartitionContent::Empty, PartitionContent::Empty];
        let mut cpu_part = 0usize;
        let mut urgent: Option<usize> = None;

        let mut now = Time::ZERO;
        let max_steps = 100_000_000u64;
        let mut steps = 0u64;

        loop {
            steps += 1;
            assert!(steps < max_steps, "simulation failed to make progress");

            activate(&mut tasks, &mut jobs, now);

            let work_pending = urgent.is_some()
                || partitions
                    .iter()
                    .any(|p| !matches!(p, PartitionContent::Empty))
                || tasks
                    .iter()
                    .any(|t| matches!(t.current.map(|c| c.state), Some(JobState::Ready)));
            if !work_pending {
                match next_activation(&tasks) {
                    Some(t) if t < horizon => {
                        now = t;
                        continue;
                    }
                    _ => break,
                }
            }
            if now >= horizon {
                break;
            }

            // ----- Interval start: R1 partition swap ---------------------
            let k = interval_starts.len();
            interval_starts.push(now);
            cpu_part = 1 - cpu_part;
            let dma_part = 1 - cpu_part;

            // ----- CPU side (R5) -----------------------------------------
            let mut cpu_end = now;
            if let Some(ti) = urgent.take() {
                let job = tasks[ti].current.expect("urgent task must have a job");
                debug_assert_eq!(job.state, JobState::Urgent);
                let l = tasks[ti].info.copy_in();
                let c = tasks[ti].info.exec();
                events.push(TraceEvent {
                    start: now,
                    end: now + l,
                    unit: TraceUnit::Cpu,
                    job: job.job,
                    phase: Phase::CopyIn,
                    canceled: false,
                    interval: k,
                });
                events.push(TraceEvent {
                    start: now + l,
                    end: now + l + c,
                    unit: TraceUnit::Cpu,
                    job: job.job,
                    phase: Phase::Execute,
                    canceled: false,
                    interval: k,
                });
                record_exec_start(&mut jobs, job.job, now + l);
                cpu_end = now + l + c;
                set_state(&mut tasks[ti], JobState::AwaitingCopyOut);
                debug_assert_eq!(partitions[cpu_part], PartitionContent::Empty);
                partitions[cpu_part] = PartitionContent::Output(job.job, ti);
            } else if let PartitionContent::Loaded(job, ti) = partitions[cpu_part] {
                let c = tasks[ti].info.exec();
                events.push(TraceEvent {
                    start: now,
                    end: now + c,
                    unit: TraceUnit::Cpu,
                    job,
                    phase: Phase::Execute,
                    canceled: false,
                    interval: k,
                });
                record_exec_start(&mut jobs, job, now);
                cpu_end = now + c;
                set_state(&mut tasks[ti], JobState::AwaitingCopyOut);
                partitions[cpu_part] = PartitionContent::Output(job, ti);
            }

            // ----- DMA side (R2, R3) -------------------------------------
            let target = highest_priority_ready(&tasks);
            if let Some(ti) = target {
                set_state(&mut tasks[ti], JobState::CopyingIn);
            }

            let mut dma_t = now;
            if let PartitionContent::Output(job, ti) = partitions[dma_part] {
                let u = tasks[ti].info.copy_out();
                events.push(TraceEvent {
                    start: dma_t,
                    end: dma_t + u,
                    unit: TraceUnit::Dma,
                    job,
                    phase: Phase::CopyOut,
                    canceled: false,
                    interval: k,
                });
                dma_t += u;
                partitions[dma_part] = PartitionContent::Empty;
                complete_job(&mut tasks[ti], &mut jobs, job, dma_t);
            }

            let mut copyin_executed = false;
            let mut canceled = false;
            if let Some(ti) = target {
                let job = tasks[ti].current.expect("selected task has a job");
                let start = dma_t;
                let full_end = start + tasks[ti].info.copy_in();
                let tentative_end = cpu_end.max(full_end);
                let cancel_at = if ls_rules {
                    earliest_canceling_release(&tasks, ti, now, tentative_end)
                        .map(|rc| rc.clamp(start, full_end))
                } else {
                    None
                };
                match cancel_at {
                    Some(rc) => {
                        events.push(TraceEvent {
                            start,
                            end: rc,
                            unit: TraceUnit::Dma,
                            job: job.job,
                            phase: Phase::CopyIn,
                            canceled: true,
                            interval: k,
                        });
                        dma_t = rc;
                        set_state(&mut tasks[ti], JobState::Ready);
                        canceled = true;
                        activate(&mut tasks, &mut jobs, rc);
                    }
                    None => {
                        events.push(TraceEvent {
                            start,
                            end: full_end,
                            unit: TraceUnit::Dma,
                            job: job.job,
                            phase: Phase::CopyIn,
                            canceled: false,
                            interval: k,
                        });
                        dma_t = full_end;
                        set_state(&mut tasks[ti], JobState::Loaded);
                        debug_assert_eq!(partitions[dma_part], PartitionContent::Empty);
                        partitions[dma_part] = PartitionContent::Loaded(job.job, ti);
                        copyin_executed = true;
                    }
                }
            }

            // ----- Interval end (R6) -------------------------------------
            let interval_end = cpu_end.max(dma_t);
            activate(&mut tasks, &mut jobs, interval_end);

            // ----- R4: urgent promotion ----------------------------------
            if ls_rules && (canceled || !copyin_executed) {
                let candidate = tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.info.is_ls())
                    .filter(|(_, t)| {
                        t.current.is_some_and(|c| {
                            c.state == JobState::Ready
                                && c.activation >= now
                                && c.activation <= interval_end
                        })
                    })
                    .min_by_key(|(_, t)| t.info.priority())
                    .map(|(i, _)| i);
                if let Some(ti) = candidate {
                    set_state(&mut tasks[ti], JobState::Urgent);
                    urgent = Some(ti);
                }
            }

            now = interval_end;
        }

        jobs.sort_by_key(|j| (j.release, j.job));
        SimResult::from_parts(events, jobs, interval_starts)
    }

    fn activate(tasks: &mut [TaskRt], jobs: &mut Vec<JobRecord>, upto: Time) {
        for t in tasks.iter_mut() {
            if t.current.is_some() {
                continue;
            }
            let Some(&release) = t.releases.front() else {
                continue;
            };
            let activation = release.max(t.last_completion);
            if activation <= upto {
                t.releases.pop_front();
                let job = JobId::new(t.info.id(), t.next_index);
                t.next_index += 1;
                t.current = Some(CurrentJob {
                    job,
                    activation,
                    state: JobState::Ready,
                });
                jobs.push(JobRecord {
                    job,
                    release,
                    activation,
                    absolute_deadline: release + t.info.deadline(),
                    exec_start: None,
                    completion: None,
                });
            }
        }
    }

    fn next_activation(tasks: &[TaskRt]) -> Option<Time> {
        tasks
            .iter()
            .filter(|t| t.current.is_none())
            .filter_map(|t| t.releases.front().map(|&r| r.max(t.last_completion)))
            .min()
    }

    fn highest_priority_ready(tasks: &[TaskRt]) -> Option<usize> {
        tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.current.is_some_and(|c| c.state == JobState::Ready))
            .min_by_key(|(_, t)| t.info.priority())
            .map(|(i, _)| i)
    }

    fn earliest_canceling_release(
        tasks: &[TaskRt],
        target: usize,
        start: Time,
        end: Time,
    ) -> Option<Time> {
        let target_prio = tasks[target].info.priority();
        tasks
            .iter()
            .filter(|t| t.info.is_ls() && t.info.priority().is_higher_than(target_prio))
            .filter(|t| t.current.is_none())
            .filter_map(|t| {
                let &r = t.releases.front()?;
                let activation = r.max(t.last_completion);
                (activation >= start && activation < end).then_some(activation)
            })
            .min()
    }

    fn set_state(task: &mut TaskRt, state: JobState) {
        if let Some(c) = task.current.as_mut() {
            c.state = state;
        }
    }

    fn record_exec_start(jobs: &mut [JobRecord], job: JobId, at: Time) {
        if let Some(r) = jobs.iter_mut().find(|r| r.job == job) {
            r.exec_start = Some(at);
        }
    }

    fn complete_job(task: &mut TaskRt, jobs: &mut [JobRecord], job: JobId, at: Time) {
        if let Some(r) = jobs.iter_mut().find(|r| r.job == job) {
            r.completion = Some(at);
        }
        task.last_completion = at;
        task.current = None;
    }

    // ---- nps_sim.rs ----------------------------------------------------

    struct NpsTaskRt {
        releases: VecDeque<Time>,
        next_index: u64,
        last_completion: Time,
        ready: Option<(JobId, Time)>,
    }

    pub fn nps_run(set: &TaskSet, plan: &ReleasePlan, horizon: Time) -> SimResult {
        let infos: Vec<_> = set.iter().collect();
        let mut rt: Vec<NpsTaskRt> = infos
            .iter()
            .map(|t| NpsTaskRt {
                releases: plan.releases(t.id()).iter().copied().collect(),
                next_index: 0,
                last_completion: Time::ZERO,
                ready: None,
            })
            .collect();

        let mut events = Vec::new();
        let mut jobs: Vec<JobRecord> = Vec::new();
        let mut now = Time::ZERO;

        loop {
            for (i, t) in rt.iter_mut().enumerate() {
                if t.ready.is_some() {
                    continue;
                }
                if let Some(&r) = t.releases.front() {
                    let activation = r.max(t.last_completion);
                    if activation <= now {
                        t.releases.pop_front();
                        let job = JobId::new(infos[i].id(), t.next_index);
                        t.next_index += 1;
                        t.ready = Some((job, activation));
                        jobs.push(JobRecord {
                            job,
                            release: r,
                            activation,
                            absolute_deadline: r + infos[i].deadline(),
                            exec_start: None,
                            completion: None,
                        });
                    }
                }
            }

            let next = rt
                .iter()
                .enumerate()
                .filter(|(_, t)| t.ready.is_some())
                .min_by_key(|(i, _)| infos[*i].priority())
                .map(|(i, _)| i);
            match next {
                Some(i) => {
                    if now >= horizon {
                        break;
                    }
                    let (job, _) = rt[i].ready.take().expect("ready job");
                    let (l, c, u) = (infos[i].copy_in(), infos[i].exec(), infos[i].copy_out());
                    let phases = [
                        (Phase::CopyIn, now, now + l),
                        (Phase::Execute, now + l, now + l + c),
                        (Phase::CopyOut, now + l + c, now + l + c + u),
                    ];
                    for (phase, start, end) in phases {
                        events.push(TraceEvent {
                            start,
                            end,
                            unit: TraceUnit::Cpu,
                            job,
                            phase,
                            canceled: false,
                            interval: usize::MAX,
                        });
                    }
                    let completion = now + l + c + u;
                    if let Some(r) = jobs.iter_mut().find(|r| r.job == job) {
                        r.exec_start = Some(now + l);
                        r.completion = Some(completion);
                    }
                    rt[i].last_completion = completion;
                    now = completion;
                }
                None => {
                    let next_t = rt
                        .iter()
                        .filter(|t| t.ready.is_none())
                        .filter_map(|t| t.releases.front().map(|&r| r.max(t.last_completion)))
                        .min();
                    match next_t {
                        Some(t) if t < horizon => now = now.max(t),
                        _ => break,
                    }
                }
            }
        }

        jobs.sort_by_key(|j| (j.release, j.job));
        SimResult::from_parts(events, jobs, Vec::new())
    }
}

// ---- corpus -------------------------------------------------------------

const HORIZON: i64 = 2_000;

/// Hand-built task sets covering the protocol's decision surface: LS
/// flags, priority inversions, zero copy phases, copies longer than
/// execution, overload.
fn corpus_sets() -> Vec<Vec<Task>> {
    vec![
        // Single task.
        vec![test_task(0, 10, 3, 2, 100, 0, false)],
        // Two NLS tasks, back-to-back pipelining.
        vec![
            test_task(0, 10, 5, 5, 100, 0, false),
            test_task(1, 10, 5, 5, 120, 1, false),
        ],
        // LS over a long lp copy-in — exercises R3/R4.
        vec![
            test_task(0, 10, 4, 1, 60, 0, true),
            test_task(1, 50, 10, 1, 200, 1, false),
        ],
        // Two LS tasks over two lp tasks.
        vec![
            test_task(0, 5, 2, 1, 40, 0, true),
            test_task(1, 8, 3, 2, 60, 1, true),
            test_task(2, 30, 6, 4, 150, 2, false),
            test_task(3, 40, 8, 5, 200, 3, false),
        ],
        // Zero-length copy phases.
        vec![
            test_task(0, 10, 0, 0, 50, 0, false),
            test_task(1, 20, 0, 0, 100, 1, true),
        ],
        // Copies dominating execution.
        vec![
            test_task(0, 2, 9, 9, 100, 0, true),
            test_task(1, 3, 7, 8, 120, 1, false),
            test_task(2, 4, 6, 6, 140, 2, false),
        ],
        // LS task at *lower* priority than an NLS task.
        vec![
            test_task(0, 6, 2, 2, 50, 0, false),
            test_task(1, 8, 3, 3, 80, 1, true),
            test_task(2, 20, 5, 5, 160, 2, false),
        ],
        // Overloaded single task (deferred activations).
        vec![test_task(0, 30, 5, 5, 35, 0, true)],
    ]
}

/// Release-plan patterns per set: synchronous, staggered, burst, overload.
fn corpus_plans(set: &TaskSet) -> Vec<ReleasePlan> {
    let n = set.len() as i64;
    let mut plans = vec![
        // Synchronous critical instant, repeating.
        ReleasePlan::periodic(set, Time::from_ticks(HORIZON)),
        // Staggered by index.
        ReleasePlan::from_pairs(
            set.iter()
                .enumerate()
                .map(|(i, t)| {
                    (
                        t.id(),
                        (0..5)
                            .map(|j| Time::from_ticks(i as i64 * 7 + j * 90))
                            .collect(),
                    )
                })
                .collect(),
        ),
        // Burst: everyone shortly after the lowest-priority task.
        ReleasePlan::from_pairs(
            set.iter()
                .enumerate()
                .map(|(i, t)| {
                    let off = if i as i64 == n - 1 { 0 } else { 3 };
                    (
                        t.id(),
                        (0..4).map(|j| Time::from_ticks(off + j * 110)).collect(),
                    )
                })
                .collect(),
        ),
    ];
    // Seeded sporadic jitter.
    for seed in [1u64, 42, 4242] {
        let mut rng = StdRng::seed_from_u64(seed);
        plans.push(ReleasePlan::from_pairs(
            set.iter()
                .map(|t| {
                    let mut at = Time::from_ticks(rng.gen_range(0..20));
                    let mut rel = Vec::new();
                    while at < Time::from_ticks(HORIZON) {
                        rel.push(at);
                        let gap = t
                            .arrival()
                            .min_inter_arrival()
                            .expect("corpus tasks are sporadic")
                            .as_ticks()
                            + rng.gen_range(0i64..30);
                        at += Time::from_ticks(gap);
                    }
                    (t.id(), rel)
                })
                .collect(),
        ));
    }
    plans
}

fn assert_identical(new: &SimResult, old: &SimResult, what: &str, si: usize, pi: usize) {
    assert_eq!(
        new.events(),
        old.events(),
        "{what}: events diverge on set {si}, plan {pi}"
    );
    assert_eq!(
        new.jobs(),
        old.jobs(),
        "{what}: job records diverge on set {si}, plan {pi}"
    );
    assert_eq!(
        new.interval_starts(),
        old.interval_starts(),
        "{what}: interval starts diverge on set {si}, plan {pi}"
    );
    // Belt and braces: the full Debug rendering, byte for byte.
    assert_eq!(
        format!("{new:?}"),
        format!("{old:?}"),
        "{what}: debug rendering diverges on set {si}, plan {pi}"
    );
}

#[test]
fn kernel_matches_legacy_simulators_on_corpus() {
    let horizon = Time::from_ticks(HORIZON);
    let mut cases = 0usize;
    for (si, tasks) in corpus_sets().into_iter().enumerate() {
        let set = TaskSet::new(tasks).expect("corpus set is valid");
        for (pi, plan) in corpus_plans(&set).into_iter().enumerate() {
            let proposed = simulate(&set, &plan, Policy::Proposed, horizon);
            let wp = simulate(&set, &plan, Policy::WaslyPellizzoni, horizon);
            let nps = simulate(&set, &plan, Policy::Nps, horizon);

            assert_identical(
                &proposed,
                &legacy::interval_run(&set, &plan, true, horizon),
                "proposed vs interval_sim(ls=true)",
                si,
                pi,
            );
            assert_identical(
                &wp,
                &legacy::interval_run(&set, &plan, false, horizon),
                "wp vs interval_sim(ls=false)",
                si,
                pi,
            );
            assert_identical(
                &nps,
                &legacy::nps_run(&set, &plan, horizon),
                "nps vs nps_sim",
                si,
                pi,
            );
            cases += 1;
        }
    }
    assert!(cases >= 48, "corpus unexpectedly small: {cases} cases");
}

#[test]
fn registry_policies_match_legacy_by_name() {
    let horizon = Time::from_ticks(HORIZON);
    let registry = pmcs_sim::Registry::standard();
    let set = TaskSet::new(vec![
        test_task(0, 5, 2, 1, 40, 0, true),
        test_task(1, 30, 6, 4, 150, 1, false),
        test_task(2, 40, 8, 5, 200, 2, false),
    ])
    .expect("valid set");
    let plan = ReleasePlan::periodic(&set, horizon);

    for (name, policy) in registry.iter() {
        let new = pmcs_sim::simulate_with(&set, &plan, policy, horizon);
        let old = match name {
            "proposed" => legacy::interval_run(&set, &plan, true, horizon),
            "wp" => legacy::interval_run(&set, &plan, false, horizon),
            "nps" | "nps-classic" => legacy::nps_run(&set, &plan, horizon),
            other => panic!("unexpected registry entry {other:?}"),
        };
        assert_identical(&new, &old, name, 0, 0);
    }
}

#[test]
fn job_id_task_accessor_used_by_oracle_exists() {
    // Guards the oracle's adaptation seams: JobId::new + task() round-trip.
    let id = pmcs_model::JobId::new(TaskId(3), 7);
    assert_eq!(id.task(), TaskId(3));
}
