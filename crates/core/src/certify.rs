//! Certificate emission: proof-carrying analysis results.
//!
//! Every WCRT verdict the analysis produces can be accompanied by a
//! machine-checkable certificate bundle (a [`pmcs_cert::CertificateSet`]):
//!
//! * **window level** — each delay bound ships a concrete placement
//!   witness attaining it plus an upper-bound proof: the DP's full memo
//!   table ([`UpperProof::DpTable`], replayed Bellman equation by Bellman
//!   equation), a VIPR-style branch-and-bound tree with exact-rational
//!   dual certificates at the leaves ([`UpperProof::BbTree`], for the
//!   MILP path), or a closed-form safe cap for inexact bounds;
//! * **task level** — the monotone fixed-point iteration, each step's
//!   window referenced by content hash ([`WcrtCertificate`]);
//! * **set level** — the greedy LS-marking transcript
//!   ([`SchedCertificate`]).
//!
//! Emission runs *outside* any timed region: [`certify_task_set`] re-runs
//! the traced analysis from scratch (deterministic, so the transcript
//! matches the production verdicts exactly) and the independent checker
//! in `pmcs-cert` validates the bundle with zero dependency on this
//! crate.

use std::collections::{HashMap, HashSet};

use pmcs_cert::types::{
    CertArrival, CertCase, CertChoice, CertRound, CertRoundEntry, CertTask, CertTaskSet,
    CertWcrtStep, CertWindow, CertWindowTask, CertificateSet, DelayCertificate, DpEntry,
    SchedCertificate, UpperProof, WcrtCertificate,
};
use pmcs_milp::{certify_upper_bound, CertifyLimits, Rational};
use pmcs_model::{ArrivalModel, Sensitivity, TaskSet};

use crate::engine::ExactEngine;
use crate::error::CoreError;
use crate::formulation::MilpEngine;
use crate::schedulability::{analyze_task_set_traced, SchedulabilityReport};
use crate::wcrt::{DelayBound, TaskTrace, WcrtAnalyzer};
use crate::window::{WindowCase, WindowModel};

fn cert_err(detail: impl Into<String>) -> CoreError {
    CoreError::Certification {
        detail: detail.into(),
    }
}

/// Converts an arrival model to its certificate encoding.
///
/// # Errors
///
/// Rejects arrival models the certificate format cannot express (none
/// today; the arm exists because [`ArrivalModel`] is non-exhaustive).
pub fn cert_arrival_of(arrival: &ArrivalModel) -> Result<CertArrival, CoreError> {
    match arrival {
        ArrivalModel::Sporadic { min_inter_arrival } => Ok(CertArrival::Sporadic {
            min_inter_arrival: min_inter_arrival.as_ticks(),
        }),
        ArrivalModel::PeriodicJitter { period, jitter } => Ok(CertArrival::PeriodicJitter {
            period: period.as_ticks(),
            jitter: jitter.as_ticks(),
        }),
        ArrivalModel::Staircase(curve) => Ok(CertArrival::Staircase {
            steps: curve
                .steps()
                .iter()
                .map(|&(delta, count)| (delta.as_ticks(), count))
                .collect(),
            tail_period: curve.tail_period().as_ticks(),
        }),
        other => Err(cert_err(format!(
            "arrival model {other:?} has no certificate encoding"
        ))),
    }
}

/// Converts a task set to its certificate encoding (tasks stay in the
/// set's decreasing-priority order).
///
/// # Errors
///
/// Propagates [`cert_arrival_of`] failures.
pub fn cert_task_set_of(set: &TaskSet) -> Result<CertTaskSet, CoreError> {
    let mut tasks = Vec::with_capacity(set.len());
    for t in set.iter() {
        tasks.push(CertTask {
            id: t.id().0,
            exec: t.exec().as_ticks(),
            copy_in: t.copy_in().as_ticks(),
            copy_out: t.copy_out().as_ticks(),
            deadline: t.deadline().as_ticks(),
            priority: t.priority().0,
            arrival: cert_arrival_of(t.arrival())?,
        });
    }
    Ok(CertTaskSet { tasks })
}

/// Converts an analysis window to its certificate encoding (markings are
/// recorded raw; the checker applies the inertness canonicalization
/// itself).
pub fn cert_window_of(w: &WindowModel) -> CertWindow {
    CertWindow {
        case: match w.case {
            WindowCase::Nls => CertCase::Nls,
            WindowCase::LsCaseA => CertCase::LsCaseA,
        },
        n_intervals: w.n_intervals as u64,
        tasks: w
            .tasks
            .iter()
            .map(|t| CertWindowTask {
                exec: t.exec.as_ticks(),
                copy_in: t.copy_in.as_ticks(),
                copy_out: t.copy_out.as_ticks(),
                ls: t.ls,
                hp: t.hp,
                priority: t.priority.0,
                budget: t.budget,
            })
            .collect(),
        exec_i: w.exec_i.as_ticks(),
        copy_in_i: w.copy_in_i.as_ticks(),
        copy_out_i: w.copy_out_i.as_ticks(),
        priority_i: w.priority_i.0,
        max_l: w.max_l.as_ticks(),
        max_u: w.max_u.as_ticks(),
    }
}

/// Certifies one window bound produced by the DP engine.
///
/// Exact bounds get the recorded memo table as the upper proof and the
/// traced-back optimal placement as the witness; inexact bounds get the
/// closed-form safe cap.
///
/// # Errors
///
/// [`CoreError::Certification`] when the recording solve cannot reproduce
/// the claimed exact bound (an engine bug, not a property of the window).
pub fn certify_window_dp(
    engine: &ExactEngine,
    w: &WindowModel,
    bound: DelayBound,
) -> Result<DelayCertificate, CoreError> {
    let window = cert_window_of(w);
    let window_hash = window.content_hash();
    let claimed = bound.delay.as_ticks();
    if w.n() < 2 || !bound.exact {
        // Degenerate windows are closed forms; inexact bounds are the
        // engine's fallback cap — both checked against the checker's own
        // re-derivation, no table or witness applies.
        return Ok(DelayCertificate {
            window,
            window_hash,
            claimed,
            exact: bound.exact,
            witness: None,
            upper: UpperProof::SafeCap,
        });
    }
    let rec = engine.solve_recorded(w).ok_or_else(|| {
        cert_err("recording solve exhausted its budget on a window the production solve finished")
    })?;
    if rec.value != claimed {
        return Err(cert_err(format!(
            "recording solve found {} but the production bound is {claimed}",
            rec.value
        )));
    }
    Ok(DelayCertificate {
        window,
        window_hash,
        claimed,
        exact: true,
        witness: Some(
            rec.witness
                .iter()
                .map(|&c| CertChoice::from_code(c))
                .collect(),
        ),
        upper: UpperProof::DpTable(
            rec.states
                .into_iter()
                .map(|s| DpEntry {
                    k: s.k as u64,
                    prev: CertChoice::from_code(s.prev),
                    prev2: CertChoice::from_code(s.prev2),
                    budgets: s.budgets,
                    value: s.value,
                })
                .collect(),
        ),
    })
}

/// Certifies one window bound produced by the MILP engine.
///
/// Exact bounds get a VIPR-style branch-and-bound proof tree over the
/// engine's own formulation (every leaf carries an exact-rational dual
/// bound or Farkas certificate) plus a DP-derived placement witness
/// pinching the claim from below; inexact bounds get the `N·M` big-M cap.
///
/// # Errors
///
/// [`CoreError::Certification`] when the proof tree cannot be built
/// within `limits` or the DP witness disagrees with the MILP optimum.
pub fn certify_window_milp(
    milp: &MilpEngine,
    witness_engine: &ExactEngine,
    w: &WindowModel,
    bound: DelayBound,
    limits: &CertifyLimits,
) -> Result<DelayCertificate, CoreError> {
    let window = cert_window_of(w);
    let window_hash = window.content_hash();
    let claimed = bound.delay.as_ticks();
    if w.n() < 2 {
        return Ok(DelayCertificate {
            window,
            window_hash,
            claimed,
            exact: bound.exact,
            witness: None,
            upper: UpperProof::SafeCap,
        });
    }
    if !bound.exact {
        return Ok(DelayCertificate {
            window,
            window_hash,
            claimed,
            exact: false,
            witness: None,
            upper: UpperProof::MilpCap,
        });
    }
    let problem = milp.build_problem(w);
    let tree = certify_upper_bound(&problem, Rational::from_int(i128::from(claimed)), limits)
        .map_err(|e| cert_err(format!("proof tree construction failed: {e}")))?;
    let rec = witness_engine
        .solve_recorded(w)
        .ok_or_else(|| cert_err("witness solve exhausted its budget"))?;
    if rec.value != claimed {
        return Err(cert_err(format!(
            "DP witness value {} disagrees with the MILP bound {claimed}",
            rec.value
        )));
    }
    Ok(DelayCertificate {
        window,
        window_hash,
        claimed,
        exact: true,
        witness: Some(
            rec.witness
                .iter()
                .map(|&c| CertChoice::from_code(c))
                .collect(),
        ),
        upper: UpperProof::BbTree { problem, tree },
    })
}

/// Runs the greedy schedulability analysis and emits the full certificate
/// bundle for it: one [`DelayCertificate`] per distinct window solved, one
/// [`WcrtCertificate`] per fresh task analysis, and the set-level
/// [`SchedCertificate`] transcript.
///
/// The returned report is the ordinary analysis result — certification
/// changes nothing about the verdicts, it only attaches proofs.
///
/// # Errors
///
/// Propagates analysis errors and [`CoreError::Certification`] emission
/// failures.
pub fn certify_task_set(
    set: &TaskSet,
    engine: &ExactEngine,
) -> Result<(SchedulabilityReport, CertificateSet), CoreError> {
    let (report, trace) = analyze_task_set_traced(set, engine)?;
    let mut bundle = CertificateSet::new(cert_task_set_of(set)?);
    let analyzer = WcrtAnalyzer::default();

    // Window certificates are deduplicated by content hash: across
    // fixed-point iterations and greedy rounds the same window recurs
    // constantly (this mirrors `SharedCachedEngine`, but keyed on the *recorded*
    // window, not the canonicalized cache key).
    let mut seen_windows: HashMap<u64, (i64, bool)> = HashMap::new();
    let mut seen_wcrts: HashSet<(u32, Vec<u32>)> = HashSet::new();

    let mut current = set.all_nls();
    let mut rounds = Vec::with_capacity(trace.rounds.len());
    for (r, round) in trace.rounds.iter().enumerate() {
        if r > 0 {
            current = current.with_sensitivity(trace.promoted[r - 1], Sensitivity::Ls)?;
        }
        let mut marking: Vec<u32> = trace.promoted[..r].iter().map(|t| t.0).collect();
        marking.sort_unstable();
        let mut entries = Vec::with_capacity(round.len());
        for entry in round {
            entries.push(CertRoundEntry {
                task: entry.task.0,
                wcrt: entry.wcrt.as_ticks(),
                schedulable: entry.schedulable,
                fresh: entry.fresh,
            });
            if !entry.fresh || !seen_wcrts.insert((entry.task.0, marking.clone())) {
                continue;
            }
            // Deterministic replay of the fresh analysis under this
            // round's marking; the transcript gives every window length
            // the fixed point visited.
            let (analysis, ttrace) = analyzer.analyze_task_traced(&current, entry.task, engine)?;
            if analysis.wcrt != entry.wcrt || analysis.schedulable != entry.schedulable {
                return Err(cert_err(format!(
                    "replay of {} diverged from the traced run",
                    entry.task
                )));
            }
            let steps = certify_steps(
                engine,
                &current,
                entry.task,
                &ttrace,
                &mut seen_windows,
                &mut bundle,
            )?;
            bundle.wcrts.push(WcrtCertificate {
                task: entry.task.0,
                marking: marking.clone(),
                case: match ttrace.case {
                    WindowCase::Nls => CertCase::Nls,
                    WindowCase::LsCaseA => CertCase::LsCaseA,
                },
                steps,
                case_b: ttrace.case_b.map(|t| t.as_ticks()),
                wcrt: analysis.wcrt.as_ticks(),
                schedulable: analysis.schedulable,
            });
        }
        rounds.push(CertRound { entries });
    }
    bundle.sched = Some(SchedCertificate {
        rounds,
        promoted: trace.promoted.iter().map(|t| t.0).collect(),
        schedulable: trace.schedulable,
    });
    Ok((report, bundle))
}

/// Certifies every window of one task's fixed-point transcript, pushing
/// new window certificates into the bundle and returning the step list.
fn certify_steps(
    engine: &ExactEngine,
    current: &TaskSet,
    task: pmcs_model::TaskId,
    ttrace: &TaskTrace,
    seen_windows: &mut HashMap<u64, (i64, bool)>,
    bundle: &mut CertificateSet,
) -> Result<Vec<CertWcrtStep>, CoreError> {
    let mut steps = Vec::with_capacity(ttrace.steps.len());
    for st in &ttrace.steps {
        let window = WindowModel::build(current, task, ttrace.case, st.window_len)?;
        let cw = cert_window_of(&window);
        let hash = cw.content_hash();
        match seen_windows.get(&hash) {
            Some(&(claimed, exact)) => {
                if claimed != st.delay.as_ticks() || exact != st.exact {
                    return Err(cert_err(format!(
                        "window {hash:016x} solved twice with different bounds \
                         ({claimed} vs {})",
                        st.delay.as_ticks()
                    )));
                }
            }
            None => {
                let cert = certify_window_dp(
                    engine,
                    &window,
                    DelayBound {
                        delay: st.delay,
                        exact: st.exact,
                        nodes: 0,
                    },
                )?;
                seen_windows.insert(hash, (cert.claimed, cert.exact));
                bundle.windows.push(cert);
            }
        }
        steps.push(CertWcrtStep {
            window_len: st.window_len.as_ticks(),
            delay: st.delay.as_ticks(),
            exact: st.exact,
            window_hash: hash,
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulability::analyze_task_set;
    use crate::window::test_task;
    use pmcs_cert::check_certificate_set;
    use pmcs_model::TaskId;

    fn promoting_set() -> TaskSet {
        // From the schedulability tests: τ0's deadline tolerates one heavy
        // blocking interval but not two → the greedy loop promotes it.
        TaskSet::new(vec![
            {
                let t = test_task(0, 10, 2, 2, 10_000, 0, false);
                pmcs_model::Task::builder(t.id())
                    .exec(t.exec())
                    .copy_in(t.copy_in())
                    .copy_out(t.copy_out())
                    .sporadic(pmcs_model::Time::from_ticks(10_000))
                    .deadline(pmcs_model::Time::from_ticks(600))
                    .priority(t.priority())
                    .build()
                    .expect("valid task")
            },
            test_task(1, 300, 2, 2, 10_000, 1, false),
            test_task(2, 400, 2, 2, 10_000, 2, false),
        ])
        .expect("valid task set")
    }

    #[test]
    fn certified_report_matches_plain_analysis() {
        let set = promoting_set();
        let engine = ExactEngine::default();
        let (report, _) = certify_task_set(&set, &engine).expect("certification succeeds");
        let plain = analyze_task_set(&set, &engine).expect("analysis succeeds");
        assert_eq!(report, plain);
    }

    #[test]
    fn emitted_bundle_passes_the_independent_checker() {
        let set = promoting_set();
        let (_, bundle) =
            certify_task_set(&set, &ExactEngine::default()).expect("certification succeeds");
        assert!(!bundle.windows.is_empty());
        assert!(!bundle.wcrts.is_empty());
        let report = check_certificate_set(&bundle);
        assert!(report.ok(), "rejections: {:?}", report.rejections);
    }

    #[test]
    fn unschedulable_set_certifies_too() {
        let set = TaskSet::new(vec![
            test_task(0, 90, 5, 5, 100, 0, false),
            test_task(1, 90, 5, 5, 100, 1, false),
        ])
        .expect("valid task set");
        let (report, bundle) =
            certify_task_set(&set, &ExactEngine::default()).expect("certification succeeds");
        assert!(!report.schedulable());
        let sched = bundle.sched.as_ref().expect("set certificate present");
        assert!(!sched.schedulable);
        let check = check_certificate_set(&bundle);
        assert!(check.ok(), "rejections: {:?}", check.rejections);
    }

    #[test]
    fn emitted_bundles_are_byte_identical_across_runs() {
        let set = promoting_set();
        let emit = || {
            let (_, bundle) =
                certify_task_set(&set, &ExactEngine::default()).expect("certification succeeds");
            pmcs_cert::encode_certificate_set(&bundle)
        };
        let first = emit();
        for _ in 0..4 {
            assert_eq!(emit(), first);
        }
    }

    #[test]
    fn dp_certificate_round_trips_through_json() {
        let set = promoting_set();
        let (_, bundle) =
            certify_task_set(&set, &ExactEngine::default()).expect("certification succeeds");
        let encoded = pmcs_cert::encode_certificate_set(&bundle);
        let decoded = pmcs_cert::decode_certificate_set(&encoded).expect("decodes");
        let report = check_certificate_set(&decoded);
        assert!(report.ok(), "rejections: {:?}", report.rejections);
    }

    #[test]
    fn milp_certificate_carries_a_proof_tree() {
        let set = TaskSet::new(vec![
            test_task(0, 10, 2, 2, 1_000, 0, false),
            test_task(1, 20, 5, 5, 1_000, 1, false),
        ])
        .expect("valid task set");
        let w = WindowModel::build(
            &set,
            TaskId(1),
            WindowCase::Nls,
            pmcs_model::Time::from_ticks(10),
        )
        .expect("valid window");
        let exact = ExactEngine::default();
        let milp = MilpEngine::default();
        let bound = crate::wcrt::DelayEngine::max_total_delay(&exact, &w).expect("bound");
        assert!(bound.exact);
        let cert = certify_window_milp(&milp, &exact, &w, bound, &CertifyLimits::default())
            .expect("milp certification succeeds");
        assert!(matches!(cert.upper, UpperProof::BbTree { .. }));
        // Wrap it in a bundle and run the checker's window phase.
        let mut bundle = CertificateSet::new(cert_task_set_of(&set).expect("convertible"));
        bundle.windows.push(cert);
        let report = check_certificate_set(&bundle);
        assert!(report.ok(), "rejections: {:?}", report.rejections);
    }

    #[test]
    fn recording_solve_matches_production_bound() {
        let set = promoting_set();
        let engine = ExactEngine::default();
        for id in [0u32, 1, 2] {
            for case in [WindowCase::Nls, WindowCase::LsCaseA] {
                let w =
                    WindowModel::build(&set, TaskId(id), case, pmcs_model::Time::from_ticks(50))
                        .expect("valid window");
                let bound = crate::wcrt::DelayEngine::max_total_delay(&engine, &w).expect("bound");
                if bound.exact {
                    let cert = certify_window_dp(&engine, &w, bound).expect("certifiable");
                    assert_eq!(cert.claimed, bound.delay.as_ticks());
                }
            }
        }
    }
}
