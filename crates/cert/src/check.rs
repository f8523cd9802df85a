//! The independent certificate checker.
//!
//! [`check_certificate_set`] re-evaluates every proof step of a
//! [`CertificateSet`] bottom-up — window claims first, then the
//! fixed-point replays that reference them, then the greedy-marking
//! replay that references those — sharing **no** code with the producing
//! analysis. Each rejected step yields a [`Rejection`] whose `code` is a
//! stable machine-readable identifier (e.g. `dp.bellman-mismatch`,
//! `wcrt.unproven-window`, `sched.unproven-task`) suitable for scripting
//! and CI assertions.

use std::collections::HashMap;

use crate::dp::{replay_witness, safe_cap, verify_dp_table, WindowSem};
use crate::types::{
    CertCase, CertTaskSet, CertWcrtStep, CertificateSet, DelayCertificate, SchedCertificate,
    UpperProof, WcrtCertificate, CERT_FORMAT_VERSION,
};
use crate::window::{build_window, ls_case_b};

/// Cap on fixed-point steps per task certificate (mirrors the producing
/// analyzer's iteration cap).
pub const MAX_WCRT_STEPS: usize = 512;

/// One rejected proof step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Stable machine-readable code, e.g. `dp.root-mismatch`.
    pub code: String,
    /// Human-readable detail naming the offending object.
    pub detail: String,
}

impl Rejection {
    fn from_message(context: &str, message: String) -> Rejection {
        // Checker-internal errors carry their code as a `code: detail`
        // prefix; split it off and scope the detail with the context.
        let (code, detail) = match message.split_once(": ") {
            Some((c, d)) => (c.to_string(), d.to_string()),
            None => ("cert.malformed".to_string(), message),
        };
        Rejection {
            code,
            detail: format!("{context}: {detail}"),
        }
    }

    fn new(code: &str, detail: String) -> Rejection {
        Rejection {
            code: code.to_string(),
            detail,
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// Outcome of checking one certificate bundle.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Certificates examined (windows + tasks + the set certificate).
    pub checked: usize,
    /// All rejections, in checking order.
    pub rejections: Vec<Rejection>,
}

impl CheckReport {
    /// `true` iff every certificate was accepted.
    pub fn ok(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// A window certificate accepted earlier in the same bundle.
struct AcceptedWindow {
    index: usize,
    claimed: i64,
    exact: bool,
}

/// An accepted task certificate, keyed by `(task, marking)`.
struct AcceptedWcrt {
    wcrt: i64,
    schedulable: bool,
}

/// Checks every certificate of a bundle; never panics on malformed
/// input — every defect becomes a [`Rejection`].
pub fn check_certificate_set(set: &CertificateSet) -> CheckReport {
    let mut report = CheckReport::default();
    if set.version != CERT_FORMAT_VERSION {
        report.rejections.push(Rejection::new(
            "format.version",
            format!(
                "bundle version {} but this checker implements {CERT_FORMAT_VERSION}",
                set.version
            ),
        ));
        return report;
    }
    if let Err(r) = check_task_set(&set.task_set) {
        report.rejections.push(r);
        return report;
    }

    // Phase 1: window-level certificates.
    let mut windows: HashMap<u64, AcceptedWindow> = HashMap::new();
    for (i, cert) in set.windows.iter().enumerate() {
        report.checked += 1;
        match check_window_cert(cert, i) {
            Ok(()) => {
                if windows
                    .insert(
                        cert.window_hash,
                        AcceptedWindow {
                            index: i,
                            claimed: cert.claimed,
                            exact: cert.exact,
                        },
                    )
                    .is_some()
                {
                    report.rejections.push(Rejection::new(
                        "window.duplicate",
                        format!(
                            "window certificate {i} repeats hash {:016x}",
                            cert.window_hash
                        ),
                    ));
                }
            }
            Err(r) => report.rejections.push(r),
        }
    }

    // Phase 2: task-level certificates, each replayed against accepted
    // windows only.
    let mut wcrts: HashMap<(u32, Vec<u32>), AcceptedWcrt> = HashMap::new();
    for (i, cert) in set.wcrts.iter().enumerate() {
        report.checked += 1;
        match check_wcrt_cert(set, &windows, cert, i) {
            Ok(()) => {
                if wcrts
                    .insert(
                        (cert.task, cert.marking.clone()),
                        AcceptedWcrt {
                            wcrt: cert.wcrt,
                            schedulable: cert.schedulable,
                        },
                    )
                    .is_some()
                {
                    report.rejections.push(Rejection::new(
                        "wcrt.duplicate",
                        format!("task certificate {i} repeats (task, marking)"),
                    ));
                }
            }
            Err(r) => report.rejections.push(r),
        }
    }

    // Phase 3: the set-level certificate, replayed against accepted task
    // certificates only.
    if let Some(sched) = &set.sched {
        report.checked += 1;
        if let Err(r) = check_sched_cert(&set.task_set, &wcrts, sched) {
            report.rejections.push(r);
        }
    }
    report
}

/// Structural validity of the task set itself: unique ids, strictly
/// decreasing priority order (the iteration order every window rebuild
/// depends on).
fn check_task_set(set: &CertTaskSet) -> Result<(), Rejection> {
    for pair in set.tasks.windows(2) {
        if pair[0].priority >= pair[1].priority {
            return Err(Rejection::new(
                "taskset.order",
                format!(
                    "tasks {} and {} are not in strictly decreasing priority order",
                    pair[0].id, pair[1].id
                ),
            ));
        }
    }
    for (i, t) in set.tasks.iter().enumerate() {
        if set.tasks[..i].iter().any(|u| u.id == t.id) {
            return Err(Rejection::new(
                "taskset.duplicate-id",
                format!("task id {} appears twice", t.id),
            ));
        }
        if t.exec < 0 || t.copy_in < 0 || t.copy_out < 0 || t.deadline < 0 {
            return Err(Rejection::new(
                "taskset.malformed",
                format!("task {} has a negative duration", t.id),
            ));
        }
    }
    Ok(())
}

fn check_window_cert(cert: &DelayCertificate, index: usize) -> Result<(), Rejection> {
    let ctx = format!("window certificate {index}");
    let actual_hash = cert.window.content_hash();
    if actual_hash != cert.window_hash {
        return Err(Rejection::new(
            "window.hash-mismatch",
            format!(
                "{ctx}: recorded hash {:016x} but content hashes to {actual_hash:016x}",
                cert.window_hash
            ),
        ));
    }
    let sem = WindowSem::new(&cert.window).map_err(|e| Rejection::from_message(&ctx, e))?;
    let claimed = i128::from(cert.claimed);

    if sem.n() < 2 {
        // Degenerate window: the value is a closed form; no witness or
        // upper-bound proof applies.
        if !cert.exact || claimed != sem.small_value() {
            return Err(Rejection::new(
                "delay.small-window-mismatch",
                format!(
                    "{ctx}: degenerate window is exactly {} but the certificate claims {} \
                     (exact={})",
                    sem.small_value(),
                    cert.claimed,
                    cert.exact
                ),
            ));
        }
        return Ok(());
    }

    // Upper bound: no legal placement exceeds the claim.
    match &cert.upper {
        UpperProof::DpTable(entries) => {
            if !cert.exact {
                return Err(Rejection::new(
                    "delay.exactness",
                    format!("{ctx}: a DP-table proof asserts exactness but exact=false"),
                ));
            }
            verify_dp_table(&sem, entries, claimed)
                .map_err(|e| Rejection::from_message(&ctx, e))?;
        }
        UpperProof::SafeCap => {
            if cert.exact {
                return Err(Rejection::new(
                    "delay.exactness",
                    format!("{ctx}: a safe-cap proof cannot assert exactness"),
                ));
            }
            let cap = safe_cap(&sem);
            if claimed < cap {
                return Err(Rejection::new(
                    "delay.cap-understates",
                    format!(
                        "{ctx}: claims {} below the recomputed safe cap {cap}",
                        cert.claimed
                    ),
                ));
            }
        }
    }

    // Lower bound: a concrete placement attains the claim (mandatory for
    // exact claims, optional sanity for inexact ones).
    match &cert.witness {
        Some(witness) => {
            let total =
                replay_witness(&sem, witness).map_err(|e| Rejection::from_message(&ctx, e))?;
            if cert.exact && total != claimed {
                return Err(Rejection::new(
                    "witness.value-mismatch",
                    format!(
                        "{ctx}: witness attains {total} but the exact claim is {}",
                        cert.claimed
                    ),
                ));
            }
            if total > claimed {
                return Err(Rejection::new(
                    "witness.exceeds-claim",
                    format!(
                        "{ctx}: witness attains {total}, refuting the claimed upper bound {}",
                        cert.claimed
                    ),
                ));
            }
        }
        None => {
            if cert.exact {
                return Err(Rejection::new(
                    "witness.missing",
                    format!("{ctx}: exact claims require a placement witness"),
                ));
            }
        }
    }
    Ok(())
}

/// Looks up one fixed-point step's window among the accepted window
/// certificates, insisting on *structural* equality with the rebuilt
/// window (the hash is only the lookup key).
fn resolve_step<'a>(
    set: &'a CertificateSet,
    windows: &HashMap<u64, AcceptedWindow>,
    rebuilt: &crate::types::CertWindow,
    step: &CertWcrtStep,
    ctx: &str,
    what: &str,
) -> Result<(&'a DelayCertificate, i64, bool), Rejection> {
    let hash = rebuilt.content_hash();
    if hash != step.window_hash {
        return Err(Rejection::new(
            "wcrt.window-hash-mismatch",
            format!(
                "{ctx}: {what} references window {:016x} but the rebuilt window hashes to \
                 {hash:016x}",
                step.window_hash
            ),
        ));
    }
    let accepted = windows.get(&hash).ok_or_else(|| {
        Rejection::new(
            "wcrt.unproven-window",
            format!("{ctx}: {what} references window {hash:016x} with no accepted certificate"),
        )
    })?;
    let cert = &set.windows[accepted.index];
    if cert.window != *rebuilt {
        return Err(Rejection::new(
            "wcrt.window-hash-mismatch",
            format!(
                "{ctx}: {what} window content differs from the rebuilt window (hash collision)"
            ),
        ));
    }
    Ok((cert, accepted.claimed, accepted.exact))
}

fn check_wcrt_cert(
    set: &CertificateSet,
    windows: &HashMap<u64, AcceptedWindow>,
    cert: &WcrtCertificate,
    index: usize,
) -> Result<(), Rejection> {
    let ctx = format!("task certificate {index} (τ{})", cert.task);
    let task = set
        .task_set
        .tasks
        .iter()
        .find(|t| t.id == cert.task)
        .ok_or_else(|| {
            Rejection::new("wcrt.unknown-task", format!("{ctx}: task not in the set"))
        })?;

    // The marking must be a sorted duplicate-free subset of the set.
    for pair in cert.marking.windows(2) {
        if pair[0] >= pair[1] {
            return Err(Rejection::new(
                "wcrt.bad-marking",
                format!("{ctx}: marking is not strictly sorted"),
            ));
        }
    }
    for &id in &cert.marking {
        if set.task_set.index_of(id).is_none() {
            return Err(Rejection::new(
                "wcrt.bad-marking",
                format!("{ctx}: marking names unknown task {id}"),
            ));
        }
    }
    let self_marked = cert.marking.contains(&cert.task);
    let expected_case = if self_marked {
        CertCase::LsCaseA
    } else {
        CertCase::Nls
    };
    if cert.case != expected_case {
        return Err(Rejection::new(
            "wcrt.case-mismatch",
            format!(
                "{ctx}: marking {} the task but the certificate uses the {:?} case",
                if self_marked { "includes" } else { "excludes" },
                cert.case
            ),
        ));
    }
    if cert.steps.len() > MAX_WCRT_STEPS {
        return Err(Rejection::new(
            "wcrt.too-many-steps",
            format!(
                "{ctx}: {} steps exceeds the iteration cap",
                cert.steps.len()
            ),
        ));
    }

    let deadline = i128::from(task.deadline);
    let base = i128::from(task.exec) + i128::from(task.copy_out);

    // LS case (b): closed form, checked against the checker's own
    // re-derivation over the zero-length window.
    let case_b: Option<i128> = if cert.case == CertCase::LsCaseA {
        let w0 = build_window(
            &set.task_set,
            cert.task,
            &cert.marking,
            CertCase::LsCaseA,
            0,
        )
        .map_err(|e| Rejection::from_message(&ctx, e))?;
        let recomputed = i128::from(ls_case_b(&w0));
        match cert.case_b {
            Some(claimed) if i128::from(claimed) == recomputed => Some(recomputed),
            Some(claimed) => {
                return Err(Rejection::new(
                    "wcrt.case-b-mismatch",
                    format!(
                        "{ctx}: case (b) recomputes to {recomputed}, certificate says {claimed}"
                    ),
                ))
            }
            None => {
                return Err(Rejection::new(
                    "wcrt.case-b-mismatch",
                    format!("{ctx}: LS certificate lacks the case (b) response"),
                ))
            }
        }
    } else {
        if cert.case_b.is_some() {
            return Err(Rejection::new(
                "wcrt.case-mismatch",
                format!("{ctx}: NLS certificate carries a case (b) response"),
            ));
        }
        None
    };

    // LS short-circuit: case (b) alone exceeds the deadline.
    if let Some(cb) = case_b {
        if cb > deadline {
            if !cert.steps.is_empty() {
                return Err(Rejection::new(
                    "wcrt.verdict-mismatch",
                    format!("{ctx}: case (b) misses the deadline; no fixed point should follow"),
                ));
            }
            return finish_verdict(&ctx, cert, cb, deadline);
        }
    }

    // Fixed-point replay: start at the interference-free response and
    // re-derive every step's window from scratch.
    if cert.steps.is_empty() {
        return Err(Rejection::new(
            "wcrt.no-steps",
            format!("{ctx}: fixed-point certificate has no steps"),
        ));
    }
    let mut response = i128::from(task.copy_in) + base;
    let mut resolved: Option<i128> = None;
    for (s, step) in cert.steps.iter().enumerate() {
        if resolved.is_some() {
            return Err(Rejection::new(
                "wcrt.incomplete-iteration",
                format!("{ctx}: steps continue past the fixed point at step {s}"),
            ));
        }
        let expected_len = response - base;
        if i128::from(step.window_len) != expected_len {
            return Err(Rejection::new(
                "wcrt.window-len-mismatch",
                format!(
                    "{ctx}: step {s} uses window length {} but the iteration is at {expected_len}",
                    step.window_len
                ),
            ));
        }
        let rebuilt = build_window(
            &set.task_set,
            cert.task,
            &cert.marking,
            cert.case,
            step.window_len,
        )
        .map_err(|e| Rejection::from_message(&ctx, e))?;
        let what = format!("step {s}");
        let (_, claimed, exact) = resolve_step(set, windows, &rebuilt, step, &ctx, &what)?;
        if claimed != step.delay || exact != step.exact {
            return Err(Rejection::new(
                "wcrt.step-mismatch",
                format!(
                    "{ctx}: step {s} records delay {} (exact={}) but the window certificate \
                     proves {claimed} (exact={exact})",
                    step.delay, step.exact
                ),
            ));
        }
        let next = i128::from(step.delay) + i128::from(task.copy_out);
        if next > deadline {
            resolved = Some(next);
        } else if next <= response {
            resolved = Some(response);
        } else {
            response = next;
        }
    }
    let response = resolved.ok_or_else(|| {
        Rejection::new(
            "wcrt.incomplete-iteration",
            format!("{ctx}: steps end before reaching a fixed point or deadline miss"),
        )
    })?;
    let wcrt = match case_b {
        Some(cb) => response.max(cb),
        None => response,
    };
    finish_verdict(&ctx, cert, wcrt, deadline)
}

fn finish_verdict(
    ctx: &str,
    cert: &WcrtCertificate,
    wcrt: i128,
    deadline: i128,
) -> Result<(), Rejection> {
    let schedulable = wcrt <= deadline;
    if i128::from(cert.wcrt) != wcrt || cert.schedulable != schedulable {
        return Err(Rejection::new(
            "wcrt.verdict-mismatch",
            format!(
                "{ctx}: replay derives wcrt {wcrt} (schedulable={schedulable}) but the \
                 certificate claims {} (schedulable={})",
                cert.wcrt, cert.schedulable
            ),
        ));
    }
    Ok(())
}

fn check_sched_cert(
    task_set: &CertTaskSet,
    wcrts: &HashMap<(u32, Vec<u32>), AcceptedWcrt>,
    cert: &SchedCertificate,
) -> Result<(), Rejection> {
    let ctx = "set certificate";
    if cert.rounds.len() != cert.promoted.len() + 1 {
        return Err(Rejection::new(
            "sched.round-count",
            format!(
                "{ctx}: {} rounds for {} promotions (must be promotions + 1)",
                cert.rounds.len(),
                cert.promoted.len()
            ),
        ));
    }
    for (i, &p) in cert.promoted.iter().enumerate() {
        if task_set.index_of(p).is_none() || cert.promoted[..i].contains(&p) {
            return Err(Rejection::new(
                "sched.bad-promotion",
                format!("{ctx}: promotion {i} names an unknown or repeated task {p}"),
            ));
        }
    }

    let last = cert.rounds.len() - 1;
    for (r, round) in cert.rounds.iter().enumerate() {
        let mut marking: Vec<u32> = cert.promoted[..r].to_vec();
        marking.sort_unstable();
        for (i, entry) in round.entries.iter().enumerate() {
            // Entries must follow the set's priority order as a prefix.
            let expected = task_set.tasks.get(i).map(|t| t.id);
            if expected != Some(entry.task) {
                return Err(Rejection::new(
                    "sched.order",
                    format!(
                        "{ctx}: round {r} entry {i} is τ{} but priority order expects {:?}",
                        entry.task, expected
                    ),
                ));
            }
            let proof = wcrts.get(&(entry.task, marking.clone())).ok_or_else(|| {
                Rejection::new(
                    "sched.unproven-task",
                    format!(
                        "{ctx}: round {r} has no accepted certificate for τ{} under \
                         marking {:?}",
                        entry.task, marking
                    ),
                )
            })?;
            if proof.wcrt != entry.wcrt || proof.schedulable != entry.schedulable {
                return Err(Rejection::new(
                    "sched.entry-mismatch",
                    format!(
                        "{ctx}: round {r} records wcrt {} for τ{} but its certificate \
                         proves {}",
                        entry.wcrt, entry.task, proof.wcrt
                    ),
                ));
            }
        }

        let first_miss = round.entries.iter().position(|e| !e.schedulable);
        if r < last {
            // Non-final round: the scan stops at the first NLS miss,
            // which becomes the round's promotion.
            match first_miss {
                Some(i)
                    if i == round.entries.len() - 1
                        && round.entries[i].task == cert.promoted[r]
                        && !marking.contains(&round.entries[i].task) => {}
                _ => {
                    return Err(Rejection::new(
                        "sched.promotion-mismatch",
                        format!(
                            "{ctx}: round {r} must end at exactly one NLS miss of τ{}",
                            cert.promoted[r]
                        ),
                    ))
                }
            }
        } else {
            // Final round: a full scan. Either all tasks pass, or the
            // first miss is an already-LS task (no promotion possible).
            if round.entries.len() != task_set.tasks.len() {
                return Err(Rejection::new(
                    "sched.final-mismatch",
                    format!(
                        "{ctx}: final round covers {} of {} tasks",
                        round.entries.len(),
                        task_set.tasks.len()
                    ),
                ));
            }
            let verdict = match first_miss {
                None => true,
                Some(i) => {
                    if !marking.contains(&round.entries[i].task) {
                        return Err(Rejection::new(
                            "sched.final-mismatch",
                            format!(
                                "{ctx}: final round's first miss τ{} is NLS — a promotion \
                                 was still possible",
                                round.entries[i].task
                            ),
                        ));
                    }
                    false
                }
            };
            if verdict != cert.schedulable {
                return Err(Rejection::new(
                    "sched.verdict-mismatch",
                    format!(
                        "{ctx}: replay derives schedulable={verdict} but the certificate \
                         claims {}",
                        cert.schedulable
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CertChoice;
    use crate::types::{
        CertArrival, CertRound, CertRoundEntry, CertTask, DelayCertificate, DpEntry, UpperProof,
        WcrtCertificate,
    };

    fn one_task_set() -> CertTaskSet {
        CertTaskSet {
            tasks: vec![CertTask {
                id: 0,
                exec: 10,
                copy_in: 3,
                copy_out: 2,
                deadline: 100,
                priority: 0,
                arrival: CertArrival::Sporadic {
                    min_inter_arrival: 100,
                },
            }],
        }
    }

    /// Hand-built, fully valid bundle for the singleton set: one window
    /// (N = 2, optimum 15), one NLS fixed point converging in two steps,
    /// and a one-round set certificate.
    fn singleton_bundle() -> CertificateSet {
        let task_set = one_task_set();
        let window = build_window(&task_set, 0, &[], CertCase::Nls, 3).expect("valid window");
        let hash = window.content_hash();
        let delay_cert = DelayCertificate {
            window: window.clone(),
            window_hash: hash,
            claimed: 15,
            exact: true,
            witness: Some(vec![CertChoice::Idle]),
            upper: UpperProof::DpTable(vec![DpEntry {
                k: 0,
                budgets: vec![],
                terms: [10, 13, 10, 13],
            }]),
        };
        // The window is length-independent here (no competitors), so both
        // fixed-point steps resolve to the same content hash.
        let wcrt = WcrtCertificate {
            task: 0,
            marking: vec![],
            case: CertCase::Nls,
            steps: vec![
                CertWcrtStep {
                    window_len: 3,
                    delay: 15,
                    exact: true,
                    window_hash: hash,
                },
                CertWcrtStep {
                    window_len: 5,
                    delay: 15,
                    exact: true,
                    window_hash: hash,
                },
            ],
            case_b: None,
            wcrt: 17,
            schedulable: true,
        };
        let sched = SchedCertificate {
            rounds: vec![CertRound {
                entries: vec![CertRoundEntry {
                    task: 0,
                    wcrt: 17,
                    schedulable: true,
                }],
            }],
            promoted: vec![],
            schedulable: true,
        };
        let mut bundle = CertificateSet::new(task_set);
        bundle.windows.push(delay_cert);
        bundle.wcrts.push(wcrt);
        bundle.sched = Some(sched);
        bundle
    }

    #[test]
    fn singleton_bundle_checks_clean() {
        let report = check_certificate_set(&singleton_bundle());
        assert!(report.ok(), "rejections: {:?}", report.rejections);
        assert_eq!(report.checked, 3);
    }

    #[test]
    fn window_hash_mismatch_rejected() {
        let mut bundle = singleton_bundle();
        bundle.windows[0].window_hash ^= 1;
        let report = check_certificate_set(&bundle);
        assert!(report
            .rejections
            .iter()
            .any(|r| r.code == "window.hash-mismatch"));
    }

    #[test]
    fn corrupted_witness_rejected() {
        let mut bundle = singleton_bundle();
        // An out-of-range run choice in the witness.
        bundle.windows[0].witness = Some(vec![CertChoice::Run {
            task: 5,
            urgent: false,
        }]);
        let report = check_certificate_set(&bundle);
        assert!(
            report
                .rejections
                .iter()
                .any(|r| r.code.starts_with("witness.")),
            "{:?}",
            report.rejections
        );
    }

    #[test]
    fn wrong_claim_rejected_via_bellman() {
        let mut bundle = singleton_bundle();
        bundle.windows[0].claimed = 16;
        let report = check_certificate_set(&bundle);
        assert!(report
            .rejections
            .iter()
            .any(|r| r.code.starts_with("dp.") || r.code.starts_with("witness.")));
    }

    #[test]
    fn unproven_window_rejected() {
        let mut bundle = singleton_bundle();
        bundle.windows.clear();
        let report = check_certificate_set(&bundle);
        assert!(report
            .rejections
            .iter()
            .any(|r| r.code == "wcrt.unproven-window"));
    }

    #[test]
    fn wcrt_verdict_mismatch_rejected() {
        let mut bundle = singleton_bundle();
        bundle.wcrts[0].wcrt = 16;
        let report = check_certificate_set(&bundle);
        assert!(report
            .rejections
            .iter()
            .any(|r| r.code == "wcrt.verdict-mismatch"));
    }

    #[test]
    fn sched_without_proof_rejected() {
        let mut bundle = singleton_bundle();
        bundle.wcrts.clear();
        let report = check_certificate_set(&bundle);
        assert!(report
            .rejections
            .iter()
            .any(|r| r.code == "sched.unproven-task"));
    }

    #[test]
    fn version_gate() {
        let mut bundle = singleton_bundle();
        bundle.version = 99;
        let report = check_certificate_set(&bundle);
        assert_eq!(report.rejections[0].code, "format.version");
    }

    /// A version-1 bundle whose round entry claims a verdict reused
    /// across rounds (`"fresh":false`) still decodes — unknown members
    /// are ignored — and is rejected by its version, not misread.
    #[test]
    fn v1_and_v2_bundles_are_rejected_by_version() {
        let v3 = crate::encode_certificate_set(&singleton_bundle());
        let entry = r#"{"task":0,"wcrt":17,"schedulable":true}"#;
        assert!(v3.starts_with(r#"{"version":3,"#) && v3.contains(entry));
        let v1 = v3.replacen(r#""version":3"#, r#""version":1"#, 1).replacen(
            entry,
            r#"{"task":0,"wcrt":17,"schedulable":true,"fresh":false}"#,
            1,
        );
        // A v2 bundle keyed its DP states by (prev, prev2) as well.
        let v2 = v3.replacen(r#""version":3"#, r#""version":2"#, 1);
        for old in [v1, v2] {
            let decoded = crate::decode_certificate_set(&old).expect("old bundle decodes");
            let report = check_certificate_set(&decoded);
            let codes: Vec<&str> = report.rejections.iter().map(|r| r.code.as_str()).collect();
            assert_eq!(codes, ["format.version"]);
        }
    }
}
