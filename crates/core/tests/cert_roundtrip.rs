//! Certificate round-trip properties: emit → serialize → parse → check
//! must accept, for random windows and full task-set bundles — plus the
//! canonical negative paths, each rejected with its stable
//! machine-readable code.
//!
//! These tests live in `pmcs-core` (not `pmcs-cert`) because emission
//! needs the engines; the checker itself stays engine-free.

use proptest::prelude::*;

use pmcs_cert::{
    check_certificate_set, corrupt, decode_certificate_set, encode_certificate_set, CertificateSet,
    UpperProof,
};
use pmcs_core::certify::cert_task_set_of;
use pmcs_core::{
    certify_task_set, certify_window_dp, DelayEngine, ExactEngine, WindowCase, WindowModel,
};
use pmcs_model::{Priority, Sensitivity, Task, TaskId, TaskSet, Time};

fn build_set(params: &[(i64, i64, i64, bool)]) -> TaskSet {
    let tasks: Vec<Task> = params
        .iter()
        .enumerate()
        .map(|(i, &(c, m, t, ls))| {
            Task::builder(TaskId(i as u32))
                .exec(Time::from_ticks(c))
                .copy_in(Time::from_ticks(m))
                .copy_out(Time::from_ticks(m))
                .sporadic(Time::from_ticks(t))
                .deadline(Time::from_ticks(t))
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

fn params_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64, bool)>> {
    prop::collection::vec((1i64..=20, 0i64..=6, 40i64..=120, any::<bool>()), 2..=4)
}

/// Serialize → parse → re-serialize → check; the wire form must be
/// stable and the parsed bundle must pass the independent checker.
fn assert_roundtrip_accepted(bundle: &CertificateSet, label: &str) {
    let text = encode_certificate_set(bundle);
    let decoded = decode_certificate_set(&text).expect("decode emitted bundle");
    assert_eq!(
        encode_certificate_set(&decoded),
        text,
        "{label}: re-encoding the parsed bundle changed the wire form"
    );
    let report = check_certificate_set(&decoded);
    assert!(
        report.ok(),
        "{label}: checker rejected a freshly emitted bundle: {:?}",
        report.rejections
    );
    assert!(report.checked > 0, "{label}: nothing was checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DP-backed window certificates survive the full round trip.
    #[test]
    fn dp_window_certs_roundtrip(params in params_strategy(), t in 5i64..=80) {
        let set = build_set(&params);
        let engine = ExactEngine::default();
        let mut bundle = CertificateSet::new(cert_task_set_of(&set).expect("encodable set"));
        let mut seen = std::collections::HashSet::new();
        for task in set.iter() {
            let w = WindowModel::build(&set, task.id(), WindowCase::Nls, Time::from_ticks(t))
                .expect("window");
            let bound = engine.max_total_delay(&w).expect("bound");
            let cert = certify_window_dp(&engine, &w, bound).expect("certify");
            if seen.insert(cert.window_hash) {
                bundle.windows.push(cert);
            }
        }
        assert_roundtrip_accepted(&bundle, "dp");
    }

    /// Full-pipeline bundles (windows + WCRT fixed points + LS-marking
    /// transcript) survive the round trip.
    #[test]
    fn full_bundles_roundtrip(params in params_strategy()) {
        let set = build_set(&params);
        let (_, bundle) = certify_task_set(&set, &ExactEngine::default()).expect("certify set");
        assert_roundtrip_accepted(&bundle, "full");
    }
}

/// A fixed set whose full-pipeline bundle has DP tables and witnesses —
/// raw material for the corruption tests.
fn corruptible_bundle() -> CertificateSet {
    let set = build_set(&[(8, 2, 60, false), (6, 3, 80, false), (10, 1, 100, true)]);
    let (_, bundle) = certify_task_set(&set, &ExactEngine::default()).expect("certify set");
    bundle
}

#[test]
fn corrupted_witness_is_rejected_with_stable_code() {
    let mut bundle = corruptible_bundle();
    corrupt::corrupt_witness(&mut bundle).expect("bundle has a witness");
    // The corruption must survive serialization too: check the parsed form.
    let decoded = decode_certificate_set(&encode_certificate_set(&bundle)).expect("decode");
    let report = check_certificate_set(&decoded);
    assert!(!report.ok());
    assert!(
        report.rejections.iter().any(|r| r.code == "witness.length"),
        "expected witness.length, got {:?}",
        report.rejections
    );
}

#[test]
fn unsound_dominance_is_rejected_with_stable_code() {
    let mut bundle = corruptible_bundle();
    corrupt::corrupt_dominance(&mut bundle).expect("bundle has a DP table");
    let decoded = decode_certificate_set(&encode_certificate_set(&bundle)).expect("decode");
    let report = check_certificate_set(&decoded);
    assert!(!report.ok());
    assert!(
        report
            .rejections
            .iter()
            .any(|r| r.code == "dp.bellman-mismatch"),
        "expected dp.bellman-mismatch, got {:?}",
        report.rejections
    );
}

/// A window whose packed production memo key would need 143 bits: two
/// higher-priority tasks with two jobs each and 120 distinct
/// lower-priority competitors (`N = 7`). Production solves it exactly
/// without a memo; the recorder keeps an explicit state map with no
/// width limit, so the window is still certified state by state.
#[test]
fn window_beyond_the_packed_key_is_certified() {
    let mut params = vec![(4, 2, 100, false), (5, 3, 100, false), (6, 1, 1_000, false)];
    params.extend((0..120).map(|j| (7 + j, 1 + j % 3, 1_000, false)));
    let set = build_set(&params);
    let w =
        WindowModel::build(&set, TaskId(2), WindowCase::Nls, Time::from_ticks(10)).expect("window");
    assert_eq!((w.n(), w.tasks.len()), (7, 122));
    let engine = ExactEngine::default();
    let bound = engine.max_total_delay(&w).expect("bound");
    assert!(bound.exact, "production must solve the window exactly");
    let cert = certify_window_dp(&engine, &w, bound).expect("certify");
    assert!(matches!(cert.upper, UpperProof::DpTable(_)));
    let mut bundle = CertificateSet::new(cert_task_set_of(&set).expect("encodable set"));
    bundle.windows.push(cert);
    let report = check_certificate_set(&bundle);
    assert!(report.ok(), "rejections: {:?}", report.rejections);
}

/// The fallback cap of a starved engine, pinned on fixed windows (the
/// cap is computed at the root only), and accepted by the checker's own
/// re-derivation as a `SafeCap` certificate.
#[test]
fn fallback_caps_are_pinned_and_certified() {
    let set = build_set(&[
        (12, 4, 60, true),
        (25, 9, 90, false),
        (7, 1, 45, true),
        (500, 2, 1_000, false),
    ]);
    let starved = ExactEngine::with_max_states(1);
    let mut bundle = CertificateSet::new(cert_task_set_of(&set).expect("encodable set"));
    for (task, case, t, cap) in [
        (3, WindowCase::Nls, 80, 700),
        (1, WindowCase::LsCaseA, 30, 620),
        (2, WindowCase::Nls, 120, 767),
    ] {
        let w = WindowModel::build(&set, TaskId(task), case, Time::from_ticks(t)).expect("window");
        let bound = starved.max_total_delay(&w).expect("bound");
        assert!(
            !bound.exact,
            "τ{task} {case:?} t={t} must exhaust the budget"
        );
        assert_eq!(bound.delay.as_ticks(), cap, "τ{task} {case:?} t={t}");
        let cert = certify_window_dp(&starved, &w, bound).expect("certify");
        assert!(matches!(cert.upper, UpperProof::SafeCap));
        bundle.windows.push(cert);
    }
    let report = check_certificate_set(&bundle);
    assert!(report.ok(), "rejections: {:?}", report.rejections);
}
