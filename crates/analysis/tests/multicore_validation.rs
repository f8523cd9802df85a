//! Integration tests for the multi-core contention layer: degeneracy
//! differentials (contention-free and `M = 1` platforms are
//! byte-identical to the legacy single-core path, down to DP effort
//! counters and certificates), zero-refutation cross-validation of a
//! regulated two-core platform, a negative test
//! showing the arbiter refutes a deliberately weakened inflation
//! bound, and a property test that simulated bus service times never
//! exceed the analytical inflation.

use proptest::prelude::*;

use pmcs_analysis::{
    cross_validate_platform, refute_bus_bounds, AnalysisConfig, AnalysisContext, Analyzer,
    ContentionAware, ProposedAnalyzer, RefutationKind,
};
use pmcs_cert::{encode_certificate_set, CertificateSet, UpperProof};
use pmcs_core::{certify_task_set, ExactEngine, Inflation};
use pmcs_model::{BusModel, CoreId, Phase, Platform, TaskId, TaskSet, Time};
use pmcs_sim::bus::TransferReq;
use pmcs_workload::{adversarial_specs, TaskSetConfig, TaskSetGenerator};

/// A light, memory-moderate workload in the fine-grained regulation
/// regime (small copies relative to a 200-tick bus period).
fn light_set(seed: u64) -> TaskSet {
    TaskSetGenerator::new(
        TaskSetConfig {
            n: 3,
            utilization: 0.25,
            gamma: 0.15,
            ..TaskSetConfig::default()
        },
        seed,
    )
    .generate()
}

/// Encodes a certificate bundle with every DP memo table in a canonical
/// order. The emitter dumps memo tables in `HashMap` iteration order,
/// which varies run to run; the checker is order-insensitive, so the
/// byte-identity claim is up to that permutation.
fn canonical_certs(mut certs: CertificateSet) -> String {
    for w in &mut certs.windows {
        if let UpperProof::DpTable(entries) = &mut w.upper {
            entries.sort_by_key(|e| format!("{e:?}"));
        }
    }
    encode_certificate_set(&certs)
}

/// Asserts that analyzing `set` through a [`ContentionAware`] decorator
/// over `bus` is indistinguishable from the undecorated analyzer: same
/// approach name, byte-identical report, identical DP effort from fresh
/// contexts, and an identical certificate bundle.
fn assert_degenerate(set: &TaskSet, bus: &BusModel) {
    let inflation = Inflation::for_core(bus, CoreId(0));
    assert!(inflation.is_identity(), "expected a degenerate platform");

    let cfg = AnalysisConfig::default();
    let plain_ctx = AnalysisContext::new(&cfg);
    let plain = ProposedAnalyzer
        .analyze_with(set, &plain_ctx)
        .expect("plain analysis");

    let decorated = ContentionAware::for_core(ProposedAnalyzer, bus, CoreId(0));
    assert_eq!(decorated.name(), "proposed", "identity decorator renames");
    let wrapped_ctx = AnalysisContext::new(&cfg);
    let wrapped = decorated
        .analyze_with(set, &wrapped_ctx)
        .expect("decorated analysis");

    assert_eq!(plain, wrapped, "identity decorator changed the report");
    assert_eq!(
        plain_ctx.solver_stats(),
        wrapped_ctx.solver_stats(),
        "identity decorator changed the DP effort"
    );

    // The inflated set is the same set, so its certificate bundle must
    // encode byte-for-byte identically.
    let engine = ExactEngine::default();
    let (_, plain_certs) = certify_task_set(set, &engine).expect("plain certificates");
    let inflated = inflation.inflate_set(set).expect("identity inflation");
    assert_eq!(&inflated, set, "identity inflation changed the set");
    let (_, wrapped_certs) = certify_task_set(&inflated, &engine).expect("wrapped certificates");
    assert_eq!(
        canonical_certs(plain_certs),
        canonical_certs(wrapped_certs),
        "identity decorator changed the certificates"
    );
}

#[test]
fn contention_free_platform_matches_the_legacy_path() {
    assert_degenerate(&light_set(11), &BusModel::contention_free());
}

#[test]
fn single_core_regulated_platform_matches_the_legacy_path() {
    // A lone regulated core has no rivals: σ = 0, identity inflation.
    let bus =
        BusModel::regulated(Time::from_ticks(200), vec![Time::from_ticks(100)]).expect("Q ≤ P");
    assert!(!bus.is_contended());
    assert_degenerate(&light_set(12), &bus);
}

/// Builds a regulated two-core platform in the schedulable regime.
fn two_core_platform() -> Platform {
    let bus = BusModel::uniform(Time::from_ticks(200), 2, Time::from_ticks(100)).expect("ΣQ = P");
    Platform::builder()
        .core(light_set(2))
        .core(light_set(102))
        .bus(bus)
        .build()
        .expect("two-core platform")
}

#[test]
fn two_core_cross_validation_is_clean() {
    let platform = two_core_platform();
    let ctx = AnalysisContext::new(&AnalysisConfig::default());
    let pv = cross_validate_platform(&platform, "proposed", 2, 0x5eed_0001, &ctx)
        .expect("platform validation");
    assert!(
        pv.schedulable(),
        "inflated sets should be schedulable in this regime"
    );
    assert!(pv.transfers_checked > 0, "the bus layer never ran");
    assert!(pv.clean(), "refutations: {:?}", pv.refutations());
}

/// Two starved cores colliding on the bus: the hard-regulation arbiter
/// must refute the raw-demand bound (which pretends contention away)
/// while the analytical inflation survives the very same trace.
#[test]
fn weakened_identity_bound_is_refuted_where_inflation_is_not() {
    let bus = BusModel::uniform(Time::from_ticks(10), 2, Time::from_ticks(2)).expect("ΣQ ≤ P");
    let spec = adversarial_specs(1, 0xbad_b0a7)[0];
    let requests: Vec<TransferReq> = (0..2)
        .map(|core| TransferReq {
            core: CoreId(core),
            task: TaskId(core),
            phase: Phase::CopyIn,
            release: Time::ZERO,
            demand: Time::from_ticks(6),
        })
        .collect();

    // Weakened bound: raw demand, as if each core owned the bus.
    let weakened = refute_bus_bounds(&bus, &requests, &|_, d| d, "proposed", spec);
    assert_eq!(
        weakened.len(),
        2,
        "every starved transfer must overrun the contention-blind bound"
    );
    for r in &weakened {
        assert!(
            matches!(r.kind, RefutationKind::BusOverrun { observed, bound, .. }
                if observed > bound),
            "unexpected refutation: {r:?}"
        );
    }

    // The analytical inflation over-covers the same trace.
    let sound = refute_bus_bounds(
        &bus,
        &requests,
        &|core, d| Inflation::for_core(&bus, core).inflate(d).unwrap(),
        "proposed",
        spec,
    );
    assert!(sound.is_empty(), "sound bound refuted: {sound:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multi-core transfer streams through the hard-regulation
    /// arbiter never observe a service time above the analytical
    /// inflation — the soundness contract the bus layer of
    /// [`cross_validate_platform`] enforces on real traces.
    #[test]
    fn arbiter_service_times_never_exceed_the_inflation(
        p in 4i64..=60,
        cores in 2usize..=4,
        q in 1i64..=30,
        reqs in prop::collection::vec((0usize..4, 0i64..200, 1i64..40, any::<bool>()), 1..24),
    ) {
        let q = q.clamp(1, (p / cores as i64).max(1));
        let bus = BusModel::uniform(Time::from_ticks(p), cores, Time::from_ticks(q))
            .expect("ΣQ ≤ P by clamping");
        let requests: Vec<TransferReq> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(core, release, demand, out))| TransferReq {
                core: CoreId((core % cores) as u32),
                task: TaskId(i as u32),
                phase: if out { Phase::CopyOut } else { Phase::CopyIn },
                release: Time::from_ticks(release),
                demand: Time::from_ticks(demand),
            })
            .collect();
        let spec = adversarial_specs(1, 0x51_5eed)[0];
        let overruns = refute_bus_bounds(
            &bus,
            &requests,
            &|core, d| Inflation::for_core(&bus, core).inflate(d).unwrap(),
            "proposed",
            spec,
        );
        prop_assert!(overruns.is_empty(), "inflation refuted: {:?}", overruns);
    }
}
