//! Differential tests of the caching layer: a [`SharedCachedEngine`]
//! must be observationally equivalent to its inner engine (modulo the
//! `nodes` effort counter), window by window and over the whole greedy
//! analysis.

use std::sync::Arc;

use proptest::prelude::*;

use pmcs_core::cache::DEFAULT_CAPACITY;
use pmcs_core::schedulability::analyze_task_set;
use pmcs_core::{
    DelayEngine, ExactEngine, SharedCachedEngine, SharedDelayCache, WindowCase, WindowModel,
};
use pmcs_model::{Priority, Sensitivity, Task, TaskId, TaskSet, Time};

/// An exact engine behind its own one-shard cache.
fn cached_engine() -> SharedCachedEngine<ExactEngine> {
    SharedCachedEngine::new(
        ExactEngine::default(),
        Arc::new(SharedDelayCache::with_config(1, DEFAULT_CAPACITY)),
    )
}

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
    prop::collection::vec((1i64..=25, 0i64..=8, 50i64..=150, any::<bool>()), 2..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On randomized windows — LS markings included, so the key
    /// canonicalization is stressed — a cached engine agrees with its
    /// uncached inner engine, on the first call (cold) and the second
    /// (served from the cache).
    #[test]
    fn cached_engine_matches_inner_engine(
        params in params_strategy(),
        t in 1i64..=150,
        under in 0usize..5,
        case_a in any::<bool>(),
    ) {
        let under = (under % params.len()) as u32;
        let set = build_set(&params);
        let case = if case_a { WindowCase::LsCaseA } else { WindowCase::Nls };
        let w = WindowModel::build(&set, TaskId(under), case, Time::from_ticks(t)).unwrap();
        let plain = ExactEngine::default().max_total_delay(&w).unwrap();
        let cached = cached_engine();
        let cold = cached.max_total_delay(&w).unwrap();
        let warm = cached.max_total_delay(&w).unwrap();
        prop_assert_eq!(cold.delay, plain.delay);
        prop_assert_eq!(cold.exact, plain.exact);
        prop_assert_eq!(warm.delay, plain.delay);
        prop_assert_eq!(warm.exact, plain.exact);
        prop_assert!(cached.stats().hits >= 1);
    }

    /// The full greedy analysis is invariant under caching. (The vendored
    /// proptest seeds its cases from the test name, so the name stays.)
    #[test]
    fn analysis_is_invariant_under_caching_and_reuse(
        params in params_strategy(),
    ) {
        let set = build_set(&params);
        let plain = analyze_task_set(&set, &ExactEngine::default()).unwrap();
        let engine = cached_engine();
        let cached = analyze_task_set(&set, &engine).unwrap();
        prop_assert_eq!(&plain, &cached);
    }
}

/// One cheap deterministic case for the CI fast path (runs even when the
/// proptest cases are filtered out by name).
#[test]
fn cache_consistency_smoke() {
    let set = build_set(&[(10, 2, 100, false), (20, 4, 200, false), (15, 3, 150, true)]);
    let engine = cached_engine();
    let cold = analyze_task_set(&set, &engine).unwrap();
    let first = engine.stats();
    // The second pass re-solves every window of the first from the cache.
    let warm = analyze_task_set(&set, &engine).unwrap();
    let plain = analyze_task_set(&set, &ExactEngine::default()).unwrap();
    assert_eq!(cold, plain);
    assert_eq!(warm, plain);
    let second = engine.stats();
    assert_eq!(second.misses, first.misses, "{second}");
    assert_eq!(second.hits - first.hits, first.hits + first.misses);
}
