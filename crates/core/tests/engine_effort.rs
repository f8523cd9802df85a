//! Deterministic effort guard for the exact engine's carried memo.
//!
//! The WCRT fixed point re-solves a task's window with budgets that only
//! grow, and one long-lived [`ExactEngine`] keeps the memo of the previous
//! solve of the same window shape. On a fixed, seeded list of sweep-grid
//! sets (the Figure 2 a–b grid at n = 5, U ≤ 0.25) this test analyzes
//! every set twice behind a shared window cache: once with one long-lived
//! engine, once with a fresh engine per solve. The reports must be equal,
//! and the long-lived engine must expand at most [`MAX_NODE_RATIO`] of the
//! fresh engines' DP nodes. Both node totals are pinned exactly: a change
//! to how the memo is stored must not change what the search visits.

use std::cell::Cell;
use std::sync::Arc;

use pmcs_core::wcrt::DelayBound;
use pmcs_core::{
    analyze_task_set, CoreError, DelayEngine, ExactEngine, SharedCachedEngine, SharedDelayCache,
    WindowModel,
};
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};

/// Sets analyzed (kept small so the test stays fast in a debug build).
const SETS: usize = 120;
const SEED: u64 = 1;
/// Largest accepted ratio of long-lived to fresh DP nodes (0.736 on these
/// sets).
const MAX_NODE_RATIO: f64 = 0.8;
/// DP visits of the long-lived engine and of the fresh engines on these
/// sets.
const LONG_LIVED_NODES: u64 = 121_076;
const FRESH_NODES: u64 = 164_423;

/// The Figure 2 a–b grid at n = 5 and U = 0.05 … 0.25.
fn grid() -> Vec<TaskSetConfig> {
    [0.1, 0.3]
        .into_iter()
        .flat_map(|gamma| {
            (1..=5).map(move |i| TaskSetConfig {
                n: 5,
                utilization: i as f64 * 0.05,
                gamma,
                beta: 0.4,
                ..TaskSetConfig::default()
            })
        })
        .collect()
}

/// Sums the DP nodes of the solves that reach it.
struct Counted<E> {
    inner: E,
    nodes: Cell<u64>,
}

impl<E: DelayEngine> DelayEngine for Counted<E> {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        let b = self.inner.max_total_delay(w)?;
        self.nodes.set(self.nodes.get() + b.nodes);
        Ok(b)
    }
}

/// A fresh engine per solve: no memo survives from one call to the next.
struct FreshPerCall;

impl DelayEngine for FreshPerCall {
    fn max_total_delay(&self, w: &WindowModel) -> Result<DelayBound, CoreError> {
        ExactEngine::default().max_total_delay(w)
    }
}

fn cached<E: DelayEngine>(inner: E) -> SharedCachedEngine<Counted<E>> {
    SharedCachedEngine::new(
        Counted {
            inner,
            nodes: Cell::new(0),
        },
        Arc::new(SharedDelayCache::default()),
    )
}

#[test]
fn long_lived_engine_saves_dp_nodes_with_equal_reports() {
    let grid = grid();
    let long_lived = cached(ExactEngine::default());
    let fresh = cached(FreshPerCall);
    for k in 0..SETS {
        let point = k % grid.len();
        let set = TaskSetGenerator::new(
            grid[point].clone(),
            derive_seed(SEED, point as u64, (k / grid.len()) as u64),
        )
        .generate();
        let a = analyze_task_set(&set, &long_lived).expect("analysis succeeds");
        let b = analyze_task_set(&set, &fresh).expect("analysis succeeds");
        assert_eq!(a, b, "set {k}: reports differ");
    }
    let warm = long_lived.inner().nodes.get();
    let cold = fresh.inner().nodes.get();
    assert_eq!(
        long_lived.inner().inner.solver_stats().fallbacks,
        0,
        "the grid never exhausts the default budget"
    );
    assert_eq!((warm, cold), (LONG_LIVED_NODES, FRESH_NODES));
    let ratio = warm as f64 / cold as f64;
    assert!(
        ratio <= MAX_NODE_RATIO,
        "long-lived engine expanded {warm} nodes vs {cold} fresh (ratio {ratio:.3})"
    );
}
