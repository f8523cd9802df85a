//! A minimal work-queue thread pool on `std::thread::scope`.
//!
//! The container has no network access, so the usual data-parallelism
//! crates are off the table; the sweeps only need one primitive anyway:
//! *map an item list across `N` workers, preserving item order in the
//! output*. Work is distributed dynamically through a shared atomic
//! cursor, so a straggler item (an adversarial task set can cost 100× the
//! median) never idles the other workers, and results land in a
//! pre-sized slot vector so the output order is independent of scheduling.
//!
//! Determinism contract: the closure receives the item *index* and must
//! derive any randomness from it (see
//! [`derive_seed`](pmcs_workload::derive_seed)), never from worker
//! identity or call order. Under that contract the output is identical
//! for every thread count, which `tests/parallel_determinism.rs` checks
//! end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Maps `f` over `items` on `jobs` worker threads; `results[i]`
/// corresponds to `items[i]` regardless of which worker processed it.
///
/// `f` is called with `(item_index, &item)`.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, jobs, || (), |(), i, t| f(i, t)).0
}

/// [`parallel_map`] with per-worker state: `init` runs once on each
/// worker thread (e.g. to build an analysis context and scratch buffers)
/// and the final states are returned alongside the results, in no
/// particular order (e.g. to merge per-worker counters).
pub fn parallel_map_with<T, R, S, I, F>(items: &[T], jobs: usize, init: I, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let states: Mutex<Vec<S>> = Mutex::new(Vec::with_capacity(jobs));
    thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&mut state, i, &items[i]);
                    slots.lock().expect("no poisoned worker")[i] = Some(r);
                }
                states.lock().expect("no poisoned worker").push(state);
            });
        }
    });
    let results = slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect();
    (results, states.into_inner().expect("workers joined"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 8] {
            let out = parallel_map(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = parallel_map(&[1, 2], 16, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn worker_states_are_returned() {
        let items: Vec<usize> = (0..50).collect();
        let (out, states) = parallel_map_with(
            &items,
            4,
            || 0usize,
            |count, _, &x| {
                *count += 1;
                x
            },
        );
        assert_eq!(out, items);
        assert!(states.len() <= 4 && !states.is_empty());
        // Every item was processed by exactly one worker.
        assert_eq!(states.iter().sum::<usize>(), items.len());
    }
}
