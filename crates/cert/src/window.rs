//! Independent re-derivation of analysis windows from first principles.
//!
//! This module re-implements — from the paper, not from `pmcs-core` —
//! the arrival curve η, the window construction of Theorem 1 /
//! Corollary 1 and the LS case (b) closed form. A [`WcrtCertificate`]
//! does not get to *describe* its windows; the checker rebuilds each one
//! from the task set and the claimed marking and compares content hashes,
//! so a certificate for the wrong window is rejected outright.
//!
//! [`WcrtCertificate`]: crate::types::WcrtCertificate

use crate::types::{CertArrival, CertCase, CertTaskSet, CertWindow, CertWindowTask};

/// Ceiling division for positive divisors (`a` may be any sign).
fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "div_ceil: divisor must be positive");
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

/// Floor division for positive divisors.
fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "div_floor: divisor must be positive");
    a.div_euclid(b)
}

/// Maximum number of releases of a task in any half-open window of
/// length `delta` ticks (the paper's η).
///
/// # Errors
///
/// Rejects non-positive periods and negative window lengths — a
/// certificate carrying such an arrival model is malformed, not merely
/// unschedulable.
pub fn eta(arrival: &CertArrival, delta: i64) -> Result<u64, String> {
    if delta < 0 {
        return Err("window.eta: negative window length".to_string());
    }
    if delta == 0 {
        return Ok(0);
    }
    match arrival {
        CertArrival::Sporadic { min_inter_arrival } => {
            if *min_inter_arrival <= 0 {
                return Err("window.eta: non-positive inter-arrival time".to_string());
            }
            Ok(div_ceil(delta, *min_inter_arrival) as u64)
        }
        CertArrival::PeriodicJitter { period, jitter } => {
            if *period <= 0 {
                return Err("window.eta: non-positive period".to_string());
            }
            if *jitter < 0 {
                return Err("window.eta: negative jitter".to_string());
            }
            Ok(div_ceil(delta + *jitter, *period) as u64)
        }
        CertArrival::Staircase { steps, tail_period } => {
            if *tail_period <= 0 {
                return Err("window.eta: non-positive tail period".to_string());
            }
            match steps.last() {
                None => Ok(div_ceil(delta, *tail_period) as u64),
                Some(&(last_delta, last_count)) => {
                    if delta <= last_delta {
                        // Largest step with δ_k ≤ δ; a single event fits
                        // any positive window, so the floor is 1.
                        let mut count = 1;
                        for &(d, n) in steps {
                            if d <= delta {
                                count = n;
                            } else {
                                break;
                            }
                        }
                        Ok(count)
                    } else {
                        Ok(last_count + div_floor(delta - last_delta, *tail_period) as u64)
                    }
                }
            }
        }
    }
}

/// `true` iff `a` is strictly higher priority than `b` (lower value).
fn higher(a: u32, b: u32) -> bool {
    a < b
}

/// Rebuilds the Theorem 1 / Corollary 1 analysis window for `task_id`
/// under the given LS `marking` (sorted task ids), case, and window
/// length `t` ticks.
///
/// # Errors
///
/// Rejects unknown task ids and malformed arrival models.
pub fn build_window(
    set: &CertTaskSet,
    task_id: u32,
    marking: &[u32],
    case: CertCase,
    t: i64,
) -> Result<CertWindow, String> {
    let tua = set
        .tasks
        .iter()
        .find(|tk| tk.id == task_id)
        .ok_or_else(|| format!("window.build: unknown task id {task_id}"))?;
    let mut tasks = Vec::with_capacity(set.tasks.len().saturating_sub(1));
    let mut hp_jobs: u64 = 0;
    let mut lp_count: u64 = 0;
    for task in &set.tasks {
        if task.id == task_id {
            continue;
        }
        let hp = higher(task.priority, tua.priority);
        let budget = if hp {
            let b = eta(&task.arrival, t)? + 1;
            hp_jobs += b;
            b
        } else {
            lp_count += 1;
            1
        };
        tasks.push(CertWindowTask {
            exec: task.exec,
            copy_in: task.copy_in,
            copy_out: task.copy_out,
            ls: marking.contains(&task.id),
            hp,
            priority: task.priority,
            budget,
        });
    }
    // Blocking intervals: two as soon as one lower-priority task exists
    // (copy-in-then-execute chain of a single lp job) for the NLS case,
    // at most one for LS case (a); at least two intervals total.
    let blocking = match case {
        CertCase::Nls => {
            if lp_count == 0 {
                0
            } else {
                2
            }
        }
        CertCase::LsCaseA => lp_count.min(1),
    };
    let n_intervals = (hp_jobs + blocking + 1).max(2);
    let max_l = set.tasks.iter().map(|tk| tk.copy_in).max().unwrap_or(0);
    let max_u = set.tasks.iter().map(|tk| tk.copy_out).max().unwrap_or(0);
    Ok(CertWindow {
        case,
        n_intervals,
        tasks,
        exec_i: tua.exec,
        copy_in_i: tua.copy_in,
        copy_out_i: tua.copy_out,
        priority_i: tua.priority,
        max_l,
        max_u,
    })
}

/// LS case (b) closed-form response bound (Corollary 1's second case):
/// τ_i arrives during another task's interval, executes urgently in the
/// next, and suffers at most one full competitor demand plus boundary
/// transfers.
pub fn ls_case_b(w: &CertWindow) -> i64 {
    let dma0 = w.max_l + w.max_u;
    let own = w.copy_in_i + w.exec_i;
    let mut best = dma0.max(own.max(w.max_l));
    for t in &w.tasks {
        let demand = if t.ls { t.copy_in + t.exec } else { t.exec };
        let d0 = demand.max(dma0);
        let d1 = own.max(w.max_l + t.copy_out);
        best = best.max(d0 + d1);
    }
    best = best.max(dma0 + own.max(w.max_l));
    best + w.copy_out_i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CertTask;

    fn sporadic(t: i64) -> CertArrival {
        CertArrival::Sporadic {
            min_inter_arrival: t,
        }
    }

    fn task(id: u32, priority: u32, exec: i64, copy_in: i64, copy_out: i64, t: i64) -> CertTask {
        CertTask {
            id,
            exec,
            copy_in,
            copy_out,
            deadline: t,
            priority,
            arrival: sporadic(t),
        }
    }

    #[test]
    fn eta_models() {
        assert_eq!(eta(&sporadic(10), 0).expect("eta"), 0);
        assert_eq!(eta(&sporadic(10), 1).expect("eta"), 1);
        assert_eq!(eta(&sporadic(10), 10).expect("eta"), 1);
        assert_eq!(eta(&sporadic(10), 11).expect("eta"), 2);
        let pj = CertArrival::PeriodicJitter {
            period: 10,
            jitter: 5,
        };
        assert_eq!(eta(&pj, 6).expect("eta"), 2);
        let st = CertArrival::Staircase {
            steps: vec![(1, 3)],
            tail_period: 10,
        };
        assert_eq!(eta(&st, 1).expect("eta"), 3);
        assert_eq!(eta(&st, 11).expect("eta"), 4);
        assert_eq!(eta(&st, 21).expect("eta"), 5);
        assert!(eta(&sporadic(0), 1).is_err());
        assert!(eta(&sporadic(10), -1).is_err());
    }

    #[test]
    fn build_counts_intervals() {
        let set = CertTaskSet {
            tasks: vec![
                task(0, 0, 5, 1, 1, 100),
                task(1, 1, 7, 2, 2, 50),
                task(2, 2, 9, 3, 3, 40),
            ],
        };
        // Analyzing the middle task: one hp competitor (2 jobs in t=100),
        // one lp competitor → NLS blocking 2, N = 3 + 2 + 1 = wait:
        // hp budget = eta(100 over T=100) + 1 = 1 + 1 = 2 → N = 2+2+1 = 5.
        let w = build_window(&set, 1, &[], CertCase::Nls, 100).expect("build");
        assert_eq!(w.n_intervals, 5);
        assert_eq!(w.tasks.len(), 2);
        assert!(w.tasks[0].hp);
        assert!(!w.tasks[1].hp);
        assert_eq!(w.tasks[0].budget, 2);
        assert_eq!(w.tasks[1].budget, 1);
        assert_eq!(w.max_l, 3);
        assert_eq!(w.max_u, 3);
        // LS case (a) drops one blocking interval.
        let wa = build_window(&set, 1, &[1], CertCase::LsCaseA, 100).expect("build");
        assert_eq!(wa.n_intervals, 4);
        // No lp tasks: analyzing the lowest-priority task drops blocking
        // to zero in the NLS case.
        let wl = build_window(&set, 2, &[], CertCase::Nls, 40).expect("build");
        assert_eq!(wl.tasks.iter().filter(|t| !t.hp).count(), 0);
        // hp budgets: eta(40 over 100)+1 = 2, eta(40 over 50)+1 = 2 → N=5.
        assert_eq!(wl.n_intervals, 5);
        assert!(build_window(&set, 9, &[], CertCase::Nls, 10).is_err());
    }

    #[test]
    fn marking_sets_ls_flags() {
        let set = CertTaskSet {
            tasks: vec![task(0, 0, 5, 1, 1, 100), task(1, 1, 7, 2, 2, 50)],
        };
        let w = build_window(&set, 1, &[0], CertCase::Nls, 50).expect("build");
        assert!(w.tasks[0].ls);
        let w2 = build_window(&set, 1, &[], CertCase::Nls, 50).expect("build");
        assert!(!w2.tasks[0].ls);
        assert_ne!(w.content_hash(), w2.content_hash());
    }
}
