//! The certificate data model.
//!
//! These types are the *interchange format* between the producing
//! analysis (`pmcs-core`) and the independent checker ([`crate::check`]).
//! They deliberately mirror the paper's concepts — tasks, analysis
//! windows, slot choices — rather than any engine-internal structure, so
//! the checker can re-derive their semantics without touching engine
//! code. All durations are integer ticks (1 µs), all arithmetic on them
//! is `i64`/`i128`.

use crate::hash::Fnv64;

/// Format version of [`CertificateSet`]; bumped on incompatible changes.
pub const CERT_FORMAT_VERSION: u32 = 3;

/// Arrival model of a task, as the checker's independent η re-derivation
/// needs it (mirrors the paper's arrival curves, not any model-crate
/// type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertArrival {
    /// Sporadic with minimum inter-arrival time `T` (ticks).
    Sporadic {
        /// Minimum inter-arrival time in ticks (positive).
        min_inter_arrival: i64,
    },
    /// Periodic with release jitter: `η(δ) = ⌈(δ+J)/T⌉` for `δ > 0`.
    PeriodicJitter {
        /// Period in ticks (positive).
        period: i64,
        /// Release jitter in ticks (non-negative).
        jitter: i64,
    },
    /// Explicit staircase curve with a long-run tail rate.
    Staircase {
        /// Strictly increasing `(window length, cumulative count)` steps.
        steps: Vec<(i64, u64)>,
        /// Tail inter-arrival time in ticks (positive).
        tail_period: i64,
    },
}

/// One task of the analyzed set, carrying everything the checker needs
/// to re-derive analysis windows from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertTask {
    /// Task identifier.
    pub id: u32,
    /// Execution time `C` in ticks.
    pub exec: i64,
    /// Copy-in time `l` in ticks.
    pub copy_in: i64,
    /// Copy-out time `u` in ticks.
    pub copy_out: i64,
    /// Relative deadline in ticks.
    pub deadline: i64,
    /// Priority value (lower value = higher priority).
    pub priority: u32,
    /// Arrival model.
    pub arrival: CertArrival,
}

/// The analyzed task set, in decreasing priority order (ascending
/// priority value), matching the production set's iteration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CertTaskSet {
    /// Tasks in decreasing priority order.
    pub tasks: Vec<CertTask>,
}

impl CertTaskSet {
    /// Index of a task by id.
    pub fn index_of(&self, id: u32) -> Option<usize> {
        self.tasks.iter().position(|t| t.id == id)
    }
}

/// Which analysis case a window encodes (Section V of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertCase {
    /// Task under analysis treated as NLS (Theorem 1).
    Nls,
    /// Task under analysis treated as LS, case (a) (Corollary 1).
    LsCaseA,
}

impl CertCase {
    /// Stable wire encoding.
    pub fn code(self) -> u64 {
        match self {
            CertCase::Nls => 0,
            CertCase::LsCaseA => 1,
        }
    }

    /// Inverse of [`CertCase::code`].
    pub fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(CertCase::Nls),
            1 => Some(CertCase::LsCaseA),
            _ => None,
        }
    }
}

/// A competing task as seen inside one analysis window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertWindowTask {
    /// Execution time in ticks.
    pub exec: i64,
    /// Copy-in time in ticks.
    pub copy_in: i64,
    /// Copy-out time in ticks.
    pub copy_out: i64,
    /// Latency-sensitivity marking (as recorded; the checker applies the
    /// inertness canonicalization itself).
    pub ls: bool,
    /// `true` iff higher priority than the task under analysis.
    pub hp: bool,
    /// Priority value (lower = higher priority).
    pub priority: u32,
    /// Job budget inside the window.
    pub budget: u64,
}

/// A self-contained analysis window: the object a window-level
/// certificate makes a claim about.
///
/// Task identifiers are deliberately absent — the window's meaning is
/// fully determined by phase durations, markings, priorities, and
/// budgets, matching the content addressing of the production
/// `SharedDelayCache`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertWindow {
    /// Analysis case.
    pub case: CertCase,
    /// Number of scheduling intervals `N`.
    pub n_intervals: u64,
    /// Competing tasks.
    pub tasks: Vec<CertWindowTask>,
    /// `τ_i`'s execution time in ticks.
    pub exec_i: i64,
    /// `τ_i`'s copy-in time in ticks.
    pub copy_in_i: i64,
    /// `τ_i`'s copy-out time in ticks.
    pub copy_out_i: i64,
    /// `τ_i`'s priority value.
    pub priority_i: u32,
    /// `max_j l_j` over the whole set (boundary constraints 12/15).
    pub max_l: i64,
    /// `max_j u_j` over the whole set (boundary constraints 12/15).
    pub max_u: i64,
}

impl CertWindow {
    /// FNV-1a content hash over the canonical field encoding.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.case.code());
        h.write_u64(self.n_intervals);
        h.write_u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.write_i64(t.exec);
            h.write_i64(t.copy_in);
            h.write_i64(t.copy_out);
            h.write_bool(t.ls);
            h.write_bool(t.hp);
            h.write_u32(t.priority);
            h.write_u64(t.budget);
        }
        h.write_i64(self.exec_i);
        h.write_i64(self.copy_in_i);
        h.write_i64(self.copy_out_i);
        h.write_u32(self.priority_i);
        h.write_i64(self.max_l);
        h.write_i64(self.max_u);
        h.finish()
    }
}

/// One slot decision in a placement witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertChoice {
    /// The CPU idles in the interval (rule R5).
    Idle,
    /// Task index `task` executes, plain or urgent.
    Run {
        /// Index into [`CertWindow::tasks`].
        task: usize,
        /// `true` for an urgent (CPU-copy-in) execution.
        urgent: bool,
    },
}

impl CertChoice {
    /// Stable wire encoding: 0 = idle, else `1 + 2·task + urgent`.
    pub fn code(self) -> u64 {
        match self {
            CertChoice::Idle => 0,
            CertChoice::Run { task, urgent } => 1 + 2 * task as u64 + u64::from(urgent),
        }
    }

    /// Inverse of [`CertChoice::code`].
    pub fn from_code(c: u64) -> Self {
        if c == 0 {
            CertChoice::Idle
        } else {
            CertChoice::Run {
                task: ((c - 1) / 2) as usize,
                urgent: (c - 1) % 2 == 1,
            }
        }
    }
}

/// One memoized state of the producing DP, with its claimed suffix value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpEntry {
    /// Slot index.
    pub k: u64,
    /// Remaining job budgets per window task (canonical form).
    pub budgets: Vec<u64>,
    /// The four max-plus terms `X` of the claimed exact maximum of
    /// `Δ_{k−1} + … + Δ_{N−1}` from this state: for a predecessor with
    /// CPU demand `p` and copy-out `o1`, and a copy-out `o2` of
    /// `I_{k−1}`, the maximum is `max(p + X1, p + o1 + X2, o2 + X3,
    /// o1 + o2 + X4)` (see [`crate::dp::verify_dp_table`]).
    pub terms: [i64; 4],
}

/// The upper-bound proof of a [`DelayCertificate`].
#[derive(Debug, Clone)]
pub enum UpperProof {
    /// The producing DP's full memo table; the checker re-derives every
    /// Bellman equation over the dominance-pruned choice sets.
    DpTable(
        /// All memoized states reachable from the root.
        Vec<DpEntry>,
    ),
    /// The claim equals (or exceeds) the closed-form safe cap the engine
    /// falls back to on search-budget exhaustion; the checker recomputes
    /// the formula from the window.
    SafeCap,
}

/// Window-level certificate: a lower-bound *witness* whose interference
/// sum attains the claim, plus an upper-bound *proof* that no legal
/// schedule exceeds it.
#[derive(Debug, Clone)]
pub struct DelayCertificate {
    /// The window the claim is about.
    pub window: CertWindow,
    /// Content hash of `window` (bound at emission; re-derived and
    /// compared by the checker).
    pub window_hash: u64,
    /// Claimed bound on `Σ_k Δ_k` in ticks.
    pub claimed: i64,
    /// `true` iff the claim is asserted to be the exact optimum (then a
    /// witness attaining it must be present).
    pub exact: bool,
    /// Placement witness: choices for slots `0 … N−2`.
    pub witness: Option<Vec<CertChoice>>,
    /// Upper-bound proof.
    pub upper: UpperProof,
}

/// One fixed-point step of a [`WcrtCertificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertWcrtStep {
    /// Window length `t = R̄ − C − u` fed to the engine, in ticks.
    pub window_len: i64,
    /// Engine delay bound `Σ_k Δ_k` for that window, in ticks.
    pub delay: i64,
    /// Whether the bound was exact.
    pub exact: bool,
    /// Content hash of the window solved in this step; must match a
    /// [`DelayCertificate`] in the same [`CertificateSet`].
    pub window_hash: u64,
}

/// Task-level certificate: the monotone fixed-point iteration behind one
/// WCRT verdict, each step's window bound referenced by content hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcrtCertificate {
    /// The analyzed task.
    pub task: u32,
    /// LS task ids (sorted) at analysis time; windows are re-derived
    /// under this marking.
    pub marking: Vec<u32>,
    /// Analysis case of the fixed point.
    pub case: CertCase,
    /// Fixed-point steps in order.
    pub steps: Vec<CertWcrtStep>,
    /// LS case (b) closed-form response in ticks (`None` for NLS).
    pub case_b: Option<i64>,
    /// Claimed WCRT bound in ticks.
    pub wcrt: i64,
    /// Claimed verdict (`wcrt ≤ deadline`).
    pub schedulable: bool,
}

/// One task verdict inside a greedy round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRoundEntry {
    /// The task.
    pub task: u32,
    /// WCRT bound used for the verdict, in ticks.
    pub wcrt: i64,
    /// The verdict (a [`WcrtCertificate`] under this round's marking
    /// must prove it).
    pub schedulable: bool,
}

/// One greedy LS-marking round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRound {
    /// Verdicts in decreasing priority order; may be a strict prefix of
    /// the task set when an NLS miss aborts the scan.
    pub entries: Vec<CertRoundEntry>,
}

/// Set-level certificate: the greedy LS-marking run justifying the final
/// schedulability verdict, with per-round verdicts and the promotion
/// sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedCertificate {
    /// Rounds in order; round `r` runs under the marking
    /// `promoted[0 .. r−1]`.
    pub rounds: Vec<CertRound>,
    /// Promoted task ids in promotion order.
    pub promoted: Vec<u32>,
    /// Claimed final verdict.
    pub schedulable: bool,
}

/// A complete, self-contained certificate bundle for one task-set
/// analysis.
#[derive(Debug, Clone)]
pub struct CertificateSet {
    /// Format version ([`CERT_FORMAT_VERSION`]).
    pub version: u32,
    /// The analyzed task set.
    pub task_set: CertTaskSet,
    /// Window-level certificates, deduplicated by content hash.
    pub windows: Vec<DelayCertificate>,
    /// Task-level certificates.
    pub wcrts: Vec<WcrtCertificate>,
    /// The set-level certificate.
    pub sched: Option<SchedCertificate>,
}

impl CertificateSet {
    /// An empty bundle for the given task set.
    pub fn new(task_set: CertTaskSet) -> Self {
        CertificateSet {
            version: CERT_FORMAT_VERSION,
            task_set,
            windows: Vec::new(),
            wcrts: Vec::new(),
            sched: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_window() -> CertWindow {
        CertWindow {
            case: CertCase::Nls,
            n_intervals: 3,
            tasks: vec![CertWindowTask {
                exec: 10,
                copy_in: 2,
                copy_out: 2,
                ls: false,
                hp: true,
                priority: 0,
                budget: 2,
            }],
            exec_i: 20,
            copy_in_i: 5,
            copy_out_i: 5,
            priority_i: 1,
            max_l: 5,
            max_u: 5,
        }
    }

    #[test]
    fn hash_is_content_sensitive() {
        let w = tiny_window();
        let mut w2 = w.clone();
        w2.tasks[0].budget = 3;
        assert_ne!(w.content_hash(), w2.content_hash());
        let mut w3 = w.clone();
        w3.case = CertCase::LsCaseA;
        assert_ne!(w.content_hash(), w3.content_hash());
        assert_eq!(w.content_hash(), tiny_window().content_hash());
    }

    #[test]
    fn choice_codes_round_trip() {
        for c in [
            CertChoice::Idle,
            CertChoice::Run {
                task: 0,
                urgent: false,
            },
            CertChoice::Run {
                task: 3,
                urgent: true,
            },
        ] {
            assert_eq!(CertChoice::from_code(c.code()), c);
        }
    }
}
