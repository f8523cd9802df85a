//! Rule-addressable R1–R6 protocol-conformance analysis of interval traces.
//!
//! [`validate`](crate::validate) re-checks the paper's *Properties 1–4* —
//! consequences of the protocol. This module checks the protocol *rules*
//! themselves: every diagnostic names the rule it violates (cross-referencing
//! the canonical statements in [`pmcs_core::protocol::RULES`]), the offending
//! job, and the interval span, so a bad trace explains *which rule* broke and
//! *where* instead of failing a property assertion downstream.
//!
//! The checks are one-directional and exact for traces produced by
//! [`crate::simulate`] under the interval policies: a clean simulator trace
//! yields an empty report (property-tested in `tests/protocol_properties.rs`),
//! and a tampered trace yields the diagnostic of the rule it breaks
//! (negative-tested below). NPS traces have no intervals, so the analysis
//! does not apply to them (`ConformanceReport::not_applicable`).
//!
//! | check | rule | what is verified |
//! |---|---|---|
//! | interval structure | R1 | starts non-decreasing (zero-length intervals arise from zero-duration phases); events within their interval span; at most one CPU execution / DMA copy-out / DMA copy-in per interval |
//! | DMA order & target | R2 | copy-out precedes copy-in; the copy-in target is the highest-priority job ready at the interval start |
//! | cancellation legality | R3 | every canceled copy-in is justified by a higher-priority LS activation inside the interval; the WP baseline never cancels |
//! | urgent promotion | R4 | a CPU copy-in follows an interval with a canceled/absent copy-in, serves the highest-priority LS job released there, and only under LS rules |
//! | CPU activity source | R5 | an execution is urgent (CPU copy-in immediately before it) or consumes a copy-in completed in the previous interval; operations start at the interval start and chain back-to-back |
//! | interval extent | R6 | the interval ends with its longest unit-chain; pending work (loaded input / waiting output / urgent task) forces the next interval to start immediately |

use std::fmt;

use pmcs_core::protocol::{ProtocolRule, RULES};
use pmcs_model::{JobId, Phase, TaskSet, Time};

use crate::trace::{JobRecord, SimResult, TraceEvent, TraceRef, TraceUnit};

/// Identifies one of the six protocol rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleTag {
    /// Partition swap / interval structure.
    R1,
    /// DMA copy-out then copy-in of the highest-priority ready task.
    R2,
    /// Copy-in cancellation on higher-priority LS release.
    R3,
    /// Urgent promotion of the highest-priority LS task.
    R4,
    /// CPU serves the urgent task or the previously loaded task.
    R5,
    /// Interval length is the longest of the CPU and DMA operations.
    R6,
}

impl RuleTag {
    /// All six tags in order.
    pub const ALL: [RuleTag; 6] = [
        RuleTag::R1,
        RuleTag::R2,
        RuleTag::R3,
        RuleTag::R4,
        RuleTag::R5,
        RuleTag::R6,
    ];

    /// The canonical statement of this rule from
    /// [`pmcs_core::protocol::RULES`].
    pub fn rule(self) -> &'static ProtocolRule {
        &RULES[self as usize]
    }

    /// The rule tag string (`"R1"`–`"R6"`).
    pub fn tag(self) -> &'static str {
        self.rule().tag
    }
}

impl fmt::Display for RuleTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One conformance diagnostic: a rule violation localized to a job and an
/// interval span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDiagnostic {
    /// The violated rule.
    pub rule: RuleTag,
    /// The job involved, when one can be identified.
    pub job: Option<JobId>,
    /// Inclusive interval-index span `[first, last]` the violation covers.
    pub intervals: (usize, usize),
    /// Human-readable explanation of what the trace does and what the rule
    /// requires.
    pub explanation: String,
}

impl fmt::Display for RuleDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.rule)?;
        if self.intervals.0 == self.intervals.1 {
            write!(f, "interval {}: ", self.intervals.0)?;
        } else {
            write!(f, "intervals {}-{}: ", self.intervals.0, self.intervals.1)?;
        }
        if let Some(job) = self.job {
            write!(f, "{job}: ")?;
        }
        write!(
            f,
            "{} (rule: {})",
            self.explanation,
            self.rule.rule().statement
        )
    }
}

/// Result of a conformance analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConformanceReport {
    /// All diagnostics, ordered by interval then rule.
    pub diagnostics: Vec<RuleDiagnostic>,
    /// Number of scheduling intervals analyzed.
    pub intervals_checked: usize,
    /// Number of trace events analyzed.
    pub events_checked: usize,
    /// `false` when the trace has no interval structure (NPS) and the
    /// rules do not apply.
    pub applicable: bool,
}

impl ConformanceReport {
    fn not_applicable() -> Self {
        ConformanceReport {
            applicable: false,
            ..ConformanceReport::default()
        }
    }

    /// `true` iff the analysis ran and found no violation.
    pub fn is_conformant(&self) -> bool {
        self.applicable && self.diagnostics.is_empty()
    }

    /// Diagnostics for one specific rule.
    pub fn by_rule(&self, rule: RuleTag) -> impl Iterator<Item = &RuleDiagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    fn push(
        &mut self,
        rule: RuleTag,
        job: Option<JobId>,
        intervals: (usize, usize),
        explanation: impl Into<String>,
    ) {
        self.diagnostics.push(RuleDiagnostic {
            rule,
            job,
            intervals,
            explanation: explanation.into(),
        });
    }
}

/// Per-interval view assembled from the flat event list.
#[derive(Debug, Default, Clone)]
struct IntervalView {
    start: Time,
    /// Latest end over the interval's events (`start` when empty).
    end: Time,
    cpu_copyin: Option<usize>,
    cpu_execs: Vec<usize>,
    dma_copyouts: Vec<usize>,
    dma_copyins: Vec<usize>,
}

/// Checks a simulated interval trace against the protocol rules R1–R6.
///
/// `ls_rules` selects the protocol variant: `true` for the proposed
/// protocol (R3/R4 active), `false` for the Wasly–Pellizzoni baseline
/// (cancellations and urgent promotions are themselves violations).
///
/// Traces without interval structure (NPS) yield a non-`applicable`
/// report with no diagnostics.
pub fn check_conformance(set: &TaskSet, result: &SimResult, ls_rules: bool) -> ConformanceReport {
    check_conformance_ref(set, result.as_trace(), ls_rules)
}

/// [`check_conformance`] over a borrowed trace view (e.g. one held by a
/// reused [`SimWorkspace`](crate::SimWorkspace)).
pub fn check_conformance_ref(
    set: &TaskSet,
    result: TraceRef<'_>,
    ls_rules: bool,
) -> ConformanceReport {
    let starts = result.interval_starts();
    if starts.is_empty() {
        return ConformanceReport::not_applicable();
    }
    let mut report = ConformanceReport {
        applicable: true,
        intervals_checked: starts.len(),
        events_checked: result.events().len(),
        ..ConformanceReport::default()
    };
    let events = result.events();

    let Some(views) = build_views(starts, events, &mut report) else {
        // Structurally broken beyond repair (events outside any interval):
        // the per-rule analyses below would only cascade noise.
        return report;
    };

    check_r1_structure(&views, events, &mut report);
    check_r2_dma(set, result, &views, events, &mut report);
    check_r3_cancellation(set, result, &views, events, ls_rules, &mut report);
    check_r4_urgency(set, result, &views, events, ls_rules, &mut report);
    check_r5_cpu(&views, events, &mut report);
    check_r6_extent(result, &views, events, &mut report);

    report.diagnostics.sort_by_key(|d| (d.intervals, d.rule));
    report
}

fn build_views(
    starts: &[Time],
    events: &[TraceEvent],
    report: &mut ConformanceReport,
) -> Option<Vec<IntervalView>> {
    let mut views: Vec<IntervalView> = starts
        .iter()
        .map(|&s| IntervalView {
            start: s,
            end: s,
            ..IntervalView::default()
        })
        .collect();
    let mut ok = true;
    for (i, e) in events.iter().enumerate() {
        let Some(view) = views.get_mut(e.interval) else {
            report.push(
                RuleTag::R1,
                Some(e.job),
                (
                    e.interval.min(starts.len() - 1),
                    e.interval.min(starts.len() - 1),
                ),
                format!(
                    "event {e} carries interval index {} but only {} intervals exist",
                    e.interval,
                    starts.len()
                ),
            );
            ok = false;
            continue;
        };
        view.end = view.end.max(e.end);
        match (e.unit, e.phase) {
            (TraceUnit::Cpu, Phase::CopyIn) => {
                if view.cpu_copyin.replace(i).is_some() {
                    report.push(
                        RuleTag::R5,
                        Some(e.job),
                        (e.interval, e.interval),
                        "more than one CPU copy-in in a single interval",
                    );
                }
            }
            (TraceUnit::Cpu, Phase::Execute) => view.cpu_execs.push(i),
            (TraceUnit::Dma, Phase::CopyOut) => view.dma_copyouts.push(i),
            (TraceUnit::Dma, Phase::CopyIn) => view.dma_copyins.push(i),
            (TraceUnit::Cpu, Phase::CopyOut) | (TraceUnit::Dma, Phase::Execute) => {
                report.push(
                    RuleTag::R5,
                    Some(e.job),
                    (e.interval, e.interval),
                    format!("phase {} cannot run on unit {}", e.phase, e.unit),
                );
            }
        }
    }
    ok.then_some(views)
}

/// R1: the interval skeleton itself — non-decreasing starts (an interval
/// whose activities all have zero duration legitimately collapses to a
/// point), events confined to their interval's span, single occupancy per
/// unit role.
fn check_r1_structure(
    views: &[IntervalView],
    events: &[TraceEvent],
    report: &mut ConformanceReport,
) {
    for (k, w) in views.windows(2).enumerate() {
        if w[1].start < w[0].start {
            report.push(
                RuleTag::R1,
                None,
                (k, k + 1),
                format!(
                    "interval starts go backwards ({} then {})",
                    w[0].start, w[1].start
                ),
            );
        }
    }
    for e in events {
        let Some(view) = views.get(e.interval) else {
            continue;
        };
        let next_start = views.get(e.interval + 1).map(|v| v.start);
        if e.start < view.start || next_start.is_some_and(|ns| e.end > ns) {
            report.push(
                RuleTag::R1,
                Some(e.job),
                (e.interval, e.interval),
                format!(
                    "event {e} escapes its interval span [{}, {})",
                    view.start,
                    next_start.map_or_else(|| "∞".to_string(), |t| t.to_string())
                ),
            );
        }
    }
    for (k, view) in views.iter().enumerate() {
        if view.cpu_execs.len() > 1 {
            report.push(
                RuleTag::R1,
                view.cpu_execs.get(1).map(|&i| events[i].job),
                (k, k),
                format!(
                    "{} CPU executions in one interval (the partition assignment \
                     admits exactly one)",
                    view.cpu_execs.len()
                ),
            );
        }
        if view.dma_copyouts.len() > 1 {
            report.push(
                RuleTag::R1,
                view.dma_copyouts.get(1).map(|&i| events[i].job),
                (k, k),
                format!("{} DMA copy-outs in one interval", view.dma_copyouts.len()),
            );
        }
        if view.dma_copyins.len() > 1 {
            report.push(
                RuleTag::R1,
                view.dma_copyins.get(1).map(|&i| events[i].job),
                (k, k),
                format!(
                    "{} DMA copy-in activities in one interval",
                    view.dma_copyins.len()
                ),
            );
        }
    }
}

/// Index of the interval in which `job` leaves the ready queue for good:
/// its first non-canceled copy-in (DMA or urgent CPU) or execution.
fn departure_interval(events: &[TraceEvent], job: JobId) -> Option<usize> {
    events
        .iter()
        .filter(|e| e.job == job)
        .filter(|e| match e.phase {
            Phase::CopyIn => !e.canceled,
            Phase::Execute => true,
            Phase::CopyOut => false,
        })
        .map(|e| e.interval)
        .min()
}

/// Jobs ready at the start of interval `k` (activated, not yet departed,
/// not being served as the urgent task of `k`).
fn ready_at(
    result: TraceRef<'_>,
    views: &[IntervalView],
    events: &[TraceEvent],
    k: usize,
) -> Vec<JobId> {
    let istart = views[k].start;
    let urgent_job = views[k].cpu_copyin.map(|i| events[i].job);
    result
        .jobs()
        .iter()
        .filter(|r| r.activation <= istart)
        .filter(|r| Some(r.job) != urgent_job)
        .filter(|r| departure_interval(events, r.job).is_none_or(|d| d >= k))
        .filter(|r| visible_at_selection(events, r, istart, k))
        .map(|r| r.job)
        .collect()
}

/// Whether a job activated no later than `istart` was already visible when
/// the copy-in target of interval `k` was selected.
///
/// The one subtle case: a job whose activation was *deferred by inter-job
/// precedence* to exactly `istart`. Its predecessor's copy-out then ends
/// precisely at the interval start — and when that copy-out belongs to
/// interval `k` itself (a zero-length transfer at the start instant), it is
/// processed *after* the target selection, so the successor was not yet in
/// the ready queue. A copy-out that ended at the boundary from within
/// interval `k−1` activates the successor in time.
fn visible_at_selection(events: &[TraceEvent], r: &JobRecord, istart: Time, k: usize) -> bool {
    if r.activation < istart || r.activation == r.release || r.job.index() == 0 {
        return true;
    }
    let prev = JobId::new(r.job.task(), r.job.index() - 1);
    events
        .iter()
        .find(|e| {
            e.job == prev && e.phase == Phase::CopyOut && !e.canceled && e.end == r.activation
        })
        .is_none_or(|e| e.interval < k)
}

/// R2: within each interval the DMA copies out before copying in, and the
/// copy-in serves the highest-priority ready job.
fn check_r2_dma(
    set: &TaskSet,
    result: TraceRef<'_>,
    views: &[IntervalView],
    events: &[TraceEvent],
    report: &mut ConformanceReport,
) {
    for (k, view) in views.iter().enumerate() {
        if let (Some(&out), Some(&inn)) = (view.dma_copyouts.first(), view.dma_copyins.first()) {
            if events[inn].start < events[out].end {
                report.push(
                    RuleTag::R2,
                    Some(events[inn].job),
                    (k, k),
                    format!(
                        "copy-in starts at {} before the copy-out ends at {}",
                        events[inn].start, events[out].end
                    ),
                );
            }
        }
        let Some(&inn) = view.dma_copyins.first() else {
            continue;
        };
        let target = events[inn].job;
        let Some(target_prio) = set.get(target.task()).map(|t| t.priority()) else {
            report.push(
                RuleTag::R2,
                Some(target),
                (k, k),
                "copy-in target's task is not in the task set",
            );
            continue;
        };
        let ready = ready_at(result, views, events, k);
        if !ready.contains(&target) {
            report.push(
                RuleTag::R2,
                Some(target),
                (k, k),
                "copy-in serves a job that was not in the ready queue at the \
                 interval start",
            );
            continue;
        }
        for job in ready {
            let Some(prio) = set.get(job.task()).map(|t| t.priority()) else {
                continue;
            };
            if prio.is_higher_than(target_prio) {
                report.push(
                    RuleTag::R2,
                    Some(target),
                    (k, k),
                    format!(
                        "copy-in serves {target} although higher-priority {job} \
                         was ready at the interval start"
                    ),
                );
            }
        }
    }
}

/// R3: a canceled copy-in requires a higher-priority LS activation inside
/// the interval; the WP baseline must never cancel.
fn check_r3_cancellation(
    set: &TaskSet,
    result: TraceRef<'_>,
    views: &[IntervalView],
    events: &[TraceEvent],
    ls_rules: bool,
    report: &mut ConformanceReport,
) {
    for e in events.iter().filter(|e| e.canceled) {
        let k = e.interval;
        if e.phase != Phase::CopyIn || e.unit != TraceUnit::Dma {
            report.push(
                RuleTag::R3,
                Some(e.job),
                (k, k),
                format!(
                    "only DMA copy-ins can be canceled, not {} {}",
                    e.unit, e.phase
                ),
            );
            continue;
        }
        if !ls_rules {
            report.push(
                RuleTag::R3,
                Some(e.job),
                (k, k),
                "the WP baseline has no cancellation rule, yet the copy-in is canceled",
            );
            continue;
        }
        let Some(victim_prio) = set.get(e.job.task()).map(|t| t.priority()) else {
            continue; // R2 already reported the unknown task.
        };
        let (istart, iend) = (views[k].start, views[k].end);
        let justified = result.jobs().iter().any(|r| {
            r.activation >= istart
                && r.activation <= iend
                && set
                    .get(r.job.task())
                    .is_some_and(|t| t.is_ls() && t.priority().is_higher_than(victim_prio))
        });
        if !justified {
            report.push(
                RuleTag::R3,
                Some(e.job),
                (k, k),
                "copy-in canceled without a higher-priority latency-sensitive \
                 activation inside the interval",
            );
        }
    }
}

/// R4: a CPU copy-in (urgent service) is legal only under LS rules, for an
/// LS task, after an interval whose copy-in was canceled or absent, for
/// the highest-priority LS job released in that interval.
fn check_r4_urgency(
    set: &TaskSet,
    result: TraceRef<'_>,
    views: &[IntervalView],
    events: &[TraceEvent],
    ls_rules: bool,
    report: &mut ConformanceReport,
) {
    for (k, view) in views.iter().enumerate() {
        let Some(ci) = view.cpu_copyin.map(|i| &events[i]) else {
            continue;
        };
        if !ls_rules {
            report.push(
                RuleTag::R4,
                Some(ci.job),
                (k, k),
                "the WP baseline has no urgent promotion, yet the CPU performs a copy-in",
            );
            continue;
        }
        let task = set.get(ci.job.task());
        if !task.is_some_and(|t| t.is_ls()) {
            report.push(
                RuleTag::R4,
                Some(ci.job),
                (k, k),
                "urgent service of a task that is not latency-sensitive",
            );
            continue;
        }
        let Some(prev) = k.checked_sub(1).map(|p| &views[p]) else {
            report.push(
                RuleTag::R4,
                Some(ci.job),
                (k, k),
                "urgent service in the first interval (promotion needs a preceding one)",
            );
            continue;
        };
        let prev_completed_copyin = prev.dma_copyins.iter().any(|&i| !events[i].canceled);
        if prev_completed_copyin {
            report.push(
                RuleTag::R4,
                Some(ci.job),
                (k - 1, k),
                "urgent promotion although the preceding interval completed a copy-in",
            );
        }
        // "Released in the interval", boundaries inclusive (the canceling
        // release may coincide with the interval end).
        let released_in_prev = result
            .job(ci.job)
            .is_some_and(|r| r.activation >= prev.start && r.activation <= prev.end);
        if !released_in_prev {
            report.push(
                RuleTag::R4,
                Some(ci.job),
                (k - 1, k),
                "urgent job was not released within the preceding interval",
            );
        }
        let Some(urgent_prio) = set.get(ci.job.task()).map(|t| t.priority()) else {
            continue;
        };
        let overlooked = result.jobs().iter().find(|r| {
            r.job != ci.job
                && r.activation >= prev.start
                && r.activation <= prev.end
                && departure_interval(events, r.job).is_none_or(|d| d >= k)
                && set
                    .get(r.job.task())
                    .is_some_and(|t| t.is_ls() && t.priority().is_higher_than(urgent_prio))
        });
        if let Some(better) = overlooked {
            report.push(
                RuleTag::R4,
                Some(ci.job),
                (k - 1, k),
                format!(
                    "urgent promotion skipped the higher-priority latency-sensitive \
                     job {} released in the same interval",
                    better.job
                ),
            );
        }
    }
}

/// R5: the CPU serves the urgent task (copy-in immediately followed by its
/// execution, from the interval start) or the task loaded in the previous
/// interval (execution from the interval start).
fn check_r5_cpu(views: &[IntervalView], events: &[TraceEvent], report: &mut ConformanceReport) {
    for (k, view) in views.iter().enumerate() {
        let exec = view.cpu_execs.first().map(|&i| &events[i]);
        if let Some(ci) = view.cpu_copyin.map(|i| &events[i]) {
            if ci.start != view.start {
                report.push(
                    RuleTag::R5,
                    Some(ci.job),
                    (k, k),
                    format!(
                        "urgent copy-in starts at {} instead of the interval start {}",
                        ci.start, view.start
                    ),
                );
            }
            match exec {
                Some(e) if e.job == ci.job && e.start == ci.end => {}
                _ => report.push(
                    RuleTag::R5,
                    Some(ci.job),
                    (k, k),
                    "urgent copy-in is not immediately followed by the execution \
                     of the same job",
                ),
            }
            continue;
        }
        let Some(e) = exec else {
            continue; // CPU idles: allowed by R5.
        };
        if e.start != view.start {
            report.push(
                RuleTag::R5,
                Some(e.job),
                (k, k),
                format!(
                    "execution starts at {} instead of the interval start {}",
                    e.start, view.start
                ),
            );
        }
        let loaded_prev = k
            .checked_sub(1)
            .map(|p| &views[p])
            .and_then(|prev| prev.dma_copyins.first().map(|&i| &events[i]))
            .is_some_and(|ci| !ci.canceled && ci.job == e.job);
        if !loaded_prev {
            report.push(
                RuleTag::R5,
                Some(e.job),
                (k.saturating_sub(1), k),
                "executed job was not loaded by a completed copy-in in the \
                 previous interval and is not urgent",
            );
        }
    }
}

/// R6: each unit's operations chain back-to-back from the interval start,
/// so the interval's extent is the longest chain; pending work (a loaded
/// input, a waiting output, an urgent task) forces the next interval to
/// begin exactly when this one ends.
fn check_r6_extent(
    result: TraceRef<'_>,
    views: &[IntervalView],
    events: &[TraceEvent],
    report: &mut ConformanceReport,
) {
    for (k, view) in views.iter().enumerate() {
        for unit in [TraceUnit::Cpu, TraceUnit::Dma] {
            let mut ops: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.interval == k && e.unit == unit)
                .collect();
            ops.sort_by_key(|e| e.start);
            let mut cursor = view.start;
            for op in ops {
                if op.start != cursor {
                    report.push(
                        RuleTag::R6,
                        Some(op.job),
                        (k, k),
                        format!(
                            "{unit} operation starts at {} leaving a gap after {} \
                             (operations must chain from the interval start)",
                            op.start, cursor
                        ),
                    );
                }
                cursor = cursor.max(op.end);
            }
        }

        let Some(next) = views.get(k + 1) else {
            continue;
        };
        let pending = view.dma_copyins.iter().any(|&i| !events[i].canceled)
            || !view.cpu_execs.is_empty()
            || next.cpu_copyin.is_some();
        if pending && next.start != view.end {
            report.push(
                RuleTag::R6,
                None,
                (k, k + 1),
                format!(
                    "interval ends at {} with work pending, but the next interval \
                     starts at {}",
                    view.end, next.start
                ),
            );
        }
        // A completed copy-in must be consumed by an execution in the next
        // interval; an execution's output must be copied out in the next.
        if let Some(loaded) = view
            .dma_copyins
            .iter()
            .map(|&i| &events[i])
            .find(|e| !e.canceled)
        {
            let consumed = next.cpu_execs.iter().any(|&i| events[i].job == loaded.job);
            if !consumed {
                report.push(
                    RuleTag::R5,
                    Some(loaded.job),
                    (k, k + 1),
                    "job loaded by a completed copy-in does not execute in the \
                     next interval",
                );
            }
        }
        if let Some(&ex) = view.cpu_execs.first() {
            let out_next = next
                .dma_copyouts
                .iter()
                .any(|&i| events[i].job == events[ex].job);
            if !out_next {
                report.push(
                    RuleTag::R2,
                    Some(events[ex].job),
                    (k, k + 1),
                    "output of the executed job is not copied out at the start of \
                     the next interval",
                );
            }
        }
    }
    let _ = result;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Policy, ReleasePlan};
    use pmcs_core::window::test_task;
    use pmcs_model::{TaskId, TaskSet};

    fn run(
        tasks: Vec<pmcs_model::Task>,
        plan: Vec<(u32, Vec<i64>)>,
        policy: Policy,
    ) -> (TaskSet, SimResult) {
        let set = TaskSet::new(tasks).expect("valid task set");
        let plan = ReleasePlan::from_pairs(
            plan.into_iter()
                .map(|(t, v)| {
                    (
                        TaskId(t),
                        v.into_iter().map(Time::from_ticks).collect::<Vec<_>>(),
                    )
                })
                .collect(),
        );
        let r = simulate(&set, &plan, policy, Time::from_secs(1));
        (set, r)
    }

    fn cancel_scenario() -> (TaskSet, SimResult) {
        // LS τ0 released at t=5 cancels τ1's copy-in and goes urgent.
        run(
            vec![
                test_task(0, 10, 4, 1, 1_000, 0, true),
                test_task(1, 50, 10, 1, 1_000, 1, false),
            ],
            vec![(0, vec![5]), (1, vec![0])],
            Policy::Proposed,
        )
    }

    #[test]
    fn clean_proposed_trace_is_conformant() {
        let (set, r) = run(
            vec![
                test_task(0, 10, 4, 1, 100, 0, true),
                test_task(1, 20, 10, 3, 200, 1, false),
                test_task(2, 30, 5, 5, 300, 2, false),
            ],
            vec![(0, vec![5, 105]), (1, vec![0, 90]), (2, vec![0])],
            Policy::Proposed,
        );
        let report = check_conformance(&set, &r, true);
        assert!(report.is_conformant(), "{:#?}", report.diagnostics);
        assert!(report.intervals_checked > 0);
    }

    #[test]
    fn clean_cancellation_trace_is_conformant() {
        let (set, r) = cancel_scenario();
        assert!(
            r.events().iter().any(|e| e.canceled),
            "scenario must cancel"
        );
        let report = check_conformance(&set, &r, true);
        assert!(report.is_conformant(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn clean_wp_trace_is_conformant() {
        let (set, r) = run(
            vec![
                test_task(0, 10, 4, 1, 100, 0, false),
                test_task(1, 20, 10, 3, 200, 1, false),
            ],
            vec![(0, vec![5, 100]), (1, vec![0])],
            Policy::WaslyPellizzoni,
        );
        let report = check_conformance(&set, &r, false);
        assert!(report.is_conformant(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn nps_trace_is_not_applicable() {
        let (set, r) = run(
            vec![test_task(0, 10, 2, 2, 100, 0, false)],
            vec![(0, vec![0])],
            Policy::Nps,
        );
        let report = check_conformance(&set, &r, false);
        assert!(!report.applicable);
        assert!(!report.is_conformant());
    }

    /// Re-assembles a trace with one event replaced (the corruption hook
    /// used by the negative tests).
    fn tamper(r: &SimResult, f: impl Fn(&mut TraceEvent)) -> SimResult {
        let mut events = r.events().to_vec();
        for e in &mut events {
            f(e);
        }
        SimResult::from_parts(events, r.jobs().to_vec(), r.interval_starts().to_vec())
    }

    #[test]
    fn unjustified_cancellation_yields_r3() {
        let (set, r) = run(
            vec![
                test_task(0, 10, 4, 1, 1_000, 0, false),
                test_task(1, 50, 10, 1, 1_000, 1, false),
            ],
            vec![(0, vec![300]), (1, vec![0])],
            Policy::Proposed,
        );
        // Mark τ1's completed copy-in as canceled: no LS release justifies it.
        let bad = tamper(&r, |e| {
            if e.job.task() == TaskId(1) && e.phase == Phase::CopyIn {
                e.canceled = true;
            }
        });
        let report = check_conformance(&set, &bad, true);
        assert!(
            report.by_rule(RuleTag::R3).next().is_some(),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn wp_cancellation_yields_r3() {
        let (set, r) = cancel_scenario();
        // The same trace audited under WP rules: cancellation is illegal.
        let report = check_conformance(&set, &r, false);
        assert!(report
            .by_rule(RuleTag::R3)
            .any(|d| d.explanation.contains("WP")));
    }

    #[test]
    fn displaced_execution_yields_r5_and_r6() {
        let (set, r) = run(
            vec![
                test_task(0, 10, 2, 1, 1_000, 0, false),
                test_task(1, 10, 2, 1, 1_000, 1, false),
            ],
            vec![(0, vec![0]), (1, vec![0])],
            Policy::Proposed,
        );
        // Push an execution one tick late: it no longer starts at its
        // interval start (R5) and leaves a gap in the CPU chain (R6).
        let bad = tamper(&r, |e| {
            if e.phase == Phase::Execute && e.job.task() == TaskId(1) {
                e.start += Time::from_ticks(1);
                e.end += Time::from_ticks(1);
            }
        });
        let report = check_conformance(&set, &bad, true);
        assert!(
            report.by_rule(RuleTag::R5).next().is_some(),
            "{:#?}",
            report.diagnostics
        );
        assert!(
            report.by_rule(RuleTag::R6).next().is_some(),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn wrong_copyin_target_yields_r2() {
        let (set, r) = run(
            vec![
                test_task(0, 10, 2, 1, 1_000, 0, false),
                test_task(1, 10, 2, 1, 1_000, 1, false),
            ],
            vec![(0, vec![0]), (1, vec![0])],
            Policy::Proposed,
        );
        // Swap the first copy-in's beneficiary to the lower-priority job:
        // the higher-priority ready job is then overlooked.
        let victim = r
            .events()
            .iter()
            .find(|e| e.phase == Phase::CopyIn)
            .expect("a copy-in")
            .job;
        assert_eq!(victim.task(), TaskId(0));
        let bad = tamper(&r, |e| {
            if e.interval == 0 && e.phase == Phase::CopyIn {
                e.job = JobId::new(TaskId(1), 0);
            }
        });
        let report = check_conformance(&set, &bad, true);
        assert!(
            report.by_rule(RuleTag::R2).next().is_some(),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn torn_interval_yields_r1() {
        let (set, r) = run(
            vec![test_task(0, 10, 2, 2, 1_000, 0, false)],
            vec![(0, vec![0])],
            Policy::Proposed,
        );
        // Claim the execution happened in interval 0 (alongside its own
        // copy-in): two DMA/CPU roles collapse into one interval.
        let bad = tamper(&r, |e| {
            if e.phase == Phase::Execute {
                e.interval = 0;
            }
        });
        let report = check_conformance(&set, &bad, true);
        assert!(
            report.by_rule(RuleTag::R1).next().is_some()
                || report.by_rule(RuleTag::R5).next().is_some(),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn rule_tags_cross_reference_protocol_rules() {
        for (i, tag) in RuleTag::ALL.iter().enumerate() {
            assert_eq!(tag.rule().tag, format!("R{}", i + 1));
            assert_eq!(tag.tag(), tag.rule().tag);
        }
    }

    #[test]
    fn diagnostic_display_carries_rule_and_span() {
        let d = RuleDiagnostic {
            rule: RuleTag::R3,
            job: Some(JobId::new(TaskId(1), 0)),
            intervals: (2, 3),
            explanation: "example".into(),
        };
        let s = d.to_string();
        assert!(s.contains("[R3]") && s.contains("intervals 2-3") && s.contains("example"));
        assert!(
            s.contains("latency-sensitive task"),
            "statement text included"
        );
    }
}
