//! Offline refutation replay of a server request/response log.
//!
//! A client of `pmcs-serve` records every request/response pair of its
//! connection as NDJSON lines `{"req":R,"resp":P}`. This module
//! re-derives every response *from scratch* — a shadow task set
//! per session, batch-analyzed with a fresh [`analyze_task_set`] after
//! each edit, no session state, no verdict cache, no shared delay cache —
//! and refutes any recorded response that differs byte-for-byte. A bug in
//! the incremental session layer, the wire codec, or the shared cache
//! therefore surfaces as a machine-readable `REFUTATION` line instead of
//! passing silently, mirroring the certificate checker's philosophy: the
//! checker shares no reuse machinery with the system it checks.
//!
//! Responses that depend on server load rather than analysis inputs
//! (`stats`) and capacity rejections (`session.over-capacity` reflects a
//! server *policy* the log does not record) are skipped, not checked.

use std::collections::HashMap;

use pmcs_cert::json::{parse_value, write_value, Value};
use pmcs_core::{analyze_task_set, CoreError, ExactEngine};
use pmcs_model::{Task, TaskSet};

use crate::proto::{
    decode_request, empty_report_value, encode_report, error_response, obj_get, ok_response,
    session_error, shutdown_value, Request, E_OVER_CAPACITY,
};

/// Outcome of replaying one log.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Log lines read.
    pub lines: usize,
    /// Responses re-derived and compared.
    pub checked: usize,
    /// Responses skipped (stats, capacity policy).
    pub skipped: usize,
    /// One machine-readable line per mismatch, `REFUTATION`-prefixed.
    pub refutations: Vec<String>,
}

impl ReplayOutcome {
    /// `true` iff every checked response matched the re-derivation.
    pub fn ok(&self) -> bool {
        self.refutations.is_empty()
    }
}

/// Re-derives the expected response for `request` against the shadow
/// sessions, mutating them exactly as the server would.
fn expected_response(shadows: &mut HashMap<u64, Vec<Task>>, request: &Request) -> Value {
    let report_for = |tasks: &[Task]| -> Value {
        if tasks.is_empty() {
            return ok_response(empty_report_value());
        }
        let set = match TaskSet::new(tasks.to_vec()) {
            Ok(s) => s,
            Err(e) => return error_response(&session_error(&CoreError::Model(e))),
        };
        match analyze_task_set(&set, &ExactEngine::default()) {
            Ok(report) => ok_response(encode_report(&report)),
            Err(e) => error_response(&session_error(&e)),
        }
    };
    match request {
        Request::Query { session } => report_for(shadows.entry(*session).or_default()),
        Request::Admit { session, task } => {
            let shadow = shadows.entry(*session).or_default();
            shadow.push(task.clone());
            let resp = report_for(shadow);
            if obj_get(&resp, "error").is_some() {
                shadow.pop();
            }
            resp
        }
        Request::Remove { session, id } => {
            let shadow = shadows.entry(*session).or_default();
            let Some(pos) = shadow.iter().position(|t| t.id() == *id) else {
                return error_response(&session_error(&CoreError::Model(
                    pmcs_model::ModelError::UnknownTask(*id),
                )));
            };
            let removed = shadow.remove(pos);
            let resp = report_for(shadow);
            if obj_get(&resp, "error").is_some() {
                shadow.insert(pos, removed);
            }
            resp
        }
        Request::Update { session, id, task } => {
            let shadow = shadows.entry(*session).or_default();
            let Some(pos) = shadow.iter().position(|t| t.id() == *id) else {
                return error_response(&session_error(&CoreError::Model(
                    pmcs_model::ModelError::UnknownTask(*id),
                )));
            };
            let previous = std::mem::replace(&mut shadow[pos], task.clone());
            let resp = report_for(shadow);
            if obj_get(&resp, "error").is_some() {
                shadow[pos] = previous;
            }
            resp
        }
        Request::Partition {
            tasks,
            cores,
            heuristic,
            period,
            budget,
        } => crate::server::partition_value(
            tasks.clone(),
            *cores,
            *heuristic,
            *period,
            *budget,
            &ExactEngine::default(),
        ),
        Request::Shutdown => ok_response(shutdown_value()),
        Request::Stats => Value::Null, // unreachable: caller skips stats
    }
}

/// `true` when the recorded response is a capacity rejection — a server
/// policy the log cannot reproduce, so it is skipped, and the shadow
/// must not apply the operation either.
fn is_capacity_rejection(resp: &Value) -> bool {
    obj_get(resp, "error")
        .and_then(|e| obj_get(e, "code"))
        .is_some_and(|c| matches!(c, Value::Str(s) if s == E_OVER_CAPACITY))
}

/// Replays a request/response log, returning the refutation report.
pub fn replay_log(text: &str) -> ReplayOutcome {
    let mut outcome = ReplayOutcome::default();
    let mut shadows: HashMap<u64, Vec<Task>> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        outcome.lines += 1;
        let n = lineno + 1;
        let entry = match parse_value(line) {
            Ok(v) => v,
            Err(e) => {
                outcome
                    .refutations
                    .push(format!("REFUTATION line={n} kind=malformed-log detail={e}"));
                continue;
            }
        };
        let (Some(req), Some(resp)) = (obj_get(&entry, "req"), obj_get(&entry, "resp")) else {
            outcome.refutations.push(format!(
                "REFUTATION line={n} kind=malformed-log detail=missing req/resp"
            ));
            continue;
        };
        // A batch line pairs an array of requests with an array of
        // responses, entry-wise.
        let pairs: Vec<(&Value, &Value)> = match (req, resp) {
            (Value::Arr(reqs), Value::Arr(resps)) if reqs.len() == resps.len() => {
                reqs.iter().zip(resps.iter()).collect()
            }
            (Value::Arr(_), _) | (_, Value::Arr(_)) => {
                outcome.refutations.push(format!(
                    "REFUTATION line={n} kind=malformed-log detail=batch req/resp length mismatch"
                ));
                continue;
            }
            (r, p) => vec![(r, p)],
        };
        for (i, (req, resp)) in pairs.into_iter().enumerate() {
            let request = match decode_request(req) {
                Ok(r) => r,
                Err(e) => {
                    // The server would have rejected it the same way.
                    let expected = write_value(&error_response(&e));
                    if write_value(resp) == expected {
                        outcome.checked += 1;
                    } else {
                        outcome.refutations.push(format!(
                            "REFUTATION line={n} entry={i} op=? expected={expected} got={}",
                            write_value(resp)
                        ));
                    }
                    continue;
                }
            };
            if matches!(request, Request::Stats) || is_capacity_rejection(resp) {
                outcome.skipped += 1;
                continue;
            }
            let expected = write_value(&expected_response(&mut shadows, &request));
            let got = write_value(resp);
            if expected == got {
                outcome.checked += 1;
            } else {
                outcome.refutations.push(format!(
                    "REFUTATION line={n} entry={i} op={} session={} expected={expected} got={got}",
                    request.op(),
                    request.session().unwrap_or(0),
                ));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_request;
    use pmcs_model::{Priority, TaskId, Time};

    fn demo_task(id: u32, prio: u32, exec: i64) -> Task {
        Task::builder(TaskId(id))
            .exec(Time::from_ticks(exec))
            .copy_in(Time::from_ticks(2))
            .copy_out(Time::from_ticks(2))
            .sporadic(Time::from_ticks(100))
            .deadline(Time::from_ticks(100))
            .priority(Priority(prio))
            .build()
            .expect("valid task")
    }

    fn log_line(req: &Request, resp: &Value) -> String {
        format!(
            "{{\"req\":{},\"resp\":{}}}",
            write_value(&encode_request(req).expect("encodes")),
            write_value(resp)
        )
    }

    #[test]
    fn faithful_log_replays_clean() {
        let mut shadows = HashMap::new();
        let requests = vec![
            Request::Admit {
                session: 0,
                task: demo_task(0, 0, 10),
            },
            Request::Admit {
                session: 0,
                task: demo_task(1, 1, 20),
            },
            Request::Query { session: 0 },
            Request::Remove {
                session: 0,
                id: TaskId(0),
            },
            Request::Update {
                session: 0,
                id: TaskId(1),
                task: demo_task(1, 1, 15),
            },
        ];
        let mut log = String::new();
        for r in &requests {
            let resp = expected_response(&mut shadows, r);
            log.push_str(&log_line(r, &resp));
            log.push('\n');
        }
        let outcome = replay_log(&log);
        assert!(outcome.ok(), "refutations: {:?}", outcome.refutations);
        assert_eq!(outcome.checked, requests.len());
        assert_eq!(outcome.lines, requests.len());
    }

    #[test]
    fn tampered_response_is_refuted() {
        let mut shadows = HashMap::new();
        let admit = Request::Admit {
            session: 0,
            task: demo_task(0, 0, 10),
        };
        let good = expected_response(&mut shadows, &admit);
        // Flip the schedulable verdict inside the recorded response.
        let tampered = write_value(&good).replace("\"schedulable\":true", "\"schedulable\":false");
        let log = format!(
            "{{\"req\":{},\"resp\":{tampered}}}\n",
            write_value(&encode_request(&admit).expect("encodes"))
        );
        let outcome = replay_log(&log);
        assert_eq!(outcome.refutations.len(), 1);
        assert!(outcome.refutations[0].starts_with("REFUTATION line=1"));
        assert!(outcome.refutations[0].contains("op=admit"));
    }

    #[test]
    fn stats_lines_are_skipped() {
        let log = "{\"req\":{\"op\":\"stats\"},\"resp\":{\"ok\":{\"sessions\":1}}}\n";
        let outcome = replay_log(log);
        assert!(outcome.ok());
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.checked, 0);
    }

    #[test]
    fn malformed_log_lines_are_refuted() {
        let outcome = replay_log("not json\n{\"req\":{\"op\":\"stats\"}}\n");
        assert_eq!(outcome.refutations.len(), 2);
        assert!(outcome.refutations[0].contains("kind=malformed-log"));
    }
}
