//! The NDJSON wire protocol of the admission-control server.
//!
//! One request per line, one response per line, plain TCP. The JSON
//! dialect is the certificate codec of [`pmcs_cert::json`]: bare numbers
//! are always integers and floats travel as strings, so responses
//! round-trip bit-for-bit through the offline replay checker.
//!
//! ## Requests
//!
//! ```json
//! {"op":"admit","session":0,"task":{"id":3,"exec":10,"copy_in":2,"copy_out":2,
//!   "deadline":100,"priority":3,"arrival":{"kind":"sporadic","t":100}}}
//! {"op":"remove","session":0,"id":3}
//! {"op":"update","session":0,"id":3,"task":{...}}
//! {"op":"query","session":0}
//! {"op":"partition","cores":2,"heuristic":"first-fit","tasks":[{...},...],
//!   "period":20,"budget":10}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! `partition` is stateless (it touches no session): it packs the posted
//! tasks onto `cores` cores with the named bin-packing heuristic.
//! Without `period` the platform is a contention-free crossbar; with
//! `period` and `budget` every core runs under uniform shared-bus
//! bandwidth regulation and admission uses contention-aware inflation;
//! with `period` alone the server searches descending uniform budgets
//! and returns the attempts ledger.
//!
//! `session` defaults to `0` and names a session *private to the
//! connection* — two connections using session 0 never see each other's
//! tasks (the shared delay cache below them is the only cross-connection
//! state, and it is content-addressed). A request line may also be a JSON
//! *array* of request objects: the response is then an array of response
//! objects, entry-wise, evaluated left to right in one network round
//! trip (request batching).
//!
//! ## Responses
//!
//! Success: `{"ok":REPORT}` where `REPORT` mirrors
//! [`SchedulabilityReport`]. Failure: `{"error":{"code":C,"detail":D}}`
//! where `C` is one of the stable [`ERROR_CODES`]; protocol errors never
//! drop the connection, so a client can recover from its own bad input.
//! That includes a request line longer than [`MAX_LINE_BYTES`]: it is
//! answered with `proto.line-too-long` and the rest of it is skipped.

use std::fmt;

use pmcs_cert::json::Value;
use pmcs_core::{
    BudgetSearch, CoreError, Heuristic, PartitionError, Partitioning, SchedulabilityReport,
};
use pmcs_model::{ArrivalModel, BusModel, ModelError, Priority, Task, TaskId, Time};

/// Longest request line the server reads, in bytes before its `\n`.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A request line longer than [`MAX_LINE_BYTES`]; the rest of it is
/// skipped unread and the connection keeps serving.
pub const E_LINE_TOO_LONG: &str = "proto.line-too-long";
/// Malformed JSON on the wire (parse failure).
pub const E_MALFORMED: &str = "proto.malformed-json";
/// Parsed, but not a request object (or an array of them).
pub const E_BAD_REQUEST: &str = "proto.bad-request";
/// The `op` field names no known operation.
pub const E_UNKNOWN_OP: &str = "proto.unknown-op";
/// A required field is absent.
pub const E_MISSING_FIELD: &str = "proto.missing-field";
/// A field is present but has the wrong type or an invalid value.
pub const E_BAD_FIELD: &str = "proto.bad-field";
/// An admitted task id (or priority) collides with an existing one.
pub const E_DUPLICATE_TASK: &str = "session.duplicate-task";
/// The referenced task id is not admitted in this session.
pub const E_UNKNOWN_TASK: &str = "session.unknown-task";
/// The session has reached its configured task capacity.
pub const E_OVER_CAPACITY: &str = "session.over-capacity";
/// The analysis engine failed (never caused by client input alone).
pub const E_ENGINE: &str = "engine.failure";

/// Every stable error code, for exhaustive negative tests.
pub const ERROR_CODES: &[&str] = &[
    E_LINE_TOO_LONG,
    E_MALFORMED,
    E_BAD_REQUEST,
    E_UNKNOWN_OP,
    E_MISSING_FIELD,
    E_BAD_FIELD,
    E_DUPLICATE_TASK,
    E_UNKNOWN_TASK,
    E_OVER_CAPACITY,
    E_ENGINE,
];

/// A protocol-level failure: a stable machine-readable code plus a
/// human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of [`ERROR_CODES`].
    pub code: &'static str,
    /// Human-readable explanation (not part of the stable contract).
    pub detail: String,
}

impl WireError {
    /// Creates an error with the given stable code.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        WireError {
            code,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit one task into a session and re-analyze.
    Admit {
        /// Connection-local session id.
        session: u64,
        /// The task to admit.
        task: Task,
    },
    /// Remove an admitted task and re-analyze.
    Remove {
        /// Connection-local session id.
        session: u64,
        /// Id of the task to remove.
        id: TaskId,
    },
    /// Replace an admitted task and re-analyze.
    Update {
        /// Connection-local session id.
        session: u64,
        /// Id of the task to replace.
        id: TaskId,
        /// The replacement task.
        task: Task,
    },
    /// Return the current report without mutating the session.
    Query {
        /// Connection-local session id.
        session: u64,
    },
    /// Partition a task set onto `cores` cores (stateless — touches no
    /// session), optionally under shared-bus bandwidth regulation.
    Partition {
        /// The tasks to place.
        tasks: Vec<Task>,
        /// Number of identical cores.
        cores: usize,
        /// Bin-packing heuristic (defaults to first-fit on the wire).
        heuristic: Heuristic,
        /// Bus replenishment period; absent means a contention-free
        /// crossbar.
        period: Option<Time>,
        /// Uniform per-core budget; absent with `period` present runs
        /// the descending budget-assignment search.
        budget: Option<Time>,
    },
    /// Return server-wide counters (sessions, ops, cache, verdict reuse).
    Stats,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

impl Request {
    /// The wire name of this operation.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Admit { .. } => "admit",
            Request::Remove { .. } => "remove",
            Request::Update { .. } => "update",
            Request::Query { .. } => "query",
            Request::Partition { .. } => "partition",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// The session this request addresses, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::Admit { session, .. }
            | Request::Remove { session, .. }
            | Request::Update { session, .. }
            | Request::Query { session } => Some(*session),
            Request::Partition { .. } | Request::Stats | Request::Shutdown => None,
        }
    }
}

// --- Value helpers ------------------------------------------------------
// `pmcs_cert::json::Value` keeps its accessors private; the protocol
// needs its own, returning stable wire errors instead of plain strings.

/// Looks up `key` in an object value.
pub fn obj_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn req_field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    obj_get(v, key).ok_or_else(|| WireError::new(E_MISSING_FIELD, format!("missing `{key}`")))
}

fn as_i64(v: &Value, key: &str) -> Result<i64, WireError> {
    match v {
        Value::Int(i) => i64::try_from(*i)
            .map_err(|_| WireError::new(E_BAD_FIELD, format!("`{key}` out of i64 range"))),
        _ => Err(WireError::new(
            E_BAD_FIELD,
            format!("`{key}` must be an integer"),
        )),
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, WireError> {
    match v {
        Value::Int(i) => u64::try_from(*i)
            .map_err(|_| WireError::new(E_BAD_FIELD, format!("`{key}` out of u64 range"))),
        _ => Err(WireError::new(
            E_BAD_FIELD,
            format!("`{key}` must be a non-negative integer"),
        )),
    }
}

fn as_u32(v: &Value, key: &str) -> Result<u32, WireError> {
    u32::try_from(as_u64(v, key)?)
        .map_err(|_| WireError::new(E_BAD_FIELD, format!("`{key}` out of u32 range")))
}

fn as_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, WireError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(WireError::new(
            E_BAD_FIELD,
            format!("`{key}` must be a string"),
        )),
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn int(v: i64) -> Value {
    Value::Int(v as i128)
}

/// Floats travel as shortest round-trip strings, like the certificate
/// codec.
pub fn float_str(v: f64) -> Value {
    Value::Str(format!("{v:?}"))
}

// --- Task codec ---------------------------------------------------------

fn decode_arrival(v: &Value) -> Result<ArrivalModel, WireError> {
    match as_str(req_field(v, "kind")?, "kind")? {
        "sporadic" => {
            let t = as_i64(req_field(v, "t")?, "t")?;
            if t <= 0 {
                return Err(WireError::new(E_BAD_FIELD, "`t` must be positive"));
            }
            Ok(ArrivalModel::Sporadic {
                min_inter_arrival: Time::from_ticks(t),
            })
        }
        "periodic_jitter" => {
            let t = as_i64(req_field(v, "t")?, "t")?;
            let j = as_i64(req_field(v, "j")?, "j")?;
            if t <= 0 || j < 0 {
                return Err(WireError::new(
                    E_BAD_FIELD,
                    "`t` must be positive and `j` non-negative",
                ));
            }
            Ok(ArrivalModel::PeriodicJitter {
                period: Time::from_ticks(t),
                jitter: Time::from_ticks(j),
            })
        }
        other => Err(WireError::new(
            E_BAD_FIELD,
            format!("unsupported arrival kind {other:?} (use sporadic | periodic_jitter)"),
        )),
    }
}

fn encode_arrival(a: &ArrivalModel) -> Result<Value, WireError> {
    match a {
        ArrivalModel::Sporadic { min_inter_arrival } => Ok(obj(vec![
            ("kind", Value::Str("sporadic".into())),
            ("t", int(min_inter_arrival.as_ticks())),
        ])),
        ArrivalModel::PeriodicJitter { period, jitter } => Ok(obj(vec![
            ("kind", Value::Str("periodic_jitter".into())),
            ("t", int(period.as_ticks())),
            ("j", int(jitter.as_ticks())),
        ])),
        other => Err(WireError::new(
            E_BAD_FIELD,
            format!("arrival model {other:?} is not representable on the wire"),
        )),
    }
}

/// Decodes a task object. Tasks arrive unmarked — the greedy analysis
/// starts all-NLS, so the wire carries no sensitivity field.
pub fn decode_task(v: &Value) -> Result<Task, WireError> {
    let id = TaskId(as_u32(req_field(v, "id")?, "id")?);
    let tick = |key: &str| -> Result<Time, WireError> {
        Ok(Time::from_ticks(as_i64(req_field(v, key)?, key)?))
    };
    Task::builder(id)
        .exec(tick("exec")?)
        .copy_in(tick("copy_in")?)
        .copy_out(tick("copy_out")?)
        .arrival(decode_arrival(req_field(v, "arrival")?)?)
        .deadline(tick("deadline")?)
        .priority(Priority(as_u32(req_field(v, "priority")?, "priority")?))
        .build()
        .map_err(|e| WireError::new(E_BAD_FIELD, format!("invalid task: {e}")))
}

/// Encodes a task as its wire object.
///
/// # Errors
///
/// [`E_BAD_FIELD`] for arrival models with no wire representation
/// (staircase curves).
pub fn encode_task(t: &Task) -> Result<Value, WireError> {
    Ok(obj(vec![
        ("id", int(t.id().0 as i64)),
        ("exec", int(t.exec().as_ticks())),
        ("copy_in", int(t.copy_in().as_ticks())),
        ("copy_out", int(t.copy_out().as_ticks())),
        ("deadline", int(t.deadline().as_ticks())),
        ("priority", int(t.priority().0 as i64)),
        ("arrival", encode_arrival(t.arrival())?),
    ]))
}

// --- Request codec ------------------------------------------------------

/// Decodes one request object (not an array — batching is the transport
/// layer's concern).
pub fn decode_request(v: &Value) -> Result<Request, WireError> {
    if !matches!(v, Value::Obj(_)) {
        return Err(WireError::new(E_BAD_REQUEST, "request must be an object"));
    }
    let session = match obj_get(v, "session") {
        Some(s) => as_u64(s, "session")?,
        None => 0,
    };
    match as_str(req_field(v, "op")?, "op")? {
        "admit" => Ok(Request::Admit {
            session,
            task: decode_task(req_field(v, "task")?)?,
        }),
        "remove" => Ok(Request::Remove {
            session,
            id: TaskId(as_u32(req_field(v, "id")?, "id")?),
        }),
        "update" => Ok(Request::Update {
            session,
            id: TaskId(as_u32(req_field(v, "id")?, "id")?),
            task: decode_task(req_field(v, "task")?)?,
        }),
        "query" => Ok(Request::Query { session }),
        "partition" => {
            let tasks = match req_field(v, "tasks")? {
                Value::Arr(items) => items
                    .iter()
                    .map(decode_task)
                    .collect::<Result<Vec<_>, _>>()?,
                _ => {
                    return Err(WireError::new(E_BAD_FIELD, "`tasks` must be an array"));
                }
            };
            let cores = usize::try_from(as_u64(req_field(v, "cores")?, "cores")?)
                .ok()
                .filter(|&m| m >= 1)
                .ok_or_else(|| WireError::new(E_BAD_FIELD, "`cores` must be at least 1"))?;
            let heuristic = match obj_get(v, "heuristic") {
                Some(h) => {
                    let name = as_str(h, "heuristic")?;
                    Heuristic::parse(name).ok_or_else(|| {
                        WireError::new(
                            E_BAD_FIELD,
                            format!(
                                "unknown heuristic {name:?} (use first-fit | best-fit | worst-fit)"
                            ),
                        )
                    })?
                }
                None => Heuristic::FirstFit,
            };
            let positive_tick = |key: &str| -> Result<Option<Time>, WireError> {
                match obj_get(v, key) {
                    Some(val) => {
                        let t = as_i64(val, key)?;
                        if t <= 0 {
                            return Err(WireError::new(
                                E_BAD_FIELD,
                                format!("`{key}` must be positive"),
                            ));
                        }
                        Ok(Some(Time::from_ticks(t)))
                    }
                    None => Ok(None),
                }
            };
            let period = positive_tick("period")?;
            let budget = positive_tick("budget")?;
            if budget.is_some() && period.is_none() {
                return Err(WireError::new(
                    E_BAD_FIELD,
                    "`budget` requires `period` (a budget without a replenishment period is \
                     meaningless)",
                ));
            }
            Ok(Request::Partition {
                tasks,
                cores,
                heuristic,
                period,
                budget,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::new(
            E_UNKNOWN_OP,
            format!("unknown op {other:?}"),
        )),
    }
}

/// Encodes a request as its wire object (the client half of the codec).
///
/// # Errors
///
/// [`E_BAD_FIELD`] when an embedded task is not wire-representable.
pub fn encode_request(r: &Request) -> Result<Value, WireError> {
    let op = |name: &str| ("op", Value::Str(name.into()));
    Ok(match r {
        Request::Admit { session, task } => obj(vec![
            op("admit"),
            ("session", int(*session as i64)),
            ("task", encode_task(task)?),
        ]),
        Request::Remove { session, id } => obj(vec![
            op("remove"),
            ("session", int(*session as i64)),
            ("id", int(id.0 as i64)),
        ]),
        Request::Update { session, id, task } => obj(vec![
            op("update"),
            ("session", int(*session as i64)),
            ("id", int(id.0 as i64)),
            ("task", encode_task(task)?),
        ]),
        Request::Query { session } => obj(vec![op("query"), ("session", int(*session as i64))]),
        Request::Partition {
            tasks,
            cores,
            heuristic,
            period,
            budget,
        } => {
            let mut pairs = vec![
                op("partition"),
                ("cores", int(*cores as i64)),
                ("heuristic", Value::Str(heuristic.to_string())),
                (
                    "tasks",
                    Value::Arr(
                        tasks
                            .iter()
                            .map(encode_task)
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                ),
            ];
            if let Some(p) = period {
                pairs.push(("period", int(p.as_ticks())));
            }
            if let Some(q) = budget {
                pairs.push(("budget", int(q.as_ticks())));
            }
            obj(pairs)
        }
        Request::Stats => obj(vec![op("stats")]),
        Request::Shutdown => obj(vec![op("shutdown")]),
    })
}

// --- Response codec -----------------------------------------------------

/// Wraps a payload as a success response `{"ok": payload}`.
pub fn ok_response(payload: Value) -> Value {
    obj(vec![("ok", payload)])
}

/// Encodes an error response `{"error":{"code":...,"detail":...}}`.
pub fn error_response(e: &WireError) -> Value {
    obj(vec![(
        "error",
        obj(vec![
            ("code", Value::Str(e.code.to_string())),
            ("detail", Value::Str(e.detail.clone())),
        ]),
    )])
}

/// Encodes a schedulability report as its wire object.
pub fn encode_report(r: &SchedulabilityReport) -> Value {
    obj(vec![
        ("schedulable", Value::Bool(r.schedulable())),
        ("rounds", int(r.rounds() as i64)),
        (
            "promoted",
            Value::Arr(
                r.assignment()
                    .promoted
                    .iter()
                    .map(|t| int(t.0 as i64))
                    .collect(),
            ),
        ),
        (
            "verdicts",
            Value::Arr(
                r.verdicts()
                    .iter()
                    .map(|v| {
                        obj(vec![
                            ("task", int(v.task.0 as i64)),
                            ("wcrt", int(v.wcrt.as_ticks())),
                            ("deadline", int(v.deadline.as_ticks())),
                            ("schedulable", Value::Bool(v.schedulable)),
                            ("ls", Value::Bool(v.sensitivity.is_ls())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a bus model: `{"kind":"crossbar"}` or
/// `{"kind":"regulated","period":P,"budgets":[Q0,Q1,...]}`.
pub fn encode_bus(bus: &BusModel) -> Value {
    match bus.period() {
        Some(period) => obj(vec![
            ("kind", Value::Str("regulated".into())),
            ("period", int(period.as_ticks())),
            (
                "budgets",
                Value::Arr(bus.budgets().iter().map(|q| int(q.as_ticks())).collect()),
            ),
        ]),
        None => obj(vec![("kind", Value::Str("crossbar".into()))]),
    }
}

/// Encodes a successful partitioning: the overall verdict, the bus, and
/// per-core task assignments with their schedulability reports (analyzed
/// under contention-aware inflation when the bus is regulated).
pub fn encode_partitioning(p: &Partitioning) -> Value {
    obj(vec![
        ("schedulable", Value::Bool(p.schedulable())),
        ("bus", encode_bus(p.platform.bus())),
        (
            "cores",
            Value::Arr(
                p.platform
                    .iter()
                    .zip(&p.reports)
                    .map(|((_, set), report)| {
                        obj(vec![
                            (
                                "tasks",
                                Value::Arr(
                                    set.tasks().iter().map(|t| int(t.id().0 as i64)).collect(),
                                ),
                            ),
                            ("report", encode_report(report)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a packing failure as a *success* response payload (the client
/// asked a well-formed question whose answer is "does not fit"):
/// `{"schedulable":false,"unplaced":ID,"cores":N}`.
pub fn encode_partition_failure(e: &PartitionError) -> Value {
    obj(vec![
        ("schedulable", Value::Bool(false)),
        ("unplaced", int(e.task.0 as i64)),
        ("cores", int(e.cores as i64)),
    ])
}

/// Encodes a budget-assignment search: the attempts ledger plus either
/// the winning partitioning or the failure verdict.
pub fn encode_budget_search(s: &BudgetSearch) -> Value {
    let attempts = Value::Arr(
        s.attempts
            .iter()
            .map(|a| {
                obj(vec![
                    ("budget", int(a.budget.as_ticks())),
                    ("schedulable", Value::Bool(a.schedulable)),
                ])
            })
            .collect(),
    );
    match &s.solution {
        Some(p) => {
            let mut v = encode_partitioning(p);
            if let Value::Obj(pairs) = &mut v {
                pairs.push(("attempts".to_string(), attempts));
            }
            v
        }
        None => obj(vec![
            ("schedulable", Value::Bool(false)),
            ("attempts", attempts),
        ]),
    }
}

/// The wire object of an *empty* session's report: trivially schedulable,
/// zero rounds. The offline replay checker needs this because
/// [`SchedulabilityReport`] offers no public empty constructor.
pub fn empty_report_value() -> Value {
    obj(vec![
        ("schedulable", Value::Bool(true)),
        ("rounds", int(0)),
        ("promoted", Value::Arr(Vec::new())),
        ("verdicts", Value::Arr(Vec::new())),
    ])
}

/// The wire response acknowledging a shutdown request.
pub fn shutdown_value() -> Value {
    obj(vec![("shutdown", Value::Bool(true))])
}

/// Maps a session-layer [`CoreError`] to its stable wire code.
pub fn session_error(e: &CoreError) -> WireError {
    let code = match e {
        CoreError::SessionCapacity { .. } => E_OVER_CAPACITY,
        CoreError::Model(ModelError::DuplicateTaskId(_))
        | CoreError::Model(ModelError::DuplicatePriority { .. }) => E_DUPLICATE_TASK,
        CoreError::Model(ModelError::UnknownTask(_)) => E_UNKNOWN_TASK,
        _ => E_ENGINE,
    };
    WireError::new(code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcs_cert::json::{parse_value, write_value};
    use pmcs_core::{analyze_task_set, ExactEngine};
    use pmcs_model::TaskSet;

    fn demo_task(id: u32, prio: u32) -> Task {
        Task::builder(TaskId(id))
            .exec(Time::from_ticks(10))
            .copy_in(Time::from_ticks(2))
            .copy_out(Time::from_ticks(2))
            .sporadic(Time::from_ticks(100))
            .deadline(Time::from_ticks(100))
            .priority(Priority(prio))
            .build()
            .expect("valid task")
    }

    #[test]
    fn task_round_trips_through_the_wire() {
        let t = demo_task(3, 1);
        let v = encode_task(&t).expect("sporadic task encodes");
        let text = write_value(&v);
        let back = decode_task(&parse_value(&text).expect("valid json")).expect("decodes");
        assert_eq!(back, t);
    }

    #[test]
    fn periodic_jitter_round_trips() {
        let t = Task::builder(TaskId(0))
            .exec(Time::from_ticks(5))
            .copy_in(Time::from_ticks(1))
            .copy_out(Time::from_ticks(1))
            .arrival(ArrivalModel::PeriodicJitter {
                period: Time::from_ticks(50),
                jitter: Time::from_ticks(3),
            })
            .deadline(Time::from_ticks(40))
            .priority(Priority(0))
            .build()
            .expect("valid task");
        let v = encode_task(&t).expect("encodes");
        let back = decode_task(&v).expect("decodes");
        assert_eq!(back, t);
    }

    #[test]
    fn request_round_trips() {
        for r in [
            Request::Admit {
                session: 2,
                task: demo_task(1, 0),
            },
            Request::Remove {
                session: 0,
                id: TaskId(1),
            },
            Request::Update {
                session: 1,
                id: TaskId(1),
                task: demo_task(1, 0),
            },
            Request::Query { session: 9 },
            Request::Partition {
                tasks: vec![demo_task(0, 0), demo_task(1, 1)],
                cores: 2,
                heuristic: Heuristic::WorstFit,
                period: Some(Time::from_ticks(20)),
                budget: Some(Time::from_ticks(10)),
            },
            Request::Partition {
                tasks: vec![demo_task(2, 2)],
                cores: 1,
                heuristic: Heuristic::FirstFit,
                period: None,
                budget: None,
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let v = encode_request(&r).expect("encodes");
            let back = decode_request(&v).expect("decodes");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn session_defaults_to_zero() {
        let v = parse_value(r#"{"op":"query"}"#).expect("valid json");
        assert_eq!(
            decode_request(&v).expect("decodes"),
            Request::Query { session: 0 }
        );
    }

    #[test]
    fn missing_and_bad_fields_have_stable_codes() {
        let missing = parse_value(r#"{"op":"remove"}"#).expect("valid json");
        assert_eq!(
            decode_request(&missing).expect_err("no id").code,
            E_MISSING_FIELD
        );
        let bad = parse_value(r#"{"op":"remove","id":"three"}"#).expect("valid json");
        assert_eq!(decode_request(&bad).expect_err("bad id").code, E_BAD_FIELD);
        let unknown = parse_value(r#"{"op":"evict"}"#).expect("valid json");
        assert_eq!(
            decode_request(&unknown).expect_err("bad op").code,
            E_UNKNOWN_OP
        );
        let non_obj = parse_value("[1,2]").expect("valid json");
        assert_eq!(
            decode_request(&non_obj).expect_err("not an object").code,
            E_BAD_REQUEST
        );
    }

    #[test]
    fn report_encoding_matches_the_batch_analyzer_shape() {
        let set = TaskSet::new(vec![demo_task(0, 0), demo_task(1, 1)]).expect("valid set");
        let report = analyze_task_set(&set, &ExactEngine::default()).expect("analyzes");
        let v = encode_report(&report);
        let text = write_value(&v);
        assert!(text.starts_with(r#"{"schedulable":"#));
        let parsed = parse_value(&text).expect("round trips");
        let verdicts = match obj_get(&parsed, "verdicts") {
            Some(Value::Arr(a)) => a,
            other => panic!("verdicts must be an array, got {other:?}"),
        };
        assert_eq!(verdicts.len(), 2);
    }

    #[test]
    fn core_errors_map_to_stable_codes() {
        assert_eq!(
            session_error(&CoreError::SessionCapacity { capacity: 4 }).code,
            E_OVER_CAPACITY
        );
        assert_eq!(
            session_error(&CoreError::Model(ModelError::DuplicateTaskId(TaskId(1)))).code,
            E_DUPLICATE_TASK
        );
        assert_eq!(
            session_error(&CoreError::Model(ModelError::UnknownTask(TaskId(1)))).code,
            E_UNKNOWN_TASK
        );
    }

    #[test]
    fn error_codes_are_unique_and_namespaced() {
        for (i, a) in ERROR_CODES.iter().enumerate() {
            assert!(
                a.starts_with("proto.") || a.starts_with("session.") || a.starts_with("engine."),
                "code {a} lacks a namespace"
            );
            for b in &ERROR_CODES[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
