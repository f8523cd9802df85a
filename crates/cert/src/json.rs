//! Minimal self-contained JSON encoding of certificate bundles.
//!
//! The wire format is ordinary JSON whose numbers are always integers,
//! parsed as `i128`, so certificates survive a round trip bit-for-bit:
//! every certificate quantity is an integer tick count, index, or code.

use crate::types::{
    CertArrival, CertCase, CertChoice, CertRound, CertRoundEntry, CertTask, CertTaskSet,
    CertWcrtStep, CertWindow, CertWindowTask, CertificateSet, DelayCertificate, DpEntry,
    SchedCertificate, UpperProof, WcrtCertificate,
};

// ---------------------------------------------------------------------------
// Value tree
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A bare JSON number (always an integer in this format).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn req<'a>(&'a self, key: &str) -> Result<&'a Value, String> {
        self.get(key)
            .ok_or_else(|| format!("json: missing field `{key}`"))
    }

    fn as_int(&self) -> Result<i128, String> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(format!("json: expected integer, got {other:?}")),
        }
    }

    fn as_i64(&self) -> Result<i64, String> {
        i64::try_from(self.as_int()?).map_err(|_| "json: integer out of i64 range".to_string())
    }

    fn as_u64(&self) -> Result<u64, String> {
        u64::try_from(self.as_int()?).map_err(|_| "json: integer out of u64 range".to_string())
    }

    fn as_u32(&self) -> Result<u32, String> {
        u32::try_from(self.as_int()?).map_err(|_| "json: integer out of u32 range".to_string())
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("json: expected bool, got {other:?}")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("json: expected string, got {other:?}")),
        }
    }

    fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(a) => Ok(a),
            other => Err(format!("json: expected array, got {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes a [`Value`] tree to compact JSON.
pub fn write_value(v: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, v);
    out
}

fn write_into(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Str(s) => escape_into(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, item);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_into(out, val);
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "json: expected `{}` at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("json: bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("json: unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "json: non-integer number at byte {start} (floats travel as strings)"
            ));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "json: invalid utf-8 in number".to_string())?;
        s.parse::<i128>()
            .map(Value::Int)
            .map_err(|e| format!("json: bad integer {s:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("json: unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("json: truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "json: bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "json: bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "json: bad \\u code point".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err("json: bad escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "json: invalid utf-8 in string".to_string())?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("json: expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("json: expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Parses a JSON document into a [`Value`] tree.
pub fn parse_value(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("json: trailing data at byte {}", p.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn int(v: impl Into<i128>) -> Value {
    Value::Int(v.into())
}

fn encode_arrival(a: &CertArrival) -> Value {
    match a {
        CertArrival::Sporadic { min_inter_arrival } => obj(vec![
            ("kind", Value::Str("sporadic".into())),
            ("t", int(*min_inter_arrival)),
        ]),
        CertArrival::PeriodicJitter { period, jitter } => obj(vec![
            ("kind", Value::Str("periodic_jitter".into())),
            ("t", int(*period)),
            ("j", int(*jitter)),
        ]),
        CertArrival::Staircase { steps, tail_period } => obj(vec![
            ("kind", Value::Str("staircase".into())),
            (
                "steps",
                Value::Arr(
                    steps
                        .iter()
                        .map(|&(d, n)| Value::Arr(vec![int(d), int(n)]))
                        .collect(),
                ),
            ),
            ("tail", int(*tail_period)),
        ]),
    }
}

fn decode_arrival(v: &Value) -> Result<CertArrival, String> {
    match v.req("kind")?.as_str()? {
        "sporadic" => Ok(CertArrival::Sporadic {
            min_inter_arrival: v.req("t")?.as_i64()?,
        }),
        "periodic_jitter" => Ok(CertArrival::PeriodicJitter {
            period: v.req("t")?.as_i64()?,
            jitter: v.req("j")?.as_i64()?,
        }),
        "staircase" => {
            let mut steps = Vec::new();
            for s in v.req("steps")?.as_arr()? {
                let pair = s.as_arr()?;
                if pair.len() != 2 {
                    return Err("json: staircase step must be a pair".to_string());
                }
                steps.push((pair[0].as_i64()?, pair[1].as_u64()?));
            }
            Ok(CertArrival::Staircase {
                steps,
                tail_period: v.req("tail")?.as_i64()?,
            })
        }
        other => Err(format!("json: unknown arrival kind {other:?}")),
    }
}

fn encode_task_set(set: &CertTaskSet) -> Value {
    Value::Arr(
        set.tasks
            .iter()
            .map(|t| {
                obj(vec![
                    ("id", int(t.id)),
                    ("exec", int(t.exec)),
                    ("copy_in", int(t.copy_in)),
                    ("copy_out", int(t.copy_out)),
                    ("deadline", int(t.deadline)),
                    ("priority", int(t.priority)),
                    ("arrival", encode_arrival(&t.arrival)),
                ])
            })
            .collect(),
    )
}

fn decode_task_set(v: &Value) -> Result<CertTaskSet, String> {
    let mut tasks = Vec::new();
    for t in v.as_arr()? {
        tasks.push(CertTask {
            id: t.req("id")?.as_u32()?,
            exec: t.req("exec")?.as_i64()?,
            copy_in: t.req("copy_in")?.as_i64()?,
            copy_out: t.req("copy_out")?.as_i64()?,
            deadline: t.req("deadline")?.as_i64()?,
            priority: t.req("priority")?.as_u32()?,
            arrival: decode_arrival(t.req("arrival")?)?,
        });
    }
    Ok(CertTaskSet { tasks })
}

fn encode_window(w: &CertWindow) -> Value {
    obj(vec![
        ("case", int(w.case.code())),
        ("n", int(w.n_intervals)),
        (
            "tasks",
            Value::Arr(
                w.tasks
                    .iter()
                    .map(|t| {
                        obj(vec![
                            ("exec", int(t.exec)),
                            ("copy_in", int(t.copy_in)),
                            ("copy_out", int(t.copy_out)),
                            ("ls", Value::Bool(t.ls)),
                            ("hp", Value::Bool(t.hp)),
                            ("priority", int(t.priority)),
                            ("budget", int(t.budget)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("exec_i", int(w.exec_i)),
        ("copy_in_i", int(w.copy_in_i)),
        ("copy_out_i", int(w.copy_out_i)),
        ("priority_i", int(w.priority_i)),
        ("max_l", int(w.max_l)),
        ("max_u", int(w.max_u)),
    ])
}

fn decode_window(v: &Value) -> Result<CertWindow, String> {
    let mut tasks = Vec::new();
    for t in v.req("tasks")?.as_arr()? {
        tasks.push(CertWindowTask {
            exec: t.req("exec")?.as_i64()?,
            copy_in: t.req("copy_in")?.as_i64()?,
            copy_out: t.req("copy_out")?.as_i64()?,
            ls: t.req("ls")?.as_bool()?,
            hp: t.req("hp")?.as_bool()?,
            priority: t.req("priority")?.as_u32()?,
            budget: t.req("budget")?.as_u64()?,
        });
    }
    Ok(CertWindow {
        case: CertCase::from_code(v.req("case")?.as_u64()?)
            .ok_or_else(|| "json: unknown window case".to_string())?,
        n_intervals: v.req("n")?.as_u64()?,
        tasks,
        exec_i: v.req("exec_i")?.as_i64()?,
        copy_in_i: v.req("copy_in_i")?.as_i64()?,
        copy_out_i: v.req("copy_out_i")?.as_i64()?,
        priority_i: v.req("priority_i")?.as_u32()?,
        max_l: v.req("max_l")?.as_i64()?,
        max_u: v.req("max_u")?.as_i64()?,
    })
}

fn encode_upper(u: &UpperProof) -> Value {
    match u {
        UpperProof::DpTable(entries) => obj(vec![
            ("kind", Value::Str("dp".into())),
            (
                "entries",
                Value::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            let mut row = vec![int(e.k)];
                            row.extend(e.terms.iter().map(|&t| int(t)));
                            row.extend(e.budgets.iter().map(|&b| int(b)));
                            Value::Arr(row)
                        })
                        .collect(),
                ),
            ),
        ]),
        UpperProof::SafeCap => obj(vec![("kind", Value::Str("safe_cap".into()))]),
    }
}

fn decode_upper(v: &Value, num_tasks: usize) -> Result<UpperProof, String> {
    match v.req("kind")?.as_str()? {
        "dp" => {
            let mut entries = Vec::new();
            for e in v.req("entries")?.as_arr()? {
                let row = e.as_arr()?;
                if row.len() != 5 + num_tasks {
                    return Err(format!(
                        "json: dp entry has {} fields, expected {}",
                        row.len(),
                        5 + num_tasks
                    ));
                }
                entries.push(DpEntry {
                    k: row[0].as_u64()?,
                    terms: [
                        row[1].as_i64()?,
                        row[2].as_i64()?,
                        row[3].as_i64()?,
                        row[4].as_i64()?,
                    ],
                    budgets: row[5..]
                        .iter()
                        .map(|b| b.as_u64())
                        .collect::<Result<_, _>>()?,
                });
            }
            Ok(UpperProof::DpTable(entries))
        }
        "safe_cap" => Ok(UpperProof::SafeCap),
        other => Err(format!("json: unknown upper-proof kind {other:?}")),
    }
}

fn encode_delay_cert(c: &DelayCertificate) -> Value {
    obj(vec![
        ("window", encode_window(&c.window)),
        ("window_hash", int(c.window_hash)),
        ("claimed", int(c.claimed)),
        ("exact", Value::Bool(c.exact)),
        (
            "witness",
            match &c.witness {
                None => Value::Null,
                Some(w) => Value::Arr(w.iter().map(|c| int(c.code())).collect()),
            },
        ),
        ("upper", encode_upper(&c.upper)),
    ])
}

fn decode_delay_cert(v: &Value) -> Result<DelayCertificate, String> {
    let window = decode_window(v.req("window")?)?;
    let num_tasks = window.tasks.len();
    let witness = match v.req("witness")? {
        Value::Null => None,
        arr => Some(
            arr.as_arr()?
                .iter()
                .map(|c| c.as_u64().map(CertChoice::from_code))
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    Ok(DelayCertificate {
        window,
        window_hash: v.req("window_hash")?.as_u64()?,
        claimed: v.req("claimed")?.as_i64()?,
        exact: v.req("exact")?.as_bool()?,
        witness,
        upper: decode_upper(v.req("upper")?, num_tasks)?,
    })
}

fn encode_wcrt_cert(c: &WcrtCertificate) -> Value {
    obj(vec![
        ("task", int(c.task)),
        (
            "marking",
            Value::Arr(c.marking.iter().map(|&t| int(t)).collect()),
        ),
        ("case", int(c.case.code())),
        (
            "steps",
            Value::Arr(
                c.steps
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("t", int(s.window_len)),
                            ("delay", int(s.delay)),
                            ("exact", Value::Bool(s.exact)),
                            ("window", int(s.window_hash)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("case_b", c.case_b.map(int).unwrap_or(Value::Null)),
        ("wcrt", int(c.wcrt)),
        ("schedulable", Value::Bool(c.schedulable)),
    ])
}

fn decode_wcrt_cert(v: &Value) -> Result<WcrtCertificate, String> {
    let mut steps = Vec::new();
    for s in v.req("steps")?.as_arr()? {
        steps.push(CertWcrtStep {
            window_len: s.req("t")?.as_i64()?,
            delay: s.req("delay")?.as_i64()?,
            exact: s.req("exact")?.as_bool()?,
            window_hash: s.req("window")?.as_u64()?,
        });
    }
    Ok(WcrtCertificate {
        task: v.req("task")?.as_u32()?,
        marking: v
            .req("marking")?
            .as_arr()?
            .iter()
            .map(|t| t.as_u32())
            .collect::<Result<_, _>>()?,
        case: CertCase::from_code(v.req("case")?.as_u64()?)
            .ok_or_else(|| "json: unknown wcrt case".to_string())?,
        steps,
        case_b: match v.req("case_b")? {
            Value::Null => None,
            other => Some(other.as_i64()?),
        },
        wcrt: v.req("wcrt")?.as_i64()?,
        schedulable: v.req("schedulable")?.as_bool()?,
    })
}

fn encode_sched_cert(c: &SchedCertificate) -> Value {
    obj(vec![
        (
            "rounds",
            Value::Arr(
                c.rounds
                    .iter()
                    .map(|r| {
                        Value::Arr(
                            r.entries
                                .iter()
                                .map(|e| {
                                    obj(vec![
                                        ("task", int(e.task)),
                                        ("wcrt", int(e.wcrt)),
                                        ("schedulable", Value::Bool(e.schedulable)),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "promoted",
            Value::Arr(c.promoted.iter().map(|&t| int(t)).collect()),
        ),
        ("schedulable", Value::Bool(c.schedulable)),
    ])
}

fn decode_sched_cert(v: &Value) -> Result<SchedCertificate, String> {
    let mut rounds = Vec::new();
    for r in v.req("rounds")?.as_arr()? {
        let mut entries = Vec::new();
        for e in r.as_arr()? {
            entries.push(CertRoundEntry {
                task: e.req("task")?.as_u32()?,
                wcrt: e.req("wcrt")?.as_i64()?,
                schedulable: e.req("schedulable")?.as_bool()?,
            });
        }
        rounds.push(CertRound { entries });
    }
    Ok(SchedCertificate {
        rounds,
        promoted: v
            .req("promoted")?
            .as_arr()?
            .iter()
            .map(|t| t.as_u32())
            .collect::<Result<_, _>>()?,
        schedulable: v.req("schedulable")?.as_bool()?,
    })
}

/// Serializes a certificate bundle to a single JSON document.
pub fn encode_certificate_set(set: &CertificateSet) -> String {
    let v = obj(vec![
        ("version", int(set.version)),
        ("task_set", encode_task_set(&set.task_set)),
        (
            "windows",
            Value::Arr(set.windows.iter().map(encode_delay_cert).collect()),
        ),
        (
            "wcrts",
            Value::Arr(set.wcrts.iter().map(encode_wcrt_cert).collect()),
        ),
        (
            "sched",
            match &set.sched {
                None => Value::Null,
                Some(s) => encode_sched_cert(s),
            },
        ),
    ]);
    write_value(&v)
}

/// Parses a certificate bundle from its JSON document.
///
/// # Errors
///
/// Returns a `json:`-prefixed message on any syntactic or structural
/// mismatch. Semantic validity is the checker's job, not the parser's.
pub fn decode_certificate_set(text: &str) -> Result<CertificateSet, String> {
    let v = parse_value(text)?;
    let mut windows = Vec::new();
    for w in v.req("windows")?.as_arr()? {
        windows.push(decode_delay_cert(w)?);
    }
    let mut wcrts = Vec::new();
    for w in v.req("wcrts")?.as_arr()? {
        wcrts.push(decode_wcrt_cert(w)?);
    }
    Ok(CertificateSet {
        version: v.req("version")?.as_u32()?,
        task_set: decode_task_set(v.req("task_set")?)?,
        windows,
        wcrts,
        sched: match v.req("sched")? {
            Value::Null => None,
            s => Some(decode_sched_cert(s)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let v = obj(vec![
            ("a", int(1u64)),
            ("b", Value::Str("x\"\\\n".into())),
            ("c", Value::Arr(vec![Value::Null, Value::Bool(true)])),
        ]);
        let text = write_value(&v);
        assert_eq!(parse_value(&text).expect("round trip"), v);
    }

    #[test]
    fn rejects_bare_floats_and_trailing_data() {
        assert!(parse_value("1.5").is_err());
        assert!(parse_value("1e3").is_err());
        assert!(parse_value("{} {}").is_err());
        assert!(parse_value("[1,]").is_err());
    }
}
