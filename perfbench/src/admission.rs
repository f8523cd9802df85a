//! `admission`: the `pmcs-serve` daemon, run as its own process with
//! default settings, under a paced load over loopback.
//!
//! Two connections each replay a seeded admit/remove/update/query
//! script over `SESSIONS` sessions, each seeded with its own n = 5 base
//! set. A fixed share of updates gives a task an execution time never
//! used before, so a stationary share of writes pays a cold DP solve.
//! The timed phase is a fixed ladder of paced rates; the top one is the
//! reference rate of the latency metrics. Every exchange is logged
//! and checked afterwards with `pmcs_serve::replay_log`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmcs_cert::json::{parse_value, write_value, Value};
use pmcs_core::{AnalysisSession, CoreError, SchedulabilityReport, SharedDelayCache};
use pmcs_model::{Task, Time};
use pmcs_serve::proto::{
    encode_report, encode_request, error_response, ok_response, session_error,
};
use pmcs_serve::{decode_request, replay_log, Request};
use pmcs_workload::{derive_seed, TaskSetConfig, TaskSetGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::Layers;
use crate::loadgen::{schedule, Conn, Sample};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, tail};
use crate::trace::{self, traced_stack, Layer, Profile, TracedStack};
use crate::RunOpts;

/// Load connections (each pins one server worker).
const CONNS: usize = 2;
/// Sessions per connection, each over its own base set.
const SESSIONS: u64 = 8;
/// Tasks in each base set.
const TASKS: usize = 5;
/// Utilization of each base set.
const UTILIZATION: f64 = 0.2;
/// Set-up repetitions. `setup_s` is the median over every session
/// set-up of every repetition, which the rare base set whose windows
/// take a hundred times the typical solve cannot move.
const SETUP_REPS: usize = 3;
/// The paced ladder: total rate (requests/s over both connections) and
/// share of the timed phase.
const LADDER: [(f64, f64); 3] = [(200.0, 0.3), (1000.0, 0.3), (2500.0, 0.4)];
/// Index of the reference rung, the top one: at lower rates the cores
/// idle between requests and latency varies from run to run with how
/// fast they wake up.
const REFERENCE: usize = 2;
/// Latency limit on the write tail for a rung to count toward goodput.
const WRITE_TAIL_LIMIT_US: f64 = 50_000.0;
/// A rung whose last response trails its last scheduled send by more
/// than this has a growing backlog.
const DRAIN_LIMIT_MS: f64 = 50.0;
/// The generator falling this far behind its schedule invalidates a run.
const LAG_LIMIT_MS: f64 = 200.0;

const SCRIPT_STREAM: u64 = 0xad_0000;
const BASE_STREAM: u64 = 0xad_1000;
const CYCLE_STREAM: u64 = 0xad_2000;
/// Writes in one session cycle (half a walk, half its undo).
const CYCLE: usize = 24;

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The request line.
    pub line: String,
    /// `false` for `query`.
    pub write: bool,
}

/// A connection's script: each session's set-up, then single-request
/// operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Per session: one batch line admitting its base set, then one pass
    /// over its write cycle, which leaves every cycle configuration in
    /// the window cache and the session back at its base set.
    pub setups: Vec<Vec<String>>,
    /// The operation stream.
    pub ops: Vec<Op>,
}

fn line_of(r: &Request) -> String {
    write_value(&encode_request(r).expect("generated tasks are wire-representable"))
}

fn with_exec(base: &Task, exec: i64) -> Task {
    Task::builder(base.id())
        .exec(Time::from_ticks(exec.max(1)))
        .copy_in(base.copy_in())
        .copy_out(base.copy_out())
        .arrival(base.arrival().clone())
        .deadline(base.deadline())
        .priority(base.priority())
        .build()
        .expect("a task with a smaller execution time stays valid")
}

/// The script of connection `conn`: `ops` operations over `SESSIONS`
/// sessions, 30 % `query` and 70 % writes.
///
/// Each session loops over a fixed cycle of `CYCLE` writes — a random
/// walk of removes, admits and updates followed by its exact undo — so
/// once a cycle has run, its configurations are all in the window cache.
/// One write in fourteen instead gives a present task an execution time
/// never used before in the run, and the session's next write restores
/// it: the cache-miss rate stays stationary instead of decaying to zero.
pub fn script(seed: u64, conn: usize, ops: usize) -> Script {
    struct Session {
        catalog: Vec<Task>,
        current: Vec<Option<Task>>,
        cycle: Vec<(usize, Option<Task>)>,
        pos: usize,
        revert: Option<(usize, Task)>,
        fresh: Vec<i64>,
    }
    let mut sessions: Vec<Session> = (0..SESSIONS)
        .map(|s| {
            let set = TaskSetGenerator::new(
                TaskSetConfig {
                    n: TASKS,
                    utilization: UTILIZATION,
                    ..TaskSetConfig::default()
                },
                derive_seed(seed, BASE_STREAM + conn as u64, s),
            )
            .generate();
            let catalog = set.tasks().to_vec();
            let cycle = cycle(&catalog, derive_seed(seed, CYCLE_STREAM + conn as u64, s));
            Session {
                current: catalog.iter().cloned().map(Some).collect(),
                fresh: vec![0; catalog.len()],
                catalog,
                cycle,
                pos: 0,
                revert: None,
            }
        })
        .collect();
    let setups = sessions
        .iter()
        .enumerate()
        .map(|(s, sess)| {
            let session = s as u64;
            let entries: Vec<String> = sess
                .catalog
                .iter()
                .map(|t| {
                    line_of(&Request::Admit {
                        session,
                        task: t.clone(),
                    })
                })
                .collect();
            let mut current: Vec<Option<Task>> = sess.catalog.iter().cloned().map(Some).collect();
            let mut lines = vec![format!("[{}]", entries.join(","))];
            for (i, next) in &sess.cycle {
                lines.push(line_of(&write_request(
                    session,
                    &sess.catalog[*i],
                    &current[*i],
                    next.clone(),
                )));
                current[*i] = next.clone();
            }
            lines
        })
        .collect();

    let mut out = Vec::with_capacity(ops);
    for k in 0..ops {
        let mut rng =
            StdRng::seed_from_u64(derive_seed(seed, SCRIPT_STREAM + conn as u64, k as u64));
        let session = rng.gen_range(0..SESSIONS);
        let sess = &mut sessions[session as usize];
        let roll = rng.gen_range(0u32..100);
        let (i, next) = if roll < 30 {
            out.push(Op {
                line: line_of(&Request::Query { session }),
                write: false,
            });
            continue;
        } else if let Some((i, task)) = sess.revert.take() {
            (i, Some(task))
        } else if roll < 35 {
            let present: Vec<usize> = (0..sess.current.len())
                .filter(|&i| sess.current[i].is_some())
                .collect();
            let i = present[rng.gen_range(0..present.len())];
            let now = sess.current[i].clone().expect("present");
            let base = sess.catalog[i].exec().as_ticks();
            // Strictly between 3/4 and all of the original: never a
            // cycle value, never repeated within the run.
            sess.fresh[i] += 1;
            let exec = base * 3 / 4 + 1 + sess.fresh[i] % (base / 4 - 1).max(1);
            sess.revert = Some((i, now));
            (i, Some(with_exec(&sess.catalog[i], exec)))
        } else {
            let step = sess.cycle[sess.pos].clone();
            sess.pos = (sess.pos + 1) % sess.cycle.len();
            step
        };
        let req = write_request(session, &sess.catalog[i], &sess.current[i], next);
        sess.current[i] = match &req {
            Request::Remove { .. } => None,
            Request::Admit { task, .. } | Request::Update { task, .. } => Some(task.clone()),
            _ => unreachable!("writes only"),
        };
        out.push(Op {
            line: line_of(&req),
            write: true,
        });
    }
    Script { setups, ops: out }
}

/// The write that takes a task from its `current` state (`None` =
/// absent) to `next`.
fn write_request(session: u64, base: &Task, current: &Option<Task>, next: Option<Task>) -> Request {
    match (current, next) {
        (Some(_), None) => Request::Remove {
            session,
            id: base.id(),
        },
        (None, Some(task)) => Request::Admit { session, task },
        (Some(_), Some(task)) => Request::Update {
            session,
            id: task.id(),
            task,
        },
        (None, None) => unreachable!("cycles never remove an absent task"),
    }
}

/// A session's write cycle over `catalog`: `CYCLE / 2` random legal
/// steps (remove, admit, or an update to a quarter of the original
/// execution time), then their undo in reverse order, so the cycle ends
/// where it began. Each step names a task index and its next state
/// (`None` = absent).
fn cycle(catalog: &[Task], seed: u64) -> Vec<(usize, Option<Task>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state: Vec<Option<Task>> = catalog.iter().cloned().map(Some).collect();
    let mut forward = Vec::with_capacity(CYCLE / 2);
    let mut undo = Vec::with_capacity(CYCLE / 2);
    while forward.len() < CYCLE / 2 {
        let i = rng.gen_range(0..catalog.len());
        let present = state.iter().filter(|t| t.is_some()).count();
        let next = match (&state[i], rng.gen_range(0u32..3)) {
            (None, _) => Some(catalog[i].clone()),
            (Some(_), 0) if present > 2 => None,
            (Some(now), _) => {
                let quarters = rng.gen_range(1i64..=4);
                let exec = (catalog[i].exec().as_ticks() * quarters / 4).max(1);
                if exec == now.exec().as_ticks() {
                    continue;
                }
                Some(with_exec(&catalog[i], exec))
            }
        };
        undo.push((i, state[i].clone()));
        forward.push((i, next.clone()));
        state[i] = next;
    }
    forward.extend(undo.into_iter().rev());
    forward
}

/// A running `pmcs-serve listen` process, killed if dropped unfinished.
struct Server {
    child: Child,
    addr: String,
    /// Kept open so the server's closing line never meets a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("listen")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} listen did not report its address (got {line:?})",
                    bin.display()
                )))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for the process to exit after a `shutdown` op.
    fn wait(mut self) -> io::Result<()> {
        let give_up = Instant::now() + Duration::from_secs(20);
        while Instant::now() < give_up {
            if let Some(status) = self.child.try_wait()? {
                let mut rest = String::new();
                self.stdout.read_to_string(&mut rest)?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not exit after shutdown"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs `f` once per connection, each on its own thread.
fn per_conn<T: Send>(
    conns: &mut [Conn],
    f: impl Fn(usize, &mut Conn) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let f = &f;
                scope.spawn(move || f(c, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Every exchange of one connection, in order.
#[derive(Default)]
struct Log {
    lines: Vec<String>,
    responses: Vec<String>,
}

impl Log {
    fn push(&mut self, line: &str, response: &str) {
        self.lines.push(line.to_string());
        self.responses.push(response.to_string());
    }

    fn ndjson(&self) -> String {
        let mut out = String::new();
        for (req, resp) in self.lines.iter().zip(&self.responses) {
            out.push_str(&format!("{{\"req\":{req},\"resp\":{resp}}}\n"));
        }
        out
    }
}

/// One set-up: server bound, scripts generated, connections open, and
/// every session set up.
struct Setup {
    server: Server,
    conns: Vec<Conn>,
    scripts: Vec<Script>,
    logs: Vec<Log>,
    /// Seconds each session's set-up took, per connection.
    session_setups: Vec<Vec<f64>>,
}

fn set_up(opts: &RunOpts, ops_per_conn: usize) -> io::Result<Setup> {
    let server = Server::start(&opts.serve_bin)?;
    let scripts: Vec<Script> = (0..CONNS)
        .map(|c| script(opts.seed, c, ops_per_conn))
        .collect();
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(&server.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let warm = per_conn(&mut conns, |c, conn| {
        let mut log = Log::default();
        let mut times = Vec::with_capacity(scripts[c].setups.len());
        for lines in &scripts[c].setups {
            let t0 = Instant::now();
            for line in lines {
                let response = conn.call(line)?;
                log.push(line, &response);
            }
            times.push(t0.elapsed().as_secs_f64());
        }
        Ok((log, times))
    })?;
    let (logs, session_setups) = warm.into_iter().unzip();
    Ok(Setup {
        server,
        conns,
        scripts,
        logs,
        session_setups,
    })
}

fn shut_down(setup: Setup) -> io::Result<(String, Option<f64>)> {
    let Setup {
        server, mut conns, ..
    } = setup;
    let stats = conns[0].call("{\"op\":\"stats\"}")?;
    let rss = peak_rss_mb(&server.pid());
    conns[0].call("{\"op\":\"shutdown\"}")?;
    drop(conns);
    server.wait()?;
    Ok((stats, rss))
}

/// One rung's or phase's samples, with each request's op index.
struct Phase {
    samples: Vec<Vec<(usize, Sample)>>,
    drain_ms: f64,
}

fn is_error(response: &str) -> bool {
    response.starts_with("{\"error\"")
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> io::Result<Report> {
    let mut r = Report::default();
    let secs = opts.seconds;
    let ladder_ops: usize = LADDER
        .iter()
        .map(|&(rate, share)| (rate / CONNS as f64 * share * secs).ceil() as usize)
        .sum();
    let ops_per_conn = ladder_ops;

    let mut setups = Vec::new();
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = set_up(opts, ops_per_conn)?;
        totals.push(t0.elapsed().as_secs_f64());
        setups.extend(s.session_setups.iter().flatten());
        if rep + 1 < SETUP_REPS {
            shut_down(s)?;
        } else {
            setup = Some(s);
        }
    }
    let mut setup = setup.expect("at least one set-up");

    // The paced ladder.
    let mut next_op = 0;
    let mut phases = Vec::new();
    let mut ladder_s = 0.0;
    for &(rate, share) in &LADDER {
        let count = (rate / CONNS as f64 * share * secs).ceil() as usize;
        let range = next_op..next_op + count;
        next_op += count;
        let start = Instant::now();
        let scripts = &setup.scripts;
        let samples = per_conn(&mut setup.conns, |c, conn| {
            let lines: Vec<String> = scripts[c].ops[range.clone()]
                .iter()
                .map(|op| op.line.clone())
                .collect();
            let offsets = schedule(count, rate / CONNS as f64, c as f64 / CONNS as f64);
            let samples = conn.paced(&lines, &offsets, start)?;
            Ok(range.clone().zip(samples).collect::<Vec<_>>())
        })?;
        ladder_s += start.elapsed().as_secs_f64();
        let last_sched = samples
            .iter()
            .flatten()
            .map(|(_, s)| s.sched_ns)
            .max()
            .unwrap_or(0);
        let last_recv = samples
            .iter()
            .flatten()
            .map(|(_, s)| s.recv_ns)
            .max()
            .unwrap_or(0);
        phases.push(Phase {
            samples,
            drain_ms: last_recv.saturating_sub(last_sched) as f64 * 1e-6,
        });
    }

    // Log every exchange, then stats and shutdown on a load connection.
    let mut logs = std::mem::take(&mut setup.logs);
    for phase in &phases {
        for (c, samples) in phase.samples.iter().enumerate() {
            for (k, s) in samples {
                logs[c].push(&setup.scripts[c].ops[*k].line, &s.response);
            }
        }
    }
    let scripts = setup.scripts.clone();
    let (stats, server_rss) = shut_down(setup)?;
    r.note(format!("server stats {stats}"));
    r.detail("peak_rss_mb", server_rss.unwrap_or(0.0), "MB");

    // Correctness: every exchange re-derived from scratch.
    let outcomes: Vec<pmcs_serve::ReplayOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .map(|log| scope.spawn(move || replay_log(&log.ndjson())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let exchanged: usize = logs.iter().map(|l| l.lines.len()).sum();
    let errors = logs
        .iter()
        .flat_map(|l| &l.responses)
        .filter(|resp| is_error(resp))
        .count();
    let refutations: usize = outcomes.iter().map(|o| o.refutations.len()).sum();
    for o in &outcomes {
        if let Some(first) = o.refutations.first() {
            r.note(first.clone());
        }
    }
    r.attempted += exchanged as u64;
    r.failed += (errors + refutations) as u64;
    r.detail(
        "replay_checked",
        outcomes.iter().map(|o| o.checked).sum::<usize>() as f64,
        "count",
    );
    r.detail("replay_refutations", refutations as f64, "count");
    r.detail("error_responses", errors as f64, "count");

    // Latency per rung, from each request's scheduled send time.
    let mut lag_ms_max = 0.0f64;
    let mut goodput = 0.0;
    for (i, (&(rate, _), phase)) in LADDER.iter().zip(&phases).enumerate() {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut failed = 0;
        for (c, samples) in phase.samples.iter().enumerate() {
            for (k, s) in samples {
                lag_ms_max = lag_ms_max.max(s.lag_ms());
                failed += usize::from(is_error(&s.response));
                if scripts[c].ops[*k].write {
                    writes.push(s.latency_us());
                } else {
                    reads.push(s.latency_us());
                }
            }
        }
        let write_tail = tail(&writes);
        let ok = write_tail.value <= WRITE_TAIL_LIMIT_US
            && failed == 0
            && phase.drain_ms <= DRAIN_LIMIT_MS;
        if ok {
            goodput = rate;
        }
        let prefix = if i == REFERENCE {
            String::new()
        } else {
            format!("rung{rate}.")
        };
        r.detail(&format!("{prefix}read_us_p50"), median(&reads), "us");
        r.tail_detail(&format!("{prefix}read_us_tail"), tail(&reads), "us");
        r.detail(&format!("{prefix}write_us_p50"), median(&writes), "us");
        r.tail_detail(&format!("{prefix}write_us_tail"), write_tail, "us");
        r.detail(&format!("{prefix}drain_ms"), phase.drain_ms, "ms");
    }
    let ladder_qps = phases
        .iter()
        .flat_map(|p| &p.samples)
        .map(Vec::len)
        .sum::<usize>() as f64
        / ladder_s;
    r.detail("reference_rate", LADDER[REFERENCE].0, "req/s");
    r.detail("goodput_qps", goodput, "req/s");
    r.detail("ladder_qps", ladder_qps, "req/s");
    r.detail("loadgen.lag_ms_max", lag_ms_max, "ms");
    r.check("generator_kept_schedule", lag_ms_max <= LAG_LIMIT_MS);
    let digest = {
        let mut d = crate::Digest::new();
        for log in &logs {
            for resp in &log.responses {
                d.str(resp);
            }
        }
        d.finish()
    };
    r.note(format!("verdict_digest exchanges{exchanged}={digest:016x}"));

    let reference = &phases[REFERENCE];
    if !opts.trace {
        r.metric("setup_s", median(&setups), "s");
        r.metric("throughput_per_s", ladder_qps, "1/s");
        r.detail("setup_total_s", median(&totals), "s");
        return Ok(r);
    }

    // Traced run: replay every exchange in process through the calls the
    // server makes, once plain and once traced, each on a fresh cache.
    let plain = replay_in_process(&logs, false);
    let traced = replay_in_process(&logs, true);
    r.check("replay_matches_server", plain.matches && traced.matches);
    // Wait = socket latency minus in-process service time, per request
    // of the reference rung.
    let mut wait_us = Vec::new();
    for (c, samples) in reference.samples.iter().enumerate() {
        for (k, s) in samples {
            // The log holds the session set-ups, then op k.
            let index = scripts[c].setups.iter().map(Vec::len).sum::<usize>() + k;
            wait_us.push(s.latency_us() - plain.service_us[c][index]);
        }
    }
    let layers = Layers {
        profile: Profile::of(&traced.recorders),
        session_ops: traced.session_ops,
        verdicts_reused: traced.verdicts_reused,
        verdicts_fresh: traced.verdicts_fresh,
        cache_evictions: traced.evictions,
        wait_us,
        lag_ms_max,
        overhead_frac: traced.thread_s / plain.thread_s - 1.0,
        wall_s: traced.thread_s,
        ..Layers::default()
    };
    layers.emit(&mut r);
    opts.write_spans("admission", &traced.recorders);
    Ok(r)
}

/// An in-process replay of every logged exchange.
struct InProcess {
    matches: bool,
    service_us: Vec<Vec<f64>>,
    session_ops: u64,
    verdicts_reused: u64,
    verdicts_fresh: u64,
    evictions: u64,
    thread_s: f64,
    recorders: Vec<trace::Recorder>,
}

type Sessions = HashMap<u64, AnalysisSession<TracedStack>>;

/// One connection's in-process replay: whether every response matched,
/// per-request service times, session counters (ops, reused, fresh),
/// thread seconds and spans.
type ConnReplay = (bool, Vec<f64>, [u64; 3], f64, trace::Recorder);

/// Answers one request object the way the server does.
fn respond(v: &Value, sessions: &mut Sessions, cache: &Arc<SharedDelayCache>, id: u64) -> Value {
    let request = match trace::span(Layer::Decode, id, || decode_request(v)) {
        Ok(req) => req,
        Err(e) => return error_response(&e),
    };
    let finish = |result: Result<SchedulabilityReport, CoreError>| match result {
        Ok(report) => trace::span(Layer::Encode, id, || ok_response(encode_report(&report))),
        Err(e) => error_response(&session_error(&e)),
    };
    let Some(session) = request.session() else {
        return Value::Null;
    };
    let slot = sessions
        .entry(session)
        .or_insert_with(|| AnalysisSession::new(traced_stack(Arc::clone(cache))));
    match request {
        Request::Query { .. } => trace::span(Layer::Encode, id, || {
            ok_response(encode_report(slot.report()))
        }),
        Request::Admit { task, .. } => finish(trace::span(Layer::Session, id, || {
            slot.admit(task).cloned()
        })),
        Request::Remove { id: task, .. } => finish(trace::span(Layer::Session, id, || {
            slot.remove(task).cloned()
        })),
        Request::Update {
            id: task,
            task: new,
            ..
        } => finish(trace::span(Layer::Session, id, || {
            slot.update(task, new).cloned()
        })),
        _ => Value::Null,
    }
}

fn replay_in_process(logs: &[Log], traced: bool) -> InProcess {
    let cache = Arc::new(SharedDelayCache::default());
    let outs: Vec<ConnReplay> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, log)| {
                let cache = &cache;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    if traced {
                        trace::install();
                    }
                    let mut sessions = Sessions::new();
                    let mut matches = true;
                    let mut service_us = Vec::with_capacity(log.lines.len());
                    for (k, (line, want)) in log.lines.iter().zip(&log.responses).enumerate() {
                        let id = ((c as u64) << 32) | k as u64;
                        let begin = Instant::now();
                        let parsed = trace::span(Layer::Decode, id, || parse_value(line));
                        let response = match parsed {
                            Ok(Value::Arr(items)) => Value::Arr(
                                items
                                    .iter()
                                    .map(|v| respond(v, &mut sessions, cache, id))
                                    .collect(),
                            ),
                            Ok(v) => respond(&v, &mut sessions, cache, id),
                            Err(_) => Value::Null,
                        };
                        let text = trace::span(Layer::Encode, id, || write_value(&response));
                        service_us.push(begin.elapsed().as_secs_f64() * 1e6);
                        matches &= &text == want;
                    }
                    let mut counts = [0u64; 3];
                    for s in sessions.values() {
                        let st = s.stats();
                        counts[0] += st.ops;
                        counts[1] += st.verdicts_reused;
                        counts[2] += st.verdicts_fresh;
                    }
                    (
                        matches,
                        service_us,
                        counts,
                        t0.elapsed().as_secs_f64(),
                        trace::take(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut result = InProcess {
        matches: true,
        service_us: Vec::new(),
        session_ops: 0,
        verdicts_reused: 0,
        verdicts_fresh: 0,
        evictions: cache.stats().evictions,
        thread_s: 0.0,
        recorders: Vec::new(),
    };
    for (matches, service_us, counts, secs, rec) in outs {
        result.matches &= matches;
        result.service_us.push(service_us);
        result.session_ops += counts[0];
        result.verdicts_reused += counts[1];
        result.verdicts_fresh += counts[2];
        result.thread_s += secs;
        result.recorders.push(rec);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_scripts_and_two_seeds_differ() {
        let a = script(11, 0, 200);
        assert_eq!(a, script(11, 0, 200));
        assert_ne!(a, script(12, 0, 200));
        assert_ne!(
            a,
            script(11, 1, 200),
            "connections replay different scripts"
        );
        assert_eq!(a.setups.len(), SESSIONS as usize);
        assert!(a.setups.iter().all(|lines| lines.len() == 1 + CYCLE));
        assert_eq!(a.ops.len(), 200);
    }

    #[test]
    fn script_mix_keeps_its_shares_and_never_fails() {
        let s = script(3, 0, 2000);
        let writes = s.ops.iter().filter(|op| op.write).count();
        assert!((1300..=1500).contains(&writes), "writes {writes}");
        // Replaying the script against the from-scratch checker yields no
        // error responses: every op is legal for the session it targets.
        let mut log = Log::default();
        let mut sessions = Sessions::new();
        let cache = Arc::new(SharedDelayCache::default());
        for line in s
            .setups
            .iter()
            .flatten()
            .chain(s.ops.iter().take(300).map(|op| &op.line))
        {
            let v = parse_value(line).expect("valid json");
            let resp = match v {
                Value::Arr(items) => Value::Arr(
                    items
                        .iter()
                        .map(|v| respond(v, &mut sessions, &cache, 0))
                        .collect(),
                ),
                v => respond(&v, &mut sessions, &cache, 0),
            };
            let text = write_value(&resp);
            assert!(!text.contains("\"error\""), "{line} -> {text}");
            log.push(line, &text);
        }
        let outcome = replay_log(&log.ndjson());
        assert!(outcome.ok(), "{:?}", outcome.refutations.first());
    }

    #[test]
    fn a_cycle_ends_where_it_began() {
        let catalog = TaskSetGenerator::new(
            TaskSetConfig {
                n: TASKS,
                ..TaskSetConfig::default()
            },
            9,
        )
        .generate()
        .tasks()
        .to_vec();
        let steps = cycle(&catalog, 4);
        assert_eq!(steps.len(), CYCLE);
        let mut state: Vec<Option<Task>> = catalog.iter().cloned().map(Some).collect();
        for (i, next) in steps {
            assert!(
                state[i].is_some() || next.is_some(),
                "no remove of an absent task"
            );
            state[i] = next;
            assert!(state.iter().filter(|t| t.is_some()).count() >= 2);
        }
        assert_eq!(state, catalog.into_iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn fresh_updates_never_repeat_an_execution_time() {
        let s = script(5, 1, 3000);
        let mut seen = std::collections::HashSet::new();
        for op in &s.ops {
            let v = parse_value(&op.line).expect("valid json");
            if let Ok(Request::Update { session, task, .. }) = decode_request(&v) {
                let base_exec = task.exec().as_ticks();
                seen.insert((session, task.id(), base_exec));
            }
        }
        assert!(
            seen.len() > 100,
            "distinct update configurations: {}",
            seen.len()
        );
    }
}
