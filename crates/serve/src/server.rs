//! The TCP server: listener, worker pool, per-connection sessions.
//!
//! One listener thread accepts connections and pushes them onto a shared
//! work queue; a fixed pool of worker threads pops connections and serves
//! each to completion — the same dynamic work-queue idiom as the
//! experiment harness's `parallel_map`, adapted from a finite item list
//! to an unbounded connection stream (hence a condvar'd deque instead of
//! an atomic cursor). A straggler connection never idles the other
//! workers.
//!
//! Every worker's sessions are built over one process-wide
//! [`SharedDelayCache`]: a window solved for any client is a hit for all
//! clients, which is what makes a warm admission-control server answer
//! repeat configurations in microseconds. Sessions themselves are
//! connection-private (see [`crate::proto`]), so the shared cache is the
//! *only* cross-connection state and it is content-addressed — responses
//! are byte-identical to a cold single-threaded server.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use pmcs_cert::json::{parse_value, write_value, Value};
use pmcs_core::{
    assign_budgets, partition, partition_regulated, AnalysisSession, DelayEngine, ExactEngine,
    Heuristic, SessionStats, SharedCachedEngine, SharedDelayCache,
};
use pmcs_model::{BusModel, Task, Time};

use crate::proto::{
    decode_request, encode_budget_search, encode_partition_failure, encode_partitioning,
    encode_report, error_response, ok_response, session_error, shutdown_value, Request, WireError,
    E_BAD_FIELD, E_LINE_TOO_LONG, E_MALFORMED, MAX_LINE_BYTES,
};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Per-session task capacity (`None` = unbounded).
    pub session_capacity: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            session_capacity: None,
        }
    }
}

/// Connection work queue: a condvar'd deque closed exactly once, after
/// which `pop` drains the backlog and then returns `None` to every
/// worker.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> Self {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Locks the queue state. The state is a deque and a flag that every
    /// critical section leaves consistent, so a lock poisoned by a
    /// panicking holder is recovered instead of cascading the panic into
    /// every later `push` and `pop`.
    fn lock(&self) -> MutexGuard<'_, (VecDeque<TcpStream>, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, stream: TcpStream) {
        let mut state = self.lock();
        state.0.push_back(stream);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut state = self.lock();
        state.1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.0.pop_front() {
                return Some(stream);
            }
            if state.1 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Process-wide server state shared by the listener and all workers.
struct Shared {
    addr: SocketAddr,
    cache: Arc<SharedDelayCache>,
    queue: ConnQueue,
    shutdown: AtomicBool,
    /// Mutating session operations committed server-wide.
    ops: AtomicU64,
    /// Per-task verdicts served from session verdict caches.
    reused: AtomicU64,
    /// Per-task verdicts computed fresh.
    fresh: AtomicU64,
    /// Live sessions across all connections.
    sessions: AtomicU64,
}

impl Shared {
    /// Flags shutdown and dials the listener so its blocking `accept`
    /// observes the flag. Idempotent.
    fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running server: its bound address plus the handles needed to wait
/// for (or force) termination.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without a client connection (equivalent to a
    /// `shutdown` op on the wire).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the server has shut down (a client sent `shutdown`,
    /// or [`Server::shutdown`] was called) and all workers drained.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds the listener and spawns the worker pool.
///
/// # Errors
///
/// Propagates socket errors from the initial bind.
pub fn spawn(cfg: &ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = if cfg.workers == 0 {
        thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        cfg.workers
    };
    let shared = Arc::new(Shared {
        addr,
        cache: Arc::new(SharedDelayCache::default()),
        queue: ConnQueue::new(),
        shutdown: AtomicBool::new(false),
        ops: AtomicU64::new(0),
        reused: AtomicU64::new(0),
        fresh: AtomicU64::new(0),
        sessions: AtomicU64::new(0),
    });

    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(thread::spawn(move || {
            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    shared.queue.push(stream);
                }
            }
            shared.queue.close();
        }));
    }
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        let capacity = cfg.session_capacity;
        threads.push(thread::spawn(move || {
            while let Some(stream) = shared.queue.pop() {
                handle_connection(stream, &shared, capacity);
            }
        }));
    }
    Ok(Server {
        addr,
        threads,
        shared,
    })
}

/// One connection's session state: the incremental analysis plus the last
/// stats snapshot, so only deltas are added to the server-wide counters
/// (no double-counting across requests).
struct Slot {
    session: AnalysisSession<SharedCachedEngine<ExactEngine>>,
    last: SessionStats,
}

type Sessions = HashMap<u64, Slot>;

fn handle_connection(stream: TcpStream, shared: &Shared, capacity: Option<usize>) {
    // A finite read timeout lets the worker notice a server-wide shutdown
    // while parked on an idle connection — without it, one lingering idle
    // client would keep `join` waiting forever.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(50)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut sessions: Sessions = HashMap::new();
    // Request bytes accumulate here across read timeouts: a timeout may
    // strike mid-line, and the partial line must survive until the rest
    // arrives. The `take` caps it one byte past `MAX_LINE_BYTES`, so an
    // over-long line is detected without buffering more than that.
    let mut buf: Vec<u8> = Vec::new();
    // Set while the tail of an over-long line is being skipped.
    let mut skipping = false;
    loop {
        let read = if skipping {
            reader.skip_until(b'\n')
        } else {
            let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
            (&mut reader).take(room).read_until(b'\n', &mut buf)
        };
        match read {
            Ok(0) => break, // EOF
            Ok(_) if skipping => skipping = false,
            Ok(_) => {
                let complete = buf.last() == Some(&b'\n');
                let reply = if !complete && buf.len() > MAX_LINE_BYTES {
                    skipping = true;
                    let detail = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    Some((
                        error_response(&WireError::new(E_LINE_TOO_LONG, detail)),
                        false,
                    ))
                } else {
                    let line = String::from_utf8_lossy(&buf);
                    let line = line.trim();
                    (!line.is_empty()).then(|| respond_line(line, &mut sessions, shared, capacity))
                };
                buf.clear();
                if let Some((response, stop)) = reply {
                    let mut out = write_value(&response);
                    out.push('\n');
                    if writer
                        .write_all(out.as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                    if stop {
                        shared.initiate_shutdown();
                        break;
                    }
                }
                if !complete && !skipping {
                    break; // unterminated final line: EOF follows
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    shared
        .sessions
        .fetch_sub(sessions.len() as u64, Ordering::Relaxed);
}

/// Evaluates one request line (a request object or an array of them) to
/// one response line; the bool asks the caller to stop serving.
fn respond_line(
    line: &str,
    sessions: &mut Sessions,
    shared: &Shared,
    capacity: Option<usize>,
) -> (Value, bool) {
    let parsed = match parse_value(line) {
        Ok(v) => v,
        Err(e) => return (error_response(&WireError::new(E_MALFORMED, e)), false),
    };
    match parsed {
        Value::Arr(items) => {
            let mut responses = Vec::with_capacity(items.len());
            let mut stop = false;
            for item in &items {
                let (resp, s) = respond_value(item, sessions, shared, capacity);
                responses.push(resp);
                stop |= s;
            }
            (Value::Arr(responses), stop)
        }
        single => respond_value(&single, sessions, shared, capacity),
    }
}

fn respond_value(
    v: &Value,
    sessions: &mut Sessions,
    shared: &Shared,
    capacity: Option<usize>,
) -> (Value, bool) {
    let request = match decode_request(v) {
        Ok(r) => r,
        Err(e) => return (error_response(&e), false),
    };
    match request {
        Request::Stats => (ok_response(stats_value(shared)), false),
        Request::Shutdown => (ok_response(shutdown_value()), true),
        Request::Partition {
            tasks,
            cores,
            heuristic,
            period,
            budget,
        } => (
            respond_partition(tasks, cores, heuristic, period, budget, shared),
            false,
        ),
        Request::Query { session } => {
            let slot = slot_for(sessions, shared, capacity, session);
            (ok_response(encode_report(slot.session.report())), false)
        }
        Request::Admit { session, task } => {
            let slot = slot_for(sessions, shared, capacity, session);
            let result = slot.session.admit(task).cloned();
            (finish_op(slot, shared, result), false)
        }
        Request::Remove { session, id } => {
            let slot = slot_for(sessions, shared, capacity, session);
            let result = slot.session.remove(id).cloned();
            (finish_op(slot, shared, result), false)
        }
        Request::Update { session, id, task } => {
            let slot = slot_for(sessions, shared, capacity, session);
            let result = slot.session.update(id, task).cloned();
            (finish_op(slot, shared, result), false)
        }
    }
}

/// Evaluates a stateless `partition` request over the shared delay
/// cache: contention-free packing without a `period`, contention-aware
/// packing on a uniform regulated bus with `period` + `budget`, and the
/// descending budget-assignment search with `period` alone. Packing
/// failures are *successful* responses (`schedulable:false`); only
/// engine faults and inconsistent bus parameters are errors.
fn respond_partition(
    tasks: Vec<Task>,
    cores: usize,
    heuristic: Heuristic,
    period: Option<Time>,
    budget: Option<Time>,
    shared: &Shared,
) -> Value {
    let engine = SharedCachedEngine::new(ExactEngine::default(), Arc::clone(&shared.cache));
    partition_value(tasks, cores, heuristic, period, budget, &engine)
}

/// The engine-generic body of [`respond_partition`]; the offline replay
/// checker re-derives partition responses through the same dispatch on a
/// fresh uncached engine (the request is stateless, so the cache is the
/// only machinery this shares with the live server).
pub(crate) fn partition_value(
    tasks: Vec<Task>,
    cores: usize,
    heuristic: Heuristic,
    period: Option<Time>,
    budget: Option<Time>,
    engine: &impl DelayEngine,
) -> Value {
    let outcome = match (period, budget) {
        (None, _) => partition(tasks, cores, heuristic, engine),
        (Some(p), Some(q)) => {
            let bus = match BusModel::uniform(p, cores, q) {
                Ok(bus) => bus,
                Err(e) => return error_response(&WireError::new(E_BAD_FIELD, e.to_string())),
            };
            partition_regulated(tasks, cores, &bus, heuristic, engine)
        }
        (Some(p), None) => {
            return match assign_budgets(tasks, cores, p, heuristic, engine) {
                Ok(search) => ok_response(encode_budget_search(&search)),
                Err(e) => error_response(&session_error(&e)),
            };
        }
    };
    match outcome {
        Ok(Ok(p)) => ok_response(encode_partitioning(&p)),
        Ok(Err(unplaced)) => ok_response(encode_partition_failure(&unplaced)),
        Err(e) => error_response(&session_error(&e)),
    }
}

fn slot_for<'a>(
    sessions: &'a mut Sessions,
    shared: &Shared,
    capacity: Option<usize>,
    id: u64,
) -> &'a mut Slot {
    sessions.entry(id).or_insert_with(|| {
        shared.sessions.fetch_add(1, Ordering::Relaxed);
        let engine = SharedCachedEngine::new(ExactEngine::default(), Arc::clone(&shared.cache));
        let session = match capacity {
            Some(cap) => AnalysisSession::with_capacity(engine, cap),
            None => AnalysisSession::new(engine),
        };
        Slot {
            session,
            last: SessionStats::default(),
        }
    })
}

/// Publishes the session's counter deltas and encodes the operation's
/// outcome.
fn finish_op(
    slot: &mut Slot,
    shared: &Shared,
    result: Result<pmcs_core::SchedulabilityReport, pmcs_core::CoreError>,
) -> Value {
    let now = slot.session.stats();
    shared
        .ops
        .fetch_add(now.ops - slot.last.ops, Ordering::Relaxed);
    shared.reused.fetch_add(
        now.verdicts_reused - slot.last.verdicts_reused,
        Ordering::Relaxed,
    );
    shared.fresh.fetch_add(
        now.verdicts_fresh - slot.last.verdicts_fresh,
        Ordering::Relaxed,
    );
    slot.last = now;
    match result {
        Ok(report) => ok_response(encode_report(&report)),
        Err(e) => error_response(&session_error(&e)),
    }
}

/// Server-wide counters: live sessions, committed ops, verdict reuse, and
/// the authoritative shared-cache statistics (counted shard-side, so the
/// numbers cover every worker without merging).
fn stats_value(shared: &Shared) -> Value {
    let cache = shared.cache.stats();
    let reused = shared.reused.load(Ordering::Relaxed);
    let fresh = shared.fresh.load(Ordering::Relaxed);
    let reuse_rate = if reused + fresh == 0 {
        0.0
    } else {
        reused as f64 / (reused + fresh) as f64
    };
    Value::Obj(
        [
            (
                "sessions",
                Value::Int(shared.sessions.load(Ordering::Relaxed) as i128),
            ),
            (
                "ops",
                Value::Int(shared.ops.load(Ordering::Relaxed) as i128),
            ),
            ("verdicts_reused", Value::Int(reused as i128)),
            ("verdicts_fresh", Value::Int(fresh as i128)),
            ("verdict_reuse_rate", crate::proto::float_str(reuse_rate)),
            ("cache_hits", Value::Int(cache.hits as i128)),
            ("cache_misses", Value::Int(cache.misses as i128)),
            ("cache_evictions", Value::Int(cache.evictions as i128)),
            (
                "shared_cache_hit_rate",
                crate::proto::float_str(cache.hit_rate()),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_drains_backlog_after_close() {
        let q = ConnQueue::new();
        // No streams queued: close makes pop return None immediately.
        q.close();
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_survives_a_panic_while_locked() {
        let q = ConnQueue::new();
        let poisoned = thread::scope(|s| {
            s.spawn(|| {
                let _guard = q.lock();
                panic!("worker panics while holding the queue lock");
            })
            .join()
        });
        assert!(poisoned.is_err() && q.state.is_poisoned());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let stream = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect to loopback");
        q.push(stream);
        q.close();
        assert!(q.pop().is_some(), "the backlog still drains");
        assert!(q.pop().is_none());
    }

    #[test]
    fn default_config_uses_ephemeral_loopback() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 0);
        assert!(cfg.session_capacity.is_none());
    }

    #[test]
    fn spawn_shutdown_join_terminates() {
        let server = spawn(&ServerConfig::default()).expect("bind loopback");
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
        server.join();
    }
}
