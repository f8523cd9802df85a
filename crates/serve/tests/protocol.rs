//! End-to-end protocol tests over real loopback sockets: every stable
//! error code is reachable, protocol errors never drop the connection,
//! batching is entry-wise, sessions are connection-private, server
//! responses are byte-identical to the from-scratch batch analyzer, and
//! the `pmcs-serve listen` binary serves concurrent clients whose logs
//! replay clean.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

use pmcs_cert::json::{parse_value, write_value, Value};
use pmcs_core::{analyze_task_set, ExactEngine};
use pmcs_model::{Priority, Task, TaskId, TaskSet, Time};
use pmcs_serve::proto::{
    encode_report, obj_get, E_BAD_FIELD, E_DUPLICATE_TASK, E_ENGINE, E_LINE_TOO_LONG, E_MALFORMED,
    E_MISSING_FIELD, E_OVER_CAPACITY, E_UNKNOWN_OP, E_UNKNOWN_TASK, MAX_LINE_BYTES,
};
use pmcs_serve::{replay_log, spawn, Server, ServerConfig};

fn start(capacity: Option<usize>) -> Server {
    spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        session_capacity: capacity,
    })
    .expect("bind loopback")
}

/// One client connection speaking NDJSON.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to server");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one line, returns the parsed response line.
    fn send(&mut self, line: &str) -> Value {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("write request");
        let mut resp = String::new();
        assert_ne!(
            self.reader.read_line(&mut resp).expect("read response"),
            0,
            "server closed the connection after {line:?}"
        );
        parse_value(resp.trim_end()).expect("response is valid JSON")
    }
}

fn error_code(resp: &Value) -> &str {
    match obj_get(resp, "error").and_then(|e| obj_get(e, "code")) {
        Some(Value::Str(s)) => s,
        other => panic!("expected an error response, got {other:?} in {resp:?}"),
    }
}

fn task_json(id: u32, exec: i64, prio: u32) -> String {
    format!(
        "{{\"id\":{id},\"exec\":{exec},\"copy_in\":2,\"copy_out\":2,\"deadline\":100,\
         \"priority\":{prio},\"arrival\":{{\"kind\":\"sporadic\",\"t\":100}}}}"
    )
}

fn admit_line(session: u64, id: u32, exec: i64, prio: u32) -> String {
    format!(
        "{{\"op\":\"admit\",\"session\":{session},\"task\":{}}}",
        task_json(id, exec, prio)
    )
}

fn demo_task(id: u32, exec: i64, prio: u32) -> Task {
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

#[test]
fn protocol_errors_have_stable_codes_and_keep_the_connection() {
    let server = start(None);
    let mut client = Client::connect(server.addr());

    let resp = client.send("this is not json");
    assert_eq!(error_code(&resp), E_MALFORMED);

    let resp = client.send("{\"op\":\"evict\"}");
    assert_eq!(error_code(&resp), E_UNKNOWN_OP);

    let resp = client.send("{\"op\":\"remove\"}");
    assert_eq!(error_code(&resp), E_MISSING_FIELD);

    let resp = client.send(
        "{\"op\":\"admit\",\"task\":{\"id\":0,\"exec\":1,\"copy_in\":1,\"copy_out\":1,\
         \"deadline\":50,\"priority\":0,\"arrival\":{\"kind\":\"bursty\",\"t\":9}}}",
    );
    assert_eq!(error_code(&resp), E_BAD_FIELD);

    // The connection survived four protocol errors in a row: a normal
    // request still succeeds.
    let resp = client.send(&admit_line(0, 0, 10, 0));
    assert!(obj_get(&resp, "ok").is_some(), "got {resp:?}");

    server.shutdown();
    server.join();
}

#[test]
fn over_long_line_is_rejected_and_the_connection_keeps_serving() {
    let server = start(None);
    let mut client = Client::connect(server.addr());

    for len in [MAX_LINE_BYTES + 1, 3 * MAX_LINE_BYTES] {
        let resp = client.send(&"x".repeat(len));
        assert_eq!(error_code(&resp), E_LINE_TOO_LONG);
    }

    // Each over-long line drew exactly one response and the rest of it
    // was skipped: the next line is read as a fresh request.
    let resp = client.send(&admit_line(0, 0, 10, 0));
    assert!(obj_get(&resp, "ok").is_some(), "got {resp:?}");

    // A line of exactly the cap is still served.
    let mut padded = admit_line(0, 1, 20, 1);
    padded.push_str(&" ".repeat(MAX_LINE_BYTES - padded.len()));
    let resp = client.send(&padded);
    assert!(obj_get(&resp, "ok").is_some(), "got {resp:?}");

    server.shutdown();
    server.join();
}

#[test]
fn session_errors_have_stable_codes() {
    let server = start(None);
    let mut client = Client::connect(server.addr());

    let resp = client.send("{\"op\":\"remove\",\"id\":7}");
    assert_eq!(error_code(&resp), E_UNKNOWN_TASK);

    let resp = client.send(&admit_line(0, 1, 10, 1));
    assert!(obj_get(&resp, "ok").is_some());
    let resp = client.send(&admit_line(0, 1, 10, 1));
    assert_eq!(error_code(&resp), E_DUPLICATE_TASK);

    server.shutdown();
    server.join();
}

#[test]
fn capacity_limit_rejects_with_over_capacity() {
    let server = start(Some(1));
    let mut client = Client::connect(server.addr());

    let resp = client.send(&admit_line(0, 0, 10, 0));
    assert!(obj_get(&resp, "ok").is_some());
    let resp = client.send(&admit_line(0, 1, 10, 1));
    assert_eq!(error_code(&resp), E_OVER_CAPACITY);

    server.shutdown();
    server.join();
}

#[test]
fn batch_requests_answer_entry_wise() {
    let server = start(None);
    let mut client = Client::connect(server.addr());

    let line = format!(
        "[{},{},{{\"op\":\"evict\"}},{{\"op\":\"query\"}}]",
        admit_line(0, 0, 10, 0),
        admit_line(0, 1, 20, 1),
    );
    let resp = client.send(&line);
    let Value::Arr(entries) = &resp else {
        panic!("batch must get an array response, got {resp:?}");
    };
    assert_eq!(entries.len(), 4);
    assert!(obj_get(&entries[0], "ok").is_some());
    assert!(obj_get(&entries[1], "ok").is_some());
    assert_eq!(error_code(&entries[2]), E_UNKNOWN_OP);
    // The final query sees both admits from earlier in the same batch.
    let verdicts = obj_get(&entries[3], "ok")
        .and_then(|r| obj_get(r, "verdicts"))
        .expect("query returns a report");
    let Value::Arr(verdicts) = verdicts else {
        panic!("verdicts must be an array");
    };
    assert_eq!(verdicts.len(), 2);

    server.shutdown();
    server.join();
}

#[test]
fn server_report_is_byte_identical_to_the_batch_analyzer() {
    let server = start(None);
    let mut client = Client::connect(server.addr());

    for (id, exec, prio) in [(0, 10, 0), (1, 20, 1), (2, 15, 2)] {
        let resp = client.send(&admit_line(0, id, exec, prio));
        assert!(obj_get(&resp, "ok").is_some(), "admit failed: {resp:?}");
    }
    let served = client.send("{\"op\":\"query\"}");
    let served = obj_get(&served, "ok").expect("query succeeds");

    let set = TaskSet::new(vec![
        demo_task(0, 10, 0),
        demo_task(1, 20, 1),
        demo_task(2, 15, 2),
    ])
    .expect("valid set");
    let report = analyze_task_set(&set, &ExactEngine::default()).expect("analyzes");
    assert_eq!(write_value(served), write_value(&encode_report(&report)));

    server.shutdown();
    server.join();
}

#[test]
fn sessions_are_isolated_within_and_across_connections() {
    let server = start(None);
    let mut a = Client::connect(server.addr());
    let mut b = Client::connect(server.addr());

    // Two sessions on one connection hold different task sets.
    assert!(obj_get(&a.send(&admit_line(0, 0, 10, 0)), "ok").is_some());
    assert!(obj_get(&a.send(&admit_line(1, 1, 20, 1)), "ok").is_some());
    let count = |resp: &Value| -> usize {
        match obj_get(resp, "ok").and_then(|r| obj_get(r, "verdicts")) {
            Some(Value::Arr(v)) => v.len(),
            other => panic!("expected a report, got {other:?}"),
        }
    };
    assert_eq!(count(&a.send("{\"op\":\"query\",\"session\":0}")), 1);
    assert_eq!(count(&a.send("{\"op\":\"query\",\"session\":1}")), 1);

    // Session 0 of another connection is empty: same id, different state.
    assert_eq!(count(&b.send("{\"op\":\"query\",\"session\":0}")), 0);
    // And b may admit the same task id without a duplicate error.
    assert!(obj_get(&b.send(&admit_line(0, 0, 10, 0)), "ok").is_some());

    server.shutdown();
    server.join();
}

#[test]
fn update_and_remove_round_trip_through_the_session() {
    let server = start(None);
    let mut client = Client::connect(server.addr());

    assert!(obj_get(&client.send(&admit_line(0, 0, 10, 0)), "ok").is_some());
    assert!(obj_get(&client.send(&admit_line(0, 1, 20, 1)), "ok").is_some());

    let update = format!(
        "{{\"op\":\"update\",\"id\":1,\"task\":{}}}",
        task_json(1, 30, 1)
    );
    let resp = client.send(&update);
    assert!(obj_get(&resp, "ok").is_some(), "update failed: {resp:?}");

    let resp = client.send("{\"op\":\"remove\",\"id\":0}");
    assert!(obj_get(&resp, "ok").is_some(), "remove failed: {resp:?}");

    // What remains is exactly the updated task 1.
    let served = client.send("{\"op\":\"query\"}");
    let served = obj_get(&served, "ok").expect("query succeeds");
    let set = TaskSet::new(vec![demo_task(1, 30, 1)]).expect("valid set");
    let report = analyze_task_set(&set, &ExactEngine::default()).expect("analyzes");
    assert_eq!(write_value(served), write_value(&encode_report(&report)));

    server.shutdown();
    server.join();
}

#[test]
fn stats_reports_shared_cache_hits_across_connections() {
    let server = start(None);
    // Two connections admit the same tasks: the second connection's
    // windows are already in the process-wide shared delay cache.
    for _ in 0..2 {
        let mut client = Client::connect(server.addr());
        for (id, exec, prio) in [(0, 10, 0), (1, 20, 1)] {
            let resp = client.send(&admit_line(0, id, exec, prio));
            assert!(obj_get(&resp, "ok").is_some());
        }
    }
    let mut control = Client::connect(server.addr());
    let stats = control.send("{\"op\":\"stats\"}");
    let stats = obj_get(&stats, "ok").expect("stats succeeds");
    let int = |key: &str| -> i128 {
        match obj_get(stats, key) {
            Some(Value::Int(i)) => *i,
            other => panic!("stats.{key} must be an integer, got {other:?}"),
        }
    };
    assert!(int("ops") >= 4, "stats: {stats:?}");
    assert!(int("cache_hits") > 0, "stats: {stats:?}");
    assert!(int("cache_misses") > 0, "stats: {stats:?}");

    server.shutdown();
    server.join();
}

/// A `pmcs-serve listen` process, killed if the test fails before
/// `shutdown`.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn listen_binary_serves_concurrent_clients_whose_logs_replay_clean() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_pmcs-serve"))
            .args(["listen", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start pmcs-serve listen"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("read the listening line");
    let addr: SocketAddr = line
        .trim_end()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"));

    let script = [
        admit_line(0, 0, 10, 0),
        admit_line(0, 1, 20, 1),
        admit_line(0, 2, 15, 2),
        "{\"op\":\"query\"}".to_string(),
        format!(
            "{{\"op\":\"update\",\"id\":1,\"task\":{}}}",
            task_json(1, 25, 1)
        ),
        "{\"op\":\"remove\",\"id\":0}".to_string(),
        "{\"op\":\"query\"}".to_string(),
    ];
    // Both connections run the script at once, each recording its own
    // `{"req":…,"resp":…}` log.
    let logs: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr);
                    script
                        .iter()
                        .map(|req| {
                            let resp = write_value(&client.send(req));
                            format!("{{\"req\":{req},\"resp\":{resp}}}\n")
                        })
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    for log in &logs {
        let outcome = replay_log(log);
        assert!(outcome.ok(), "refutations: {:?}", outcome.refutations);
        assert_eq!(outcome.checked, script.len());
    }

    let mut control = Client::connect(addr);
    let stats = control.send("{\"op\":\"stats\"}");
    let hits = obj_get(&stats, "ok").and_then(|s| obj_get(s, "cache_hits"));
    assert!(matches!(hits, Some(Value::Int(h)) if *h > 0), "{stats:?}");
    control.send("{\"op\":\"shutdown\"}");
    let status = daemon.0.wait().expect("wait for pmcs-serve");
    assert!(status.success(), "exit status {status}");
    line.clear();
    stdout
        .read_line(&mut line)
        .expect("read the shut-down line");
    assert_eq!(line, "shut down\n");
}

#[test]
fn shutdown_op_acknowledges_and_stops_the_server() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    let resp = client.send("{\"op\":\"shutdown\"}");
    let ack = obj_get(&resp, "ok").expect("shutdown acknowledged");
    assert!(matches!(obj_get(ack, "shutdown"), Some(Value::Bool(true))));
    // join() returning proves the listener and every worker exited.
    server.join();
}

#[test]
fn partition_places_tasks_and_reports_per_core() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    let line = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"tasks\":[{},{},{}]}}",
        task_json(0, 40, 0),
        task_json(1, 40, 1),
        task_json(2, 10, 2),
    );
    let resp = client.send(&line);
    let ok = obj_get(&resp, "ok").expect("partition succeeds");
    assert!(matches!(
        obj_get(ok, "schedulable"),
        Some(Value::Bool(true))
    ));
    let bus = obj_get(ok, "bus").expect("bus present");
    assert!(matches!(
        obj_get(bus, "kind"),
        Some(Value::Str(s)) if s == "crossbar"
    ));
    let cores = match obj_get(ok, "cores") {
        Some(Value::Arr(a)) => a,
        other => panic!("cores must be an array, got {other:?}"),
    };
    let placed: usize = cores
        .iter()
        .map(|c| match obj_get(c, "tasks") {
            Some(Value::Arr(t)) => t.len(),
            other => panic!("tasks must be an array, got {other:?}"),
        })
        .sum();
    assert_eq!(placed, 3, "every task is placed exactly once");
    for core in cores {
        let report = obj_get(core, "report").expect("per-core report");
        assert!(obj_get(report, "verdicts").is_some());
    }
    server.shutdown();
    server.join();
}

#[test]
fn partition_on_a_regulated_bus_reports_the_bus_and_admits_contention_aware() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    let line = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"period\":20,\"budget\":10,\
         \"heuristic\":\"worst-fit\",\"tasks\":[{},{}]}}",
        task_json(0, 20, 0),
        task_json(1, 20, 1),
    );
    let resp = client.send(&line);
    let ok = obj_get(&resp, "ok").expect("partition succeeds");
    assert!(
        matches!(obj_get(ok, "schedulable"), Some(Value::Bool(true))),
        "worst-fit spreads the two tasks, one per core: {ok:?}"
    );
    let bus = obj_get(ok, "bus").expect("bus present");
    assert!(matches!(
        obj_get(bus, "kind"),
        Some(Value::Str(s)) if s == "regulated"
    ));
    assert!(matches!(obj_get(bus, "period"), Some(Value::Int(20))));
    server.shutdown();
    server.join();
}

#[test]
fn partition_budget_search_returns_the_attempts_ledger() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    let line = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"period\":20,\"tasks\":[{},{}]}}",
        task_json(0, 40, 0),
        task_json(1, 40, 1),
    );
    let resp = client.send(&line);
    let ok = obj_get(&resp, "ok").expect("search completes");
    let attempts = match obj_get(ok, "attempts") {
        Some(Value::Arr(a)) => a,
        other => panic!("attempts must be an array, got {other:?}"),
    };
    assert!(!attempts.is_empty());
    for a in attempts {
        assert!(matches!(obj_get(a, "budget"), Some(Value::Int(q)) if *q > 0));
        assert!(obj_get(a, "schedulable").is_some());
    }
    server.shutdown();
    server.join();
}

#[test]
fn partition_rejects_inconsistent_bus_parameters() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    // A budget without a period is meaningless.
    let no_period = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"budget\":5,\"tasks\":[{}]}}",
        task_json(0, 10, 0),
    );
    assert_eq!(error_code(&client.send(&no_period)), E_BAD_FIELD);
    // Budgets exceeding the period violate ΣQ ≤ P.
    let oversubscribed = format!(
        "{{\"op\":\"partition\",\"cores\":4,\"period\":20,\"budget\":10,\"tasks\":[{}]}}",
        task_json(0, 10, 0),
    );
    assert_eq!(error_code(&client.send(&oversubscribed)), E_BAD_FIELD);
    // Budgets whose sum leaves the tick range cannot satisfy ΣQ ≤ P either.
    let overflowing = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"period\":{},\"budget\":{},\"tasks\":[{}]}}",
        i64::MAX,
        i64::MAX / 2 + 1,
        task_json(0, 10, 0),
    );
    assert_eq!(error_code(&client.send(&overflowing)), E_BAD_FIELD);
    // Unknown heuristics are named.
    let bad_heuristic = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"heuristic\":\"next-fit\",\"tasks\":[{}]}}",
        task_json(0, 10, 0),
    );
    assert_eq!(error_code(&client.send(&bad_heuristic)), E_BAD_FIELD);
    server.shutdown();
    server.join();
}

#[test]
fn partition_packing_failure_is_a_successful_unschedulable_response() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    // One core, two tasks that each saturate it: the second cannot fit.
    let line = format!(
        "{{\"op\":\"partition\",\"cores\":1,\"tasks\":[{},{}]}}",
        task_json(0, 90, 0),
        task_json(1, 90, 1),
    );
    let resp = client.send(&line);
    let ok = obj_get(&resp, "ok").expect("packing failure is not a wire error");
    assert!(matches!(
        obj_get(ok, "schedulable"),
        Some(Value::Bool(false))
    ));
    assert!(matches!(obj_get(ok, "unplaced"), Some(Value::Int(_))));
    server.shutdown();
    server.join();
}

#[test]
fn partition_with_an_overflowing_bus_period_is_an_engine_error() {
    let server = start(None);
    let mut client = Client::connect(server.addr());
    // Worst-fit puts one task on each core, so the cores contend. A
    // copy-in of 30 ticks spans three 10-tick budget windows, each stalled
    // for nearly i64::MAX/2 ticks: the inflated copy-in does not fit in a
    // tick count.
    let huge = i64::MAX / 2;
    let task = |id: u32| {
        format!(
            "{{\"id\":{id},\"exec\":10,\"copy_in\":30,\"copy_out\":2,\"deadline\":100,\
             \"priority\":{id},\"arrival\":{{\"kind\":\"sporadic\",\"t\":100}}}}"
        )
    };
    let line = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"period\":{huge},\"budget\":10,\
         \"heuristic\":\"worst-fit\",\"tasks\":[{},{}]}}",
        task(0),
        task(1),
    );
    assert_eq!(error_code(&client.send(&line)), E_ENGINE);
    // With 2-tick copies each inflated copy phase fits (about 2^62 ticks),
    // but the interference-free response `l + C + u` does not.
    let short_copies = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"period\":{huge},\"budget\":10,\
         \"heuristic\":\"worst-fit\",\"tasks\":[{},{}]}}",
        task_json(0, 10, 0),
        task_json(1, 10, 1),
    );
    assert_eq!(error_code(&client.send(&short_copies)), E_ENGINE);
    // At a third of the tick range each inflated copy phase is about
    // i64::MAX/3 ticks, so the inflation and the isolated response
    // `l + C + u` fit. Worst-fit pairs four tasks two per core, and
    // deadlines and periods of 3/4 of the range leave room for the fixed
    // point: it hands the DP a window with a competitor, whose interval
    // sum (over three copy phases) overflows inside the search.
    let third = i64::MAX / 3;
    let long = i64::MAX / 4 * 3;
    let paired = |id: u32| {
        format!(
            "{{\"id\":{id},\"exec\":10,\"copy_in\":2,\"copy_out\":2,\"deadline\":{long},\
             \"priority\":{id},\"arrival\":{{\"kind\":\"sporadic\",\"t\":{long}}}}}"
        )
    };
    let in_the_dp = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"period\":{third},\"budget\":10,\
         \"heuristic\":\"worst-fit\",\"tasks\":[{},{},{},{}]}}",
        paired(0),
        paired(1),
        paired(2),
        paired(3),
    );
    assert_eq!(error_code(&client.send(&in_the_dp)), E_ENGINE);
    // The budget search derives its budgets from the period too; an
    // unschedulable task makes it try every budget level.
    let search = format!(
        "{{\"op\":\"partition\",\"cores\":1,\"period\":{huge},\"tasks\":[{}]}}",
        task_json(0, 150, 0),
    );
    let resp = client.send(&search);
    let ok = obj_get(&resp, "ok").expect("the search completes");
    assert!(matches!(obj_get(ok, "attempts"), Some(Value::Arr(a)) if a.len() == 4));
    // The connection keeps serving.
    let ok = format!(
        "{{\"op\":\"partition\",\"cores\":2,\"tasks\":[{}]}}",
        task_json(0, 10, 0),
    );
    assert!(obj_get(&client.send(&ok), "ok").is_some());
    server.shutdown();
    server.join();
}
