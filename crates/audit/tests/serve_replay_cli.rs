//! `pmcs-audit serve-replay` over a log recorded from a live server: the
//! faithful log is accepted, and a log with one flipped verdict is
//! refuted with a nonzero exit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pmcs_serve::{spawn, ServerConfig};

fn task_json(id: u32, exec: i64, prio: u32) -> String {
    format!(
        "{{\"id\":{id},\"exec\":{exec},\"copy_in\":2,\"copy_out\":2,\"deadline\":100,\
         \"priority\":{prio},\"arrival\":{{\"kind\":\"sporadic\",\"t\":100}}}}"
    )
}

/// Runs a short admit/update/remove/query script against an in-process
/// server and returns the `{"req":…,"resp":…}` log.
fn record_log() -> String {
    let server = spawn(&ServerConfig::default()).expect("bind loopback");
    let stream = TcpStream::connect(server.addr()).expect("connect to server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let script = [
        format!("{{\"op\":\"admit\",\"task\":{}}}", task_json(0, 10, 0)),
        format!("{{\"op\":\"admit\",\"task\":{}}}", task_json(1, 20, 1)),
        format!(
            "{{\"op\":\"update\",\"id\":1,\"task\":{}}}",
            task_json(1, 25, 1)
        ),
        "{\"op\":\"remove\",\"id\":0}".to_string(),
        "{\"op\":\"query\"}".to_string(),
    ];
    let mut log = String::new();
    for req in &script {
        writeln!(writer, "{req}").expect("write request");
        let mut resp = String::new();
        assert_ne!(reader.read_line(&mut resp).expect("read response"), 0);
        log.push_str(&format!("{{\"req\":{req},\"resp\":{}}}\n", resp.trim_end()));
    }
    server.shutdown();
    server.join();
    log
}

fn serve_replay(log: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmcs-audit"))
        .arg("serve-replay")
        .arg(log)
        .output()
        .expect("run pmcs-audit serve-replay")
}

#[test]
fn serve_replay_accepts_a_faithful_log_and_refutes_a_flipped_verdict() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let log = record_log();

    let faithful = dir.join("serve_replay_cli_faithful.log");
    std::fs::write(&faithful, &log).expect("write log");
    let out = serve_replay(&faithful);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("log ACCEPTED"), "stdout: {stdout}");

    let flipped = log.replacen("\"schedulable\":true", "\"schedulable\":false", 1);
    assert_ne!(flipped, log, "the log must hold a schedulable verdict");
    let tampered = dir.join("serve_replay_cli_tampered.log");
    std::fs::write(&tampered, &flipped).expect("write log");
    let out = serve_replay(&tampered);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("REFUTATION"), "stdout: {stdout}");
}
