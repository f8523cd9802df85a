//! The `pmcs-serve` command-line driver.
//!
//! One subcommand, `listen`: bind the NDJSON-over-TCP admission-control
//! daemon, print `listening on <addr>`, serve until a client sends
//! `{"op":"shutdown"}`, then print `shut down`. To check a server's
//! answers, record any client's `{"req":…,"resp":…}` pairs and run
//! `pmcs-audit serve-replay` over the log.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::process::ExitCode;

use pmcs_serve::server::ServerConfig;

const USAGE: &str = "\
pmcs-serve — schedulability-as-a-service over NDJSON/TCP

USAGE:
    pmcs-serve listen [OPTIONS]

COMMANDS:
    listen   serve until a client sends {\"op\":\"shutdown\"}

OPTIONS:
    --addr <A>       bind address                  [default: 127.0.0.1:0]
    --workers <N>    worker threads (0 = one per core)     [default: 0]
    --capacity <N>   per-session task capacity      [default: unbounded]
    -h, --help       print this help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut server = ServerConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" | "--workers" | "--capacity" => {
                let Some(value) = it.next() else {
                    eprintln!("error: {arg} requires a value");
                    return ExitCode::FAILURE;
                };
                let ok = match arg.as_str() {
                    "--addr" => {
                        server.addr = value.clone();
                        true
                    }
                    "--workers" => value.parse().map(|v| server.workers = v).is_ok(),
                    _ => value
                        .parse()
                        .map(|v| server.session_capacity = Some(v))
                        .is_ok(),
                };
                if !ok {
                    eprintln!("error: invalid value {value:?} for {arg}");
                    return ExitCode::FAILURE;
                }
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => {
                eprintln!("error: unexpected argument {other:?}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    match command.as_deref() {
        Some("listen") => cmd_listen(&server),
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            print!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_listen(cfg: &ServerConfig) -> ExitCode {
    let server = match pmcs_serve::spawn(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    server.join();
    println!("shut down");
    ExitCode::SUCCESS
}
