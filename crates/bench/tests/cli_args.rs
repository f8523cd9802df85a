//! Every bench binary rejects an argument it does not know, before it
//! starts a run: a mistyped flag (`--set 5` for `--sets 5`) must not
//! silently fall back to the default run.

use std::process::Command;

fn rejects_bogus_argument(exe: &str) {
    let out = Command::new(exe)
        .arg("--bogus")
        .output()
        .expect("spawn bench binary");
    assert!(
        !out.status.success(),
        "{exe} accepted --bogus: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{exe}: {stderr}");
}

#[test]
fn ablation_rejects_unknown_arguments() {
    rejects_bogus_argument(env!("CARGO_BIN_EXE_ablation"));
}

#[test]
fn fig1_rejects_unknown_arguments() {
    rejects_bogus_argument(env!("CARGO_BIN_EXE_fig1"));
}

#[test]
fn runtime_table_rejects_unknown_arguments() {
    rejects_bogus_argument(env!("CARGO_BIN_EXE_runtime_table"));
}

#[test]
fn fig2_rejects_unknown_arguments() {
    rejects_bogus_argument(env!("CARGO_BIN_EXE_fig2"));
}

#[test]
fn multicore_rejects_unknown_arguments() {
    rejects_bogus_argument(env!("CARGO_BIN_EXE_multicore"));
}

#[test]
fn campaign_rejects_unknown_arguments() {
    rejects_bogus_argument(env!("CARGO_BIN_EXE_campaign"));
}
