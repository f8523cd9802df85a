//! Every bench binary rejects an argument it does not know, before it
//! starts a run: a mistyped flag (`--set 5` for `--sets 5`) must not
//! silently fall back to the default run. An empty run prints zero
//! ratios, never NaN.

use std::fs;
use std::path::Path;
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

#[test]
fn ablation_with_zero_sets_prints_zero_ratios() {
    let record = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ablation.json");
    let shipped = fs::read(&record).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["--sets", "0", "--jobs", "1"])
        .output()
        .expect("spawn ablation");
    // The run rewrites the shipped perf record; put it back.
    if let Some(bytes) = shipped {
        fs::write(&record, bytes).expect("restore the perf record");
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains('|')).skip(1).collect();
    assert_eq!(rows.len(), 8, "{stdout}");
    for row in rows {
        let values: Vec<&str> = row
            .split('|')
            .skip(1)
            .flat_map(str::split_whitespace)
            .collect();
        assert_eq!(values.len(), 5, "{row}");
        assert!(values.iter().all(|v| v.parse::<f64>() == Ok(0.0)), "{row}");
    }
}
