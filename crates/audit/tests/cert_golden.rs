//! Golden certificate bundle: `pmcs-audit cert emit --tasks 3` must
//! reproduce `cert_emit_tasks3.json` byte for byte, so any change to the
//! certificate format or to the analysis it proves shows up as a diff of
//! that file.
//!
//! To accept an intended change, regenerate the file with
//! `cargo run --release -p pmcs-audit -- cert emit --tasks 3 --out
//! crates/audit/tests/cert_emit_tasks3.json`.

use std::process::Command;

#[test]
fn cert_emit_matches_the_golden_bundle() {
    let out = Command::new(env!("CARGO_BIN_EXE_pmcs-audit"))
        .args(["cert", "emit", "--tasks", "3"])
        .output()
        .expect("run pmcs-audit cert emit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_bytes!("cert_emit_tasks3.json");
    assert!(
        out.stdout == golden,
        "cert emit --tasks 3 diverged from tests/cert_emit_tasks3.json \
         ({} vs {} bytes)",
        out.stdout.len(),
        golden.len()
    );
}
