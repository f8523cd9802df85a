//! Deterministic certificate tampering, for negative testing.
//!
//! Each helper applies one targeted corruption to a bundle and documents
//! the stable rejection code the checker must answer with. They exist so
//! CI can prove the checker actually *rejects* — a checker that accepts
//! everything passes every positive test.

use crate::types::{CertificateSet, DpEntry, UpperProof};

/// Drops the final choice from the first placement witness in the
/// bundle, leaving a witness of the wrong length.
///
/// The checker rejects the result with `witness.length`.
///
/// # Errors
///
/// Fails if no window certificate carries a witness.
pub fn corrupt_witness(bundle: &mut CertificateSet) -> Result<(), String> {
    for cert in &mut bundle.windows {
        if let Some(witness) = &mut cert.witness {
            if witness.pop().is_some() {
                return Ok(());
            }
        }
    }
    Err("corrupt: no window certificate carries a non-empty witness".to_string())
}

/// Decrements one recorded term in the first DP-table proof — modelling
/// an unsound dominance rule that pruned the true optimum and recorded a
/// smaller "best" for the state.
///
/// The checker rejects the result with `dp.bellman-mismatch`: the
/// tampered state's stored terms no longer match the one-step Bellman
/// re-derivation over its children.
///
/// # Errors
///
/// Fails if no window certificate carries a DP-table proof.
pub fn corrupt_dominance(bundle: &mut CertificateSet) -> Result<(), String> {
    for cert in &mut bundle.windows {
        if let UpperProof::DpTable(entries) = &mut cert.upper {
            if let Some(entry) = entries.last_mut() {
                let DpEntry { terms, .. } = entry;
                terms[0] -= 1;
                return Ok(());
            }
        }
    }
    Err("corrupt: no window certificate carries a DP-table proof".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CertCase, CertChoice, CertTaskSet, DelayCertificate};
    use crate::window::build_window;

    fn dp_bundle() -> CertificateSet {
        let task_set = CertTaskSet {
            tasks: vec![crate::types::CertTask {
                id: 0,
                exec: 10,
                copy_in: 3,
                copy_out: 2,
                deadline: 100,
                priority: 0,
                arrival: crate::types::CertArrival::Sporadic {
                    min_inter_arrival: 100,
                },
            }],
        };
        let window = build_window(&task_set, 0, &[], CertCase::Nls, 3).expect("window");
        let hash = window.content_hash();
        let mut bundle = CertificateSet::new(task_set);
        bundle.windows.push(DelayCertificate {
            window,
            window_hash: hash,
            claimed: 15,
            exact: true,
            witness: Some(vec![CertChoice::Idle]),
            upper: UpperProof::DpTable(vec![DpEntry {
                k: 0,
                budgets: vec![],
                terms: [10, 13, 10, 13],
            }]),
        });
        bundle
    }

    #[test]
    fn witness_corruption_triggers_length_rejection() {
        let mut bundle = dp_bundle();
        corrupt_witness(&mut bundle).expect("corruptible");
        let report = crate::check::check_certificate_set(&bundle);
        assert!(
            report.rejections.iter().any(|r| r.code == "witness.length"),
            "{:?}",
            report.rejections
        );
    }

    #[test]
    fn dominance_corruption_triggers_bellman_rejection() {
        let mut bundle = dp_bundle();
        corrupt_dominance(&mut bundle).expect("corruptible");
        let report = crate::check::check_certificate_set(&bundle);
        assert!(
            report
                .rejections
                .iter()
                .any(|r| r.code == "dp.bellman-mismatch"),
            "{:?}",
            report.rejections
        );
    }
}
