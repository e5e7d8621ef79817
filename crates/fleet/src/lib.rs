//! The experiment-fleet driver behind `twoface-fleet`.
//!
//! `run_all_experiments.sh` used to be a shell loop; this crate is the
//! 0sim-runner-shaped replacement (see ROADMAP item 5): a std-only driver
//! that owns the experiment matrix, runs each job as a subprocess with a
//! timeout and one retry, writes a machine-readable
//! `results/fleet_report.json`, and — the part that turns `results/` from
//! snapshots into a guarded trajectory — diffs every produced
//! `results/*.json` against committed baselines under `baselines/results/`
//! with explicit per-field tolerance policy:
//!
//! * **gated** — simulated seconds, per-nonzero throughput, communication
//!   counters, and schema identity: bit-exact by default, or a declared
//!   relative band per field ([`diff::DECLARED_BANDS`]);
//! * **informational** — wall-clock measurements and report metadata
//!   (`date`, `harness`, `host_note`, anything whose path says `wall`,
//!   `_ns`, …): reported, never failing, because host time varies between
//!   runs.
//!
//! The modes mirror the CLI: `--check` re-diffs the tree and exits non-zero
//! naming every out-of-band field, `--bless` rewrites the baselines,
//! `--filter` selects a job subset, and the default mode runs the matrix
//! then checks.
//!
//! A failed check does not stop at *which* field drifted: every bench job
//! runs with `TWOFACE_PROFILE` pointed at a `results/<name>.profile.json`
//! sidecar, and [`attribution`] diffs that deterministic profile against
//! the blessed copy to print a ranked explanation of *why* — which phase
//! class and op kind moved, on which ranks, and what stayed put
//! (`--explain FILE` asks for the same breakdown on demand).

#![warn(missing_docs)]

pub mod attribution;
pub mod diff;
pub mod matrix;
pub mod report;
pub mod run;

use std::path::PathBuf;

/// The workspace root (the fleet crate lives at `<root>/crates/fleet`).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("fleet crate is two levels below the workspace root")
        .to_path_buf()
}

/// Today's UTC date as `YYYY-MM-DD`, for the report envelopes
/// (informational metadata, never baseline-gated).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(739), (1972, 1, 10));
        // Leap day.
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
    }

    #[test]
    fn today_is_plausible() {
        let today = today_utc();
        assert_eq!(today.len(), 10);
        assert!(today.starts_with("20"));
    }
}
