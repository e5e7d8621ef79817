//! Regression attribution: *why* did a gated field drift out of band?
//!
//! Every bench job runs with `TWOFACE_PROFILE` pointed at
//! `results/<name>.profile.json`, so next to each gated report sits a
//! deterministic [`ProfileSummary`] — per (phase class × op kind) event
//! counts, simulated seconds, elements moved, and per-rank time — and the
//! blessed copy of that artifact lives under `baselines/`. When `--check`
//! flags a report, this module diffs the two summaries and renders a ranked
//! explanation: the cells are ordered by |Δ simulated seconds| (ties broken
//! by |Δ events|, then by the stable cell key), each line naming the phase
//! class, op kind, and the ranks carrying the shift. Recovery activity
//! (retries, backoffs, faults) and the rank-imbalance ratio are reported as
//! totals, and the largest cells that did *not* move are listed so "the
//! one-sided side is unchanged" is visible at a glance.

use crate::diff::CheckReport;
use std::collections::BTreeSet;
use std::path::Path;
use twoface_net::{ProfileCell, ProfileSummary};

/// Cells rendered per explanation before the remainder is summarized.
const MAX_CHANGED_LINES: usize = 8;

/// Unchanged heavy cells mentioned for contrast.
const MAX_UNCHANGED_LINES: usize = 2;

/// Ranks listed per cell line before eliding.
const MAX_RANKS_LISTED: usize = 4;

/// One explained report: the ranked attribution for a gated file.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The gated report being explained.
    pub report: String,
    /// The repo-relative profile artifact the run side was read from.
    pub profile: String,
    /// Ranked human-readable attribution lines, most significant first.
    pub lines: Vec<String>,
}

/// Maps a gated report path to its profile artifact: `results/foo.json` →
/// `results/foo.profile.json`, and a profile artifact maps to itself. A
/// path that is not JSON has no sidecar.
pub fn profile_rel_path(report_file: &str) -> Option<String> {
    if report_file.ends_with(".profile.json") {
        return Some(report_file.to_string());
    }
    report_file.strip_suffix(".json").map(|stem| format!("{stem}.profile.json"))
}

/// Explains one gated report by diffing its run profile against the blessed
/// baseline profile. The `Err` text is a human-readable reason attribution
/// is unavailable (no sidecar, missing file, malformed artifact).
pub fn explain_file(root: &Path, report_file: &str) -> Result<Explanation, String> {
    let profile = profile_rel_path(report_file)
        .ok_or_else(|| format!("{report_file} has no profile sidecar"))?;
    let run = load_profile(&root.join(&profile), &profile)?;
    let base_rel = format!("baselines/{profile}");
    let base = load_profile(&root.join(&base_rel), &base_rel)?;
    Ok(Explanation { report: report_file.to_string(), profile, lines: diff_profiles(&base, &run) })
}

/// Explains every distinct file among the check's gated failures. When both
/// a report and its own profile sidecar failed, the pair is attributed once
/// (under the report). Returns `(file, explanation-or-reason)` pairs in
/// failure order.
pub fn explain_failures(
    root: &Path,
    check: &CheckReport,
) -> Vec<(String, Result<Explanation, String>)> {
    let mut files: Vec<String> = Vec::new();
    for d in check.failures() {
        if !files.contains(&d.file) {
            files.push(d.file.clone());
        }
    }
    let failing: BTreeSet<String> = files.iter().cloned().collect();
    files.retain(|f| match f.strip_suffix(".profile.json") {
        Some(stem) => !failing.contains(&format!("{stem}.json")),
        None => true,
    });
    files
        .into_iter()
        .map(|f| {
            let e = explain_file(root, &f);
            (f, e)
        })
        .collect()
}

fn load_profile(path: &Path, rel: &str) -> Result<ProfileSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {rel}: {e}"))?;
    ProfileSummary::from_json(&text).map_err(|e| format!("{rel} is not a valid profile: {e}"))
}

/// The core diff: ranked per-cell deltas, recovery totals, imbalance, and
/// the heaviest unchanged cells.
pub fn diff_profiles(base: &ProfileSummary, run: &ProfileSummary) -> Vec<String> {
    let mut lines = Vec::new();
    if base.runs != run.runs || base.ranks != run.ranks {
        lines.push(format!(
            "shape changed: runs {} -> {}, ranks {} -> {}",
            base.runs, run.runs, base.ranks, run.ranks
        ));
    }

    // Union of cell keys, in stable (class, kind) order from either side.
    let mut keys: Vec<(usize, usize)> =
        base.cells.iter().chain(&run.cells).map(ProfileCell::key).collect();
    keys.sort_unstable();
    keys.dedup();
    fn find(s: &ProfileSummary, key: (usize, usize)) -> Option<&ProfileCell> {
        s.cells.iter().find(|c| c.key() == key)
    }

    struct Delta<'a> {
        key: (usize, usize),
        base: Option<&'a ProfileCell>,
        run: Option<&'a ProfileCell>,
        d_seconds: f64,
        d_events: i64,
    }
    let mut changed = Vec::new();
    let mut unchanged = Vec::new();
    for key in keys {
        let (b, r) = (find(base, key), find(run, key));
        let (bs, rs) = (b.map_or(0.0, |c| c.seconds), r.map_or(0.0, |c| c.seconds));
        let (be, re) = (b.map_or(0, |c| c.events), r.map_or(0, |c| c.events));
        let (bx, rx) = (b.map_or(0, |c| c.elements), r.map_or(0, |c| c.elements));
        let d = Delta { key, base: b, run: r, d_seconds: rs - bs, d_events: re as i64 - be as i64 };
        if d.d_seconds != 0.0 || d.d_events != 0 || bx != rx {
            changed.push(d);
        } else {
            unchanged.push(d);
        }
    }
    changed.sort_by(|a, b| {
        b.d_seconds
            .abs()
            .partial_cmp(&a.d_seconds.abs())
            .expect("profile seconds are finite")
            .then(b.d_events.abs().cmp(&a.d_events.abs()))
            .then(a.key.cmp(&b.key))
    });

    for d in changed.iter().take(MAX_CHANGED_LINES) {
        lines.push(render_cell_delta(d.base, d.run));
    }
    if changed.len() > MAX_CHANGED_LINES {
        let rest: f64 = changed[MAX_CHANGED_LINES..].iter().map(|d| d.d_seconds).sum();
        lines.push(format!(
            "... {} further cell(s) changed ({} sim total)",
            changed.len() - MAX_CHANGED_LINES,
            fmt_signed_secs(rest)
        ));
    }

    // Recovery and imbalance totals.
    let recovery = [
        ("retry events", base.retry_events, run.retry_events),
        ("backoff events", base.backoff_events, run.backoff_events),
        ("fault events", base.fault_events, run.fault_events),
    ];
    let moved: Vec<String> = recovery
        .iter()
        .filter(|(_, b, r)| b != r)
        .map(|(name, b, r)| format!("{name} {b} -> {r}"))
        .collect();
    if !moved.is_empty() || base.recovery_seconds != run.recovery_seconds {
        lines.push(format!(
            "recovery: {}{}sim {} -> {}",
            moved.join(", "),
            if moved.is_empty() { "" } else { "; " },
            fmt_secs(base.recovery_seconds),
            fmt_secs(run.recovery_seconds)
        ));
    }
    if (base.imbalance - run.imbalance).abs() > 1e-12 {
        lines.push(format!(
            "rank imbalance {:.3} -> {:.3} (slowest/mean finish)",
            base.imbalance, run.imbalance
        ));
    }

    if changed.is_empty() && moved.is_empty() {
        lines.push(
            "profiles are identical: the regression is outside the profiled event stream \
             (schema, wall-only, or derived fields)"
                .into(),
        );
        return lines;
    }

    // The heaviest cells that did NOT move, for contrast.
    unchanged.sort_by(|a, b| {
        let (sa, sb) = (a.run.map_or(0.0, |c| c.seconds), b.run.map_or(0.0, |c| c.seconds));
        sb.partial_cmp(&sa).expect("profile seconds are finite").then(a.key.cmp(&b.key))
    });
    for d in
        unchanged.iter().filter(|d| d.run.is_some_and(|c| c.events > 0)).take(MAX_UNCHANGED_LINES)
    {
        let c = d.run.expect("filtered on run side");
        lines.push(format!(
            "unchanged: {} ({} events, {} sim, {} elements)",
            c.label(),
            c.events,
            fmt_secs(c.seconds),
            c.elements
        ));
    }
    lines
}

fn render_cell_delta(base: Option<&ProfileCell>, run: Option<&ProfileCell>) -> String {
    let label = base.or(run).map_or_else(|| "?".to_string(), ProfileCell::label);
    let (bs, rs) = (base.map_or(0.0, |c| c.seconds), run.map_or(0.0, |c| c.seconds));
    let (be, re) = (base.map_or(0, |c| c.events), run.map_or(0, |c| c.events));
    let (bx, rx) = (base.map_or(0, |c| c.elements), run.map_or(0, |c| c.elements));

    let mut parts = Vec::new();
    if rs != bs {
        let pct =
            if bs > 0.0 { format!(" ({:+.1}%)", (rs - bs) / bs * 100.0) } else { String::new() };
        let ranks = shifted_ranks(base, run);
        parts.push(format!(
            "sim {} -> {}{pct}{}",
            fmt_secs(bs),
            fmt_secs(rs),
            if ranks.is_empty() { String::new() } else { format!(" on ranks {ranks}") }
        ));
    }
    if re != be {
        parts.push(format!("events {be} -> {re}"));
    } else if be > 0 {
        parts.push(format!("events unchanged ({be})"));
    }
    if rx != bx {
        parts.push(format!("elements {bx} -> {rx}"));
    }
    format!("{label}: {}", parts.join("; "))
}

/// The ranks carrying the cell's time shift: those whose per-rank delta (in
/// the overall direction) is at least half the largest such delta.
fn shifted_ranks(base: Option<&ProfileCell>, run: Option<&ProfileCell>) -> String {
    let empty: &[f64] = &[];
    let b = base.map_or(empty, |c| c.rank_seconds.as_slice());
    let r = run.map_or(empty, |c| c.rank_seconds.as_slice());
    let n = b.len().max(r.len());
    if n < 2 {
        return String::new();
    }
    let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    let deltas: Vec<f64> = (0..n).map(|i| at(r, i) - at(b, i)).collect();
    let total: f64 = deltas.iter().sum();
    let direction = if total >= 0.0 { 1.0 } else { -1.0 };
    let peak = deltas.iter().map(|d| d * direction).fold(0.0, f64::max);
    if peak <= 0.0 {
        return String::new();
    }
    let ranks: Vec<usize> = deltas
        .iter()
        .enumerate()
        .filter(|(_, d)| **d * direction >= peak * 0.5)
        .map(|(i, _)| i)
        .collect();
    if ranks.len() == n {
        // Evenly spread: naming every rank explains nothing.
        return String::new();
    }
    let mut text =
        ranks.iter().take(MAX_RANKS_LISTED).map(usize::to_string).collect::<Vec<_>>().join(",");
    if ranks.len() > MAX_RANKS_LISTED {
        text.push_str(&format!(",... ({} total)", ranks.len()));
    }
    text
}

fn fmt_secs(s: f64) -> String {
    format!("{s:.6}s")
}

fn fmt_signed_secs(s: f64) -> String {
    format!("{s:+.6}s")
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_net::{Lane, OpEvent, OpKind, PhaseClass};

    fn event(kind: OpKind, class: PhaseClass, start: f64, end: f64, elements: u64) -> OpEvent {
        OpEvent {
            seq: 0,
            kind,
            lane: Lane::Sync,
            class,
            start_seconds: start,
            end_seconds: end,
            elements,
            peers: vec![],
            initiator: true,
            fault: None,
            wall_nanos: None,
        }
    }

    fn summary(multicast_seconds_rank1: f64) -> ProfileSummary {
        let by_rank = vec![
            vec![
                event(OpKind::Multicast, PhaseClass::SyncComm, 0.0, 0.010, 100),
                event(OpKind::Get, PhaseClass::AsyncComm, 0.0, 0.004, 50),
            ],
            vec![
                event(OpKind::Multicast, PhaseClass::SyncComm, 0.0, multicast_seconds_rank1, 100),
                event(OpKind::Get, PhaseClass::AsyncComm, 0.0, 0.004, 50),
            ],
        ];
        ProfileSummary::from_events(&by_rank)
    }

    #[test]
    fn top_line_names_the_regressed_class_kind_and_rank() {
        let lines = diff_profiles(&summary(0.010), &summary(0.020));
        // The multicast cell leads, names Sync Comm, and points at rank 1.
        assert!(lines[0].starts_with("Sync Comm/multicast"), "got {:?}", lines[0]);
        assert!(lines[0].contains("+50.0%"), "got {:?}", lines[0]);
        assert!(lines[0].contains("on ranks 1"), "got {:?}", lines[0]);
        // The untouched one-sided cell is called out as unchanged.
        assert!(lines.iter().any(|l| l.starts_with("unchanged: Async Comm/get")), "got {lines:?}");
    }

    #[test]
    fn identical_profiles_say_so() {
        let lines = diff_profiles(&summary(0.010), &summary(0.010));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("identical"), "got {:?}", lines[0]);
    }

    #[test]
    fn profile_paths_map_reports_to_sidecars() {
        assert_eq!(
            profile_rel_path("results/fig10_breakdown.json").as_deref(),
            Some("results/fig10_breakdown.profile.json")
        );
        assert_eq!(
            profile_rel_path("results/fig10_breakdown.profile.json").as_deref(),
            Some("results/fig10_breakdown.profile.json")
        );
        assert_eq!(profile_rel_path("results/notes.txt"), None);
    }

    #[test]
    fn explain_file_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("twoface-attr-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("results")).unwrap();
        std::fs::create_dir_all(dir.join("baselines/results")).unwrap();
        std::fs::write(dir.join("results/job.profile.json"), summary(0.030).to_json_pretty())
            .unwrap();
        std::fs::write(
            dir.join("baselines/results/job.profile.json"),
            summary(0.010).to_json_pretty(),
        )
        .unwrap();
        let explained = explain_file(&dir, "results/job.json").expect("both sides load");
        assert_eq!(explained.profile, "results/job.profile.json");
        assert!(explained.lines[0].starts_with("Sync Comm/multicast"));
        // A missing baseline is a readable reason, not a panic.
        let missing = explain_file(&dir, "results/other.json").unwrap_err();
        assert!(missing.contains("other.profile.json"), "got {missing}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
