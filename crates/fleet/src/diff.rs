//! The baseline differ: flattens any report JSON into `path -> leaf` pairs
//! and compares against the committed baseline under an explicit per-field
//! tolerance policy.
//!
//! Policy resolution, in order:
//!
//! 1. a declared relative band from [`DECLARED_BANDS`] (file + path
//!    substring match) — for fields that are deterministic per run but
//!    accumulate through an independent code path (e.g. the event-derived
//!    Figure-10 breakdown) or a least-squares fit;
//! 2. **informational** if the path mentions a wall-clock or metadata
//!    keyword ([`INFO_KEYWORDS`]) — wall seconds/nanos, medians,
//!    `date` / `harness` / `host_note` / notes — reported but never failing,
//!    because host wall time varies from run to run;
//! 3. otherwise **gated bit-exact**: simulated seconds, per-nonzero
//!    throughput, speedups over simulated times, communication counters,
//!    matrix statistics, and every schema-identity aspect (field names,
//!    types, array lengths).

use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Path fragments that mark a leaf as informational (never gated). A
/// fragment matches anywhere in the flattened path, case-insensitively.
pub const INFO_KEYWORDS: &[&str] = &[
    // Wall-clock measurement vocabulary (host time varies run to run).
    "wall",
    "nanos",
    "_ns",
    "median",
    "samples",
    "speedup_vs_1",
    "amortization",
    // Queue-depth sketches: deterministic inline, but scheduling vocabulary
    // rather than simulated physics — reported, never gated.
    "queue_depth",
    // Report metadata from the normalized envelope.
    "date",
    "harness",
    "host",
    "description",
    "note",
    "workload",
    "acceptance",
];

/// Declared relative tolerance bands: `(file-name fragment, path fragment,
/// relative band)`. First match wins over the keyword classification.
pub const DECLARED_BANDS: &[(&str, &str, f64)] = &[
    // The event-derived breakdown re-accumulates the same simulated spans in
    // a different order than the aggregate trace; both are deterministic,
    // but they are allowed to disagree in the last bits.
    ("fig10_breakdown.json", "two_face_from_events", 1e-9),
    // Least-squares fit over simulated probes: deterministic, but the
    // normal-equation accumulation is sensitive to summation order, so give
    // it a declared band instead of bit-exactness.
    ("table3_calibration.json", ".fitted", 1e-9),
    ("table3_calibration.json", ".ratio", 1e-9),
];

/// How a field is compared against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Bit-exact (numbers compare by serialized value; strings, bools,
    /// nulls by equality).
    Exact,
    /// Relative band: `|cur - base| <= band * max(|cur|, |base|)`.
    Rel(f64),
    /// Informational: differences are counted but never fail the check.
    Info,
}

/// Resolves the policy for a flattened `path` inside `file`.
pub fn classify(file: &str, path: &str) -> Policy {
    for (file_frag, path_frag, band) in DECLARED_BANDS {
        if file.contains(file_frag) && path.contains(path_frag) {
            return Policy::Rel(*band);
        }
    }
    let lower = path.to_ascii_lowercase();
    if INFO_KEYWORDS.iter().any(|k| lower.contains(k)) {
        return Policy::Info;
    }
    Policy::Exact
}

/// A scalar leaf of a flattened report.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number, kept as the raw token (bit-exact comparison) plus the
    /// parsed value (band comparison).
    Num(String, f64),
    /// JSON string.
    Str(String),
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leaf::Null => write!(f, "null"),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Num(raw, _) => write!(f, "{raw}"),
            Leaf::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Flattens a JSON document into sorted `path -> leaf` pairs. Paths are
/// JSONPath-ish: `$.data[3].two_face.seconds`.
pub fn flatten(value: &Value) -> BTreeMap<String, Leaf> {
    let mut out = BTreeMap::new();
    walk(value, "$", &mut out);
    out
}

fn walk(value: &Value, path: &str, out: &mut BTreeMap<String, Leaf>) {
    match value {
        Value::Null => {
            out.insert(path.to_string(), Leaf::Null);
        }
        Value::Bool(b) => {
            out.insert(path.to_string(), Leaf::Bool(*b));
        }
        // Raw tokens are regenerated from the parsed value. For floats the
        // writer uses `{:?}` (shortest round-trip), so token equality of the
        // regenerated forms is value equality of the exact bits; integers
        // stay exact in their own variants.
        Value::Number(n) => {
            out.insert(path.to_string(), Leaf::Num(format!("{n:?}"), *n));
        }
        Value::Int(i) => {
            out.insert(path.to_string(), Leaf::Num(i.to_string(), *i as f64));
        }
        Value::UInt(u) => {
            out.insert(path.to_string(), Leaf::Num(u.to_string(), *u as f64));
        }
        Value::String(s) => {
            out.insert(path.to_string(), Leaf::Str(s.clone()));
        }
        Value::Array(items) => {
            // An empty array still records its presence so shape changes
            // (e.g. [] -> missing) are visible.
            if items.is_empty() {
                out.insert(format!("{path}.len"), Leaf::Num("0".into(), 0.0));
            }
            for (i, item) in items.iter().enumerate() {
                walk(item, &format!("{path}[{i}]"), out);
            }
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.insert(format!("{path}.len"), Leaf::Num("0".into(), 0.0));
            }
            for (k, v) in map {
                walk(v, &format!("{path}.{k}"), out);
            }
        }
    }
}

/// One out-of-band (or informational) difference between a report and its
/// baseline, naming the exact field.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FieldDiff {
    /// Repo-relative file the field lives in.
    pub file: String,
    /// Flattened path of the field inside the file.
    pub path: String,
    /// Human-readable explanation (expected vs got, band).
    pub detail: String,
    /// Whether this difference fails `--check` (informational ones do not).
    pub gated: bool,
}

impl fmt::Display for FieldDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.gated { "OUT-OF-BAND" } else { "info" };
        write!(f, "[{kind}] {}:{} {}", self.file, self.path, self.detail)
    }
}

/// Compares one report against its baseline, returning every difference.
/// Missing fields, extra fields, and type changes on gated paths are
/// failures; value differences follow the field's [`Policy`].
pub fn compare_reports(file: &str, baseline: &Value, current: &Value) -> Vec<FieldDiff> {
    let base = flatten(baseline);
    let cur = flatten(current);
    let mut diffs = Vec::new();
    for (path, b) in &base {
        let policy = classify(file, path);
        match cur.get(path) {
            None => diffs.push(FieldDiff {
                file: file.into(),
                path: path.clone(),
                detail: format!("missing from current report (baseline has {b})"),
                gated: !matches!(policy, Policy::Info),
            }),
            Some(c) => {
                if let Some(d) = compare_leaf(file, path, policy, b, c) {
                    diffs.push(d);
                }
            }
        }
    }
    for (path, c) in &cur {
        if !base.contains_key(path) {
            let policy = classify(file, path);
            diffs.push(FieldDiff {
                file: file.into(),
                path: path.clone(),
                detail: format!("not in baseline (current has {c}); run --bless to accept"),
                gated: !matches!(policy, Policy::Info),
            });
        }
    }
    diffs
}

fn compare_leaf(file: &str, path: &str, policy: Policy, b: &Leaf, c: &Leaf) -> Option<FieldDiff> {
    let mismatch = |detail: String, gated: bool| {
        Some(FieldDiff { file: file.into(), path: path.into(), detail, gated })
    };
    let gated = !matches!(policy, Policy::Info);
    match (b, c) {
        (Leaf::Num(braw, bval), Leaf::Num(craw, cval)) => {
            if braw == craw {
                return None;
            }
            match policy {
                Policy::Info => mismatch(format!("informational change {braw} -> {craw}"), false),
                Policy::Exact => {
                    // Distinct tokens can still encode the same value
                    // (e.g. 1 vs 1.0); compare numerically at band 0 — but
                    // never for two integer tokens, where distinct tokens are
                    // distinct values even when both round to the same f64.
                    let both_integers =
                        braw.parse::<i128>().is_ok() && craw.parse::<i128>().is_ok();
                    if !both_integers && bval == cval {
                        None
                    } else {
                        mismatch(format!("expected {braw}, got {craw} (gated bit-exact)"), true)
                    }
                }
                Policy::Rel(band) => {
                    let scale = bval.abs().max(cval.abs());
                    let rel = if scale == 0.0 { 0.0 } else { (bval - cval).abs() / scale };
                    if rel <= band && bval.is_finite() && cval.is_finite() {
                        None
                    } else {
                        mismatch(
                            format!(
                                "expected {braw}, got {craw} (relative error {rel:.3e} exceeds \
                                 declared band {band:.1e})"
                            ),
                            true,
                        )
                    }
                }
            }
        }
        _ if b == c => None,
        _ if std::mem::discriminant(b) != std::mem::discriminant(c) => {
            mismatch(format!("type changed: baseline {b}, current {c}"), gated)
        }
        _ => mismatch(
            if gated {
                format!("expected {b}, got {c}")
            } else {
                format!("informational change {b} -> {c}")
            },
            gated,
        ),
    }
}

/// Summary of a whole-tree check.
#[derive(Debug, Default, serde::Serialize)]
pub struct CheckReport {
    /// Files compared (present on both sides).
    pub files_compared: usize,
    /// Every difference found, gated and informational.
    pub diffs: Vec<FieldDiff>,
}

impl CheckReport {
    /// Gated (check-failing) differences only.
    pub fn failures(&self) -> impl Iterator<Item = &FieldDiff> {
        self.diffs.iter().filter(|d| d.gated)
    }

    /// Whether the check passes.
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }
}

/// Results files excluded from gating: the fleet's own report (wall times)
/// and raw event streams.
pub const EXCLUDED_FILES: &[&str] =
    &["fleet_report.json", "trace_summary.chrome.json", "quickstart.chrome.json"];

/// The repo-relative gated file set: `results/*.json` minus
/// [`EXCLUDED_FILES`], unioned with everything `baselines/results/` already
/// guards (so a deleted report still fails).
pub fn gated_files(root: &Path) -> Vec<String> {
    let mut set = std::collections::BTreeSet::new();
    for dir in [root.join("results"), root.join("baselines/results")] {
        let Ok(entries) = std::fs::read_dir(dir) else { continue };
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && !EXCLUDED_FILES.contains(&name.as_str()) {
                set.insert(format!("results/{name}"));
            }
        }
    }
    set.into_iter().collect()
}

/// Diffs every gated file under `root` against `root/baselines/`. A file
/// missing on either side is itself a gated failure.
pub fn check_tree(root: &Path) -> CheckReport {
    let mut report = CheckReport::default();
    for rel in gated_files(root) {
        let current_path = root.join(&rel);
        let baseline_path = root.join("baselines").join(&rel);
        match (load_json(&current_path), load_json(&baseline_path)) {
            (Some(cur), Some(base)) => {
                report.files_compared += 1;
                report.diffs.extend(compare_reports(&rel, &base, &cur));
            }
            (None, Some(_)) => report.diffs.push(FieldDiff {
                file: rel.clone(),
                path: "$".into(),
                detail: "baselined report is missing from the tree".into(),
                gated: true,
            }),
            (Some(_), None) => report.diffs.push(FieldDiff {
                file: rel.clone(),
                path: "$".into(),
                detail: "report has no committed baseline; run --bless to accept it".into(),
                gated: true,
            }),
            (None, None) => {}
        }
    }
    report
}

fn load_json(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("warning: {} is not valid JSON ({e}); treating as absent", path.display());
            None
        }
    }
}

/// Copies every gated file present under `root` into `root/baselines/`,
/// creating directories as needed. Returns the blessed repo-relative paths.
pub fn bless_tree(root: &Path) -> std::io::Result<Vec<String>> {
    let mut blessed = Vec::new();
    for rel in gated_files(root) {
        let src = root.join(&rel);
        if !src.exists() {
            continue;
        }
        let dst = root.join("baselines").join(&rel);
        if let Some(parent) = dst.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::copy(&src, &dst)?;
        blessed.push(rel);
    }
    Ok(blessed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a JSON literal (the vendored serde_json has no `json!` macro).
    fn v(text: &str) -> Value {
        serde_json::from_str(text).expect("test literal parses")
    }

    #[test]
    fn classification_follows_the_policy_ladder() {
        // Declared band beats everything.
        assert_eq!(
            classify("results/fig10_breakdown.json", "$.data[0].two_face_from_events.seconds"),
            Policy::Rel(1e-9)
        );
        // Wall-clock and metadata vocabulary is informational.
        assert_eq!(
            classify("results/x.json", "$.data[0].preprocessing_wall_seconds"),
            Policy::Info
        );
        assert_eq!(
            classify("results/observability.json", "$.data.flight_on_over_off_median"),
            Policy::Info
        );
        assert_eq!(classify("results/x.json", "$.date"), Policy::Info);
        assert_eq!(classify("results/x.json", "$.host_note"), Policy::Info);
        // Simulated time and counters are gated hard.
        assert_eq!(classify("results/x.json", "$.data[0].seconds"), Policy::Exact);
        assert_eq!(
            classify("results/x.json", "$.data[0].two_face_sim_nnz_per_second"),
            Policy::Exact
        );
        assert_eq!(classify("results/x.json", "$.data[0].comm.elements_received"), Policy::Exact);
    }

    #[test]
    fn flatten_produces_stable_paths() {
        let v = v(r#"{"a": [1, {"b": true}], "c": "x", "d": null, "e": []}"#);
        let f = flatten(&v);
        assert_eq!(f.get("$.a[0]"), Some(&Leaf::Num("1".into(), 1.0)));
        assert_eq!(f.get("$.a[1].b"), Some(&Leaf::Bool(true)));
        assert_eq!(f.get("$.c"), Some(&Leaf::Str("x".into())));
        assert_eq!(f.get("$.d"), Some(&Leaf::Null));
        assert_eq!(f.get("$.e.len"), Some(&Leaf::Num("0".into(), 0.0)));
    }

    #[test]
    fn identical_reports_have_no_diffs() {
        let v = v(r#"{"data": [{"seconds": 1.25e-3, "matrix": "web"}]}"#);
        assert!(compare_reports("results/x.json", &v, &v).is_empty());
    }

    #[test]
    fn gated_simulated_time_perturbation_is_out_of_band() {
        let base = v(r#"{"data": [{"seconds": 1.25e-3}]}"#);
        let cur = v(r#"{"data": [{"seconds": 1.2500001e-3}]}"#);
        let diffs = compare_reports("results/x.json", &base, &cur);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].gated);
        assert_eq!(diffs[0].path, "$.data[0].seconds");
        assert!(diffs[0].detail.contains("expected"), "{}", diffs[0].detail);
    }

    #[test]
    fn wall_clock_and_metadata_changes_are_informational() {
        let base = v(r#"{"date": "2026-08-01", "data": [{"wall_seconds": 4.0}]}"#);
        let cur = v(r#"{"date": "2026-08-08", "data": [{"wall_seconds": 9.0}]}"#);
        let diffs = compare_reports("results/x.json", &base, &cur);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().all(|d| !d.gated));
    }

    #[test]
    fn declared_band_tolerates_last_bit_noise_but_not_real_drift() {
        let base = v(r#"{"data": [{"two_face_from_events": {"seconds": 1.0000000000000002}}]}"#);
        let ok = v(r#"{"data": [{"two_face_from_events": {"seconds": 1.0}}]}"#);
        assert!(compare_reports("results/fig10_breakdown.json", &base, &ok).is_empty());
        let bad = v(r#"{"data": [{"two_face_from_events": {"seconds": 1.001}}]}"#);
        let diffs = compare_reports("results/fig10_breakdown.json", &base, &bad);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].gated);
        assert!(diffs[0].detail.contains("declared band"));
    }

    #[test]
    fn schema_drift_is_gated() {
        let base = v(r#"{"data": [{"seconds": 1.0}]}"#);
        // Renamed field: one missing + one extra, both gated.
        let renamed = v(r#"{"data": [{"secs": 1.0}]}"#);
        let diffs = compare_reports("results/x.json", &base, &renamed);
        assert_eq!(diffs.iter().filter(|d| d.gated).count(), 2);
        // Type change: gated.
        let retyped = v(r#"{"data": [{"seconds": "1.0"}]}"#);
        let diffs = compare_reports("results/x.json", &base, &retyped);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].gated && diffs[0].detail.contains("type changed"));
        // Shorter array: missing entries are gated.
        let truncated = v(r#"{"data": []}"#);
        assert!(compare_reports("results/x.json", &base, &truncated).iter().any(|d| d.gated));
    }

    #[test]
    fn equivalent_number_tokens_pass_exact() {
        let base = v(r#"{"data": [{"n": 1}]}"#);
        let cur: Value = serde_json::from_str(r#"{"data": [{"n": 1.0}]}"#).unwrap();
        assert!(compare_reports("results/x.json", &base, &cur).is_empty());
    }

    #[test]
    fn bless_then_check_roundtrip() {
        let dir = std::env::temp_dir().join(format!("twoface-fleet-test-{}", std::process::id()));
        let results = dir.join("results");
        std::fs::create_dir_all(&results).unwrap();
        std::fs::write(results.join("r.json"), r#"{"data": [{"seconds": 1.5}]}"#).unwrap();
        std::fs::write(results.join("s.json"), r#"{"sim_seconds": 2.0, "date": "d1"}"#).unwrap();
        // Excluded artifacts never enter the gated set.
        std::fs::write(results.join("fleet_report.json"), r#"{"wall": 1}"#).unwrap();
        // Only `results/` is gated: a stray report at the root is neither
        // checked nor blessed.
        std::fs::write(dir.join("BENCH_x.json"), r#"{"sim_seconds": 2.0}"#).unwrap();

        // Unblessed tree: every gated file fails as unbaselined.
        let before = check_tree(&dir);
        assert!(!before.passed());
        assert_eq!(before.failures().count(), 2);

        let blessed = bless_tree(&dir).unwrap();
        assert_eq!(blessed, vec!["results/r.json".to_string(), "results/s.json".to_string()]);
        assert!(!dir.join("baselines/BENCH_x.json").exists());
        let clean = check_tree(&dir);
        assert!(clean.passed(), "{:?}", clean.diffs);
        assert_eq!(clean.files_compared, 2);

        // Perturb a gated simulated-time field: the check names it.
        std::fs::write(results.join("r.json"), r#"{"data": [{"seconds": 1.5000001}]}"#).unwrap();
        let perturbed = check_tree(&dir);
        let failures: Vec<_> = perturbed.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].file, "results/r.json");
        assert_eq!(failures[0].path, "$.data[0].seconds");

        // Informational metadata may drift freely, and the stray root file
        // may change at will.
        std::fs::write(results.join("r.json"), r#"{"data": [{"seconds": 1.5}]}"#).unwrap();
        std::fs::write(results.join("s.json"), r#"{"sim_seconds": 2.0, "date": "d2"}"#).unwrap();
        std::fs::write(dir.join("BENCH_x.json"), r#"{"sim_seconds": 3.0}"#).unwrap();
        assert!(check_tree(&dir).passed());

        // Deleting a baselined report is a gated failure.
        std::fs::remove_file(results.join("r.json")).unwrap();
        assert!(check_tree(&dir).failures().any(|d| d.detail.contains("missing from the tree")));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
