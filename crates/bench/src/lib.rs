//! Shared plumbing for the per-figure/table benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper:
//! it prints the same rows/series the paper reports and writes a
//! machine-readable copy to `results/<name>.json`. Run them all with
//! `for b in crates/bench/src/bin/*.rs; do cargo run --release -p
//! twoface-bench --bin $(basename ${b%.rs}); done`.

use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use twoface_core::{Problem, RunError};
use twoface_matrix::gen::SuiteMatrix;
use twoface_matrix::CooMatrix;
use twoface_net::{CostModel, RankTrace};

/// The default node count of the paper's experiments.
pub const DEFAULT_P: usize = 32;

/// The default dense column count of the paper's experiments.
pub const DEFAULT_K: usize = 128;

/// The cost model all experiments use: the Delta-like machine rescaled to
/// this reproduction's matrix sizes.
pub fn default_cost() -> CostModel {
    CostModel::delta_scaled()
}

/// The directory experiment JSON lands in (`results/` under the workspace
/// root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

fn workspace_root() -> PathBuf {
    // The bench crate lives at <root>/crates/bench.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate is two levels below the workspace root")
        .to_path_buf()
}

/// The canonical host disclosure attached to every report, built when the
/// report is written: the CPU count the process could use, then the split
/// the fleet differ (`crates/fleet`) keys off — fields whose path mentions
/// `wall` are informational, the rest are baseline-gated.
pub fn host_note() -> String {
    let nproc = std::thread::available_parallelism()
        .map_or_else(|_| "unknown".to_string(), |n| n.to_string());
    format!(
        "measured with nproc = {nproc}: wall-clock fields are noisy and informational only; \
         simulated seconds and communication counters are deterministic and baseline-gated"
    )
}

/// The version of the normalized report envelope every `results/*.json`
/// carries. Bump when the envelope itself (not a payload) changes shape.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Environment variable the fleet runner sets so reports carry the run date.
/// Standalone runs without it record `"unversioned"`; the field is
/// informational either way and never baseline-gated.
pub const BENCH_DATE_ENV: &str = "TWOFACE_BENCH_DATE";

/// The normalized envelope around every experiment payload: consistent
/// `date` / `harness` / `host_note` metadata so the fleet differ can walk
/// any report generically and classify metadata as informational. Built as
/// an explicit [`serde::Value`] tree because the vendored serde derive does
/// not support generic structs.
fn report_envelope(name: &str, data: serde::Value) -> serde::Value {
    use serde::Value;
    Value::Object(vec![
        ("schema_version".to_string(), Value::UInt(u64::from(REPORT_SCHEMA_VERSION))),
        ("name".to_string(), Value::String(name.to_string())),
        (
            "date".to_string(),
            Value::String(std::env::var(BENCH_DATE_ENV).unwrap_or_else(|_| "unversioned".into())),
        ),
        (
            "harness".to_string(),
            Value::String(format!("cargo run --release -p twoface-bench --bin {name}")),
        ),
        ("host_note".to_string(), Value::String(host_note())),
        ("data".to_string(), data),
    ])
}

/// Writes an experiment result as pretty JSON to `results/<name>.json`,
/// wrapped in the normalized metadata envelope (`schema_version`, `name`,
/// `date`, `harness`, `host_note`, `data`).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let report = report_envelope(name, value.to_value());
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(&report).expect("results serialize");
    std::fs::write(&path, json).expect("can write results file");
    println!("\n[results written to {}]", path.display());
}

/// A cache of generated suite matrices, so multi-K sweeps generate each
/// matrix once.
#[derive(Default)]
pub struct SuiteCache {
    matrices: HashMap<SuiteMatrix, Arc<CooMatrix>>,
}

impl SuiteCache {
    /// Creates an empty cache.
    pub fn new() -> SuiteCache {
        SuiteCache::default()
    }

    /// The (cached) generated matrix.
    pub fn matrix(&mut self, m: SuiteMatrix) -> Arc<CooMatrix> {
        Arc::clone(self.matrices.entry(m).or_insert_with(|| Arc::new(m.generate())))
    }

    /// A problem over `p` nodes with `k` dense columns and the matrix's
    /// Table-1 stripe width.
    pub fn problem(&mut self, m: SuiteMatrix, k: usize, p: usize) -> Result<Problem, RunError> {
        let a = self.matrix(m);
        Problem::with_generated_b(a, k, p, m.stripe_width())
    }
}

/// Communication counters distilled from one or more [`RankTrace`]s, in the
/// shape the figure/table JSON files carry. Until the observability PR these
/// counters were recorded by every run but dropped by the bench binaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommCounters {
    /// Dense elements sent (as transfer source).
    pub elements_sent: u64,
    /// Dense elements received (as transfer destination).
    pub elements_received: u64,
    /// Communication operations initiated.
    pub messages: u64,
    /// One-sided attempts retried after a transient failure.
    pub retries: u64,
    /// One-sided operations issued.
    pub one_sided_ops: u64,
    /// Collective meets participated in.
    pub meets: u64,
}

impl CommCounters {
    /// Counters of a single rank's trace.
    pub fn from_trace(trace: &RankTrace) -> CommCounters {
        CommCounters {
            elements_sent: trace.elements_sent,
            elements_received: trace.elements_received,
            messages: trace.messages,
            retries: trace.retries,
            one_sided_ops: trace.one_sided_ops,
            meets: trace.meets,
        }
    }

    /// Counters summed across all ranks of a run.
    pub fn from_traces(traces: &[RankTrace]) -> CommCounters {
        let mut total = CommCounters::default();
        for t in traces {
            let c = CommCounters::from_trace(t);
            total.elements_sent += c.elements_sent;
            total.elements_received += c.elements_received;
            total.messages += c.messages;
            total.retries += c.retries;
            total.one_sided_ops += c.one_sided_ops;
            total.meets += c.meets;
        }
        total
    }
}

/// Geometric mean of strictly positive values (the paper's "average
/// speedup" aggregation).
///
/// Returns `None` for an empty slice and for any sample that is zero,
/// negative, or non-finite (a warning names the offending sample): one bad
/// sample would otherwise poison the whole aggregate with `-inf`/NaN, which
/// serializes as `null` and silently corrupts the report JSON.
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for v in values {
        if !v.is_finite() || *v <= 0.0 {
            eprintln!(
                "warning: geo_mean over {} samples saw non-positive or non-finite sample {v}; \
                 reporting no mean instead of a poisoned one",
                values.len()
            );
            return None;
        }
        log_sum += v.ln();
    }
    Some((log_sum / values.len() as f64).exp())
}

/// Formats a cell that may be a number or an out-of-memory marker.
pub fn cell(value: Option<f64>, width: usize, precision: usize) -> String {
    match value {
        Some(v) => format!("{v:>width$.precision$}"),
        None => format!("{:>width$}", "OOM"),
    }
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, detail: &str) {
    println!("==================================================================");
    println!("{title}");
    println!("{detail}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean(&[]), None);
        assert!((geo_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_rejects_non_positive_and_non_finite_samples() {
        // One bad sample must yield None, not -inf/NaN poisoning the report.
        assert_eq!(geo_mean(&[2.0, 0.0, 8.0]), None);
        assert_eq!(geo_mean(&[-1.0]), None);
        assert_eq!(geo_mean(&[1.0, f64::NAN]), None);
        assert_eq!(geo_mean(&[1.0, f64::INFINITY]), None);
        assert_eq!(geo_mean(&[f64::NEG_INFINITY]), None);
        // Valid samples around the bad ones still work on their own.
        assert!(geo_mean(&[2.0, 8.0]).is_some());
    }

    #[test]
    fn cell_formats_oom() {
        assert_eq!(cell(None, 8, 2), "     OOM");
        assert_eq!(cell(Some(1.5), 8, 2), "    1.50");
    }

    #[test]
    fn suite_cache_reuses_matrices() {
        let mut cache = SuiteCache::new();
        let a = cache.matrix(SuiteMatrix::Queen);
        let b = cache.matrix(SuiteMatrix::Queen);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        assert!(dir.exists());
    }

    #[test]
    fn comm_counters_sum_across_ranks() {
        let mut a = RankTrace::new();
        a.elements_sent = 10;
        a.messages = 2;
        a.meets = 1;
        let mut b = RankTrace::new();
        b.elements_received = 7;
        b.retries = 3;
        b.one_sided_ops = 4;
        let total = CommCounters::from_traces(&[a.clone(), b]);
        assert_eq!(
            total,
            CommCounters {
                elements_sent: 10,
                elements_received: 7,
                messages: 2,
                retries: 3,
                one_sided_ops: 4,
                meets: 1,
            }
        );
        assert_eq!(CommCounters::from_trace(&a).elements_sent, 10);
    }
}
