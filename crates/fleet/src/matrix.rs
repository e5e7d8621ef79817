//! The experiment matrix: every job the fleet owns.
//!
//! Two families of jobs:
//!
//! * **bench bins** — one job per figure/table/ablation binary of
//!   `crates/bench`; each internally sweeps its matrices and K values and
//!   writes the gated `results/<name>.json` report plus (via the injected
//!   `TWOFACE_PROFILE` env) a gated `results/<name>.profile.json` sidecar
//!   used for regression attribution. Env-inherited execution knobs
//!   (`TWOFACE_THREADS`, `TWOFACE_TRACE`, `TWOFACE_PROFILE`) are scrubbed
//!   so a report never depends on the invoking shell.
//! * **chaos differential sweeps** — the `twoface-core` chaos suite run
//!   across the fleet's explicit axes: seed base × real-execution worker
//!   count (the per-host cluster-shape knob). Fault severities are swept
//!   inside the suite itself. These jobs gate nothing; they are
//!   pass/fail robustness legs recorded in the fleet report.

use std::time::Duration;

/// One job of the experiment matrix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name (used by `--filter` and the report).
    pub name: String,
    /// Program and arguments, relative to the workspace root.
    pub command: Vec<String>,
    /// Environment overrides applied after scrubbing inherited knobs.
    pub env: Vec<(String, String)>,
    /// Labels `--filter` can select on (every job also matches its name).
    pub tags: Vec<&'static str>,
    /// Repo-relative gated reports this job regenerates.
    pub outputs: Vec<String>,
    /// Per-attempt wall-clock budget.
    pub timeout: Duration,
}

impl JobSpec {
    /// Whether `--filter` text selects this job (name or tag substring).
    pub fn matches(&self, filter: &str) -> bool {
        self.name.contains(filter) || self.tags.iter().any(|t| t.contains(filter))
    }
}

/// Environment variables scrubbed from every job so shell state cannot leak
/// into reports (results are worker-count independent by contract, but the
/// gate should not rely on it) — see the fingerprint stability tests.
pub const SCRUBBED_ENV: &[&str] = &["TWOFACE_THREADS", "TWOFACE_TRACE", "TWOFACE_PROFILE"];

/// The bench binaries: `(bin, tags, timeout seconds)`. Tags reflect
/// measured runtimes: `fast` jobs form the CI `--filter fast` subset
/// (seconds each); the rest only run in full local sweeps.
const BENCH_BINS: &[(&str, &[&str], u64)] = &[
    ("table1_matrices", &["fast", "table"], 300),
    ("table2_params", &["fast", "table"], 120),
    ("table3_calibration", &["fast", "table"], 300),
    ("table4_algorithms", &["fast", "table"], 120),
    ("fig02_async_vs_collectives", &["fig"], 900),
    ("fig07_09_speedups", &["fig", "headline"], 3600),
    ("fig10_breakdown", &["fig"], 1800),
    ("fig11_scaling", &["fig"], 1800),
    ("table6_preprocessing", &["table"], 1800),
    ("fig12_sensitivity", &["fig"], 1800),
    ("ablation_coalescing", &["ablation"], 1800),
    ("ablation_stripe_width", &["ablation"], 1800),
    ("ablation_threads", &["ablation"], 1800),
    ("ablation_panel_height", &["ablation"], 1800),
    ("ablation_classifier", &["ablation"], 1800),
    ("ablation_async_layout", &["fast", "ablation"], 1800),
    ("extension_sddmm", &["fast", "extension"], 1800),
    ("extension_spmv", &["extension"], 1800),
    ("family_auto_selection", &["fig", "family"], 3600),
    ("serve_throughput", &["fast", "serve"], 600),
    ("frontend_serving", &["fast", "serve", "frontend"], 600),
    ("layout", &["fast", "layout", "streaming"], 900),
    ("trace_summary", &["fast", "observability"], 600),
    ("observability", &["fast", "observability", "flight"], 900),
];

/// The chaos axes: seed bases × worker counts. `None` keeps the suite's
/// built-in deterministic seeds.
const CHAOS_SEEDS: &[Option<u64>] = &[None, Some(7)];
const CHAOS_WORKERS: &[usize] = &[1, 4];

/// Worker counts for the algorithm-family differential suite (bit-identity
/// across kernels is part of its contract, so the fleet sweeps the real
/// worker axis like chaos does).
const FAMILY_WORKERS: &[usize] = &[1, 4];

/// Builds the full experiment matrix.
pub fn experiment_matrix() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (bin, tags, timeout) in BENCH_BINS {
        // Every gated bin also runs under `TWOFACE_PROFILE`, so a blessed
        // per-(phase class × op kind) profile sidecar sits next to each
        // report for `--check` regression attribution. The sidecar is
        // derived from simulated clocks only, so it is itself gated.
        let (env, outputs) = match *bin {
            // trace_summary emits event streams, which are not gated.
            "trace_summary" => (Vec::new(), Vec::new()),
            name => {
                let profile = format!("results/{name}.profile.json");
                (
                    vec![("TWOFACE_PROFILE".to_string(), profile.clone())],
                    vec![format!("results/{name}.json"), profile],
                )
            }
        };
        jobs.push(JobSpec {
            name: format!("bench/{bin}"),
            command: vec![format!("target/release/{bin}")],
            env,
            tags: [&["bench"][..], tags].concat(),
            outputs,
            timeout: Duration::from_secs(*timeout),
        });
    }
    for &seed in CHAOS_SEEDS {
        for &workers in CHAOS_WORKERS {
            let seed_label = seed.map_or("default".to_string(), |s| s.to_string());
            let mut env = vec![("TWOFACE_THREADS".to_string(), workers.to_string())];
            if let Some(s) = seed {
                env.push(("CHAOS_SEED_BASE".to_string(), s.to_string()));
            }
            jobs.push(JobSpec {
                name: format!("chaos/seed-{seed_label}/workers-{workers}"),
                command: [
                    "cargo",
                    "test",
                    "--release",
                    "-p",
                    "twoface-core",
                    "--test",
                    "chaos",
                    "--",
                    "--nocapture",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                env,
                tags: vec!["chaos"],
                outputs: Vec::new(),
                timeout: Duration::from_secs(1800),
            });
        }
    }
    for &workers in FAMILY_WORKERS {
        jobs.push(JobSpec {
            name: format!("family/workers-{workers}"),
            command: [
                "cargo",
                "test",
                "--release",
                "-p",
                "twoface-core",
                "--test",
                "algorithm_family",
                "--",
                "--nocapture",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            env: vec![("TWOFACE_THREADS".to_string(), workers.to_string())],
            tags: vec!["family"],
            outputs: Vec::new(),
            timeout: Duration::from_secs(1800),
        });
    }
    jobs
}

/// The subset selected by an optional `--filter`.
pub fn select<'a>(jobs: &'a [JobSpec], filter: Option<&str>) -> Vec<&'a JobSpec> {
    match filter {
        None => jobs.iter().collect(),
        Some(f) => jobs.iter().filter(|j| j.matches(f)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_bench_bin_and_chaos_cell() {
        let jobs = experiment_matrix();
        assert_eq!(jobs.iter().filter(|j| j.tags.contains(&"bench")).count(), BENCH_BINS.len());
        assert_eq!(
            jobs.iter().filter(|j| j.tags.contains(&"chaos")).count(),
            CHAOS_SEEDS.len() * CHAOS_WORKERS.len()
        );
        assert_eq!(
            jobs.iter().filter(|j| j.name.starts_with("family/")).count(),
            FAMILY_WORKERS.len()
        );
        let mut names: Vec<_> = jobs.iter().map(|j| j.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), jobs.len(), "job names are unique");
    }

    #[test]
    fn fast_filter_selects_a_small_ci_subset() {
        let jobs = experiment_matrix();
        let fast = select(&jobs, Some("fast"));
        assert!(!fast.is_empty() && fast.len() < jobs.len() / 2);
        assert!(fast.iter().all(|j| j.tags.contains(&"fast")));
        // The fast subset still exercises at least one gated report.
        assert!(fast.iter().any(|j| !j.outputs.is_empty()));
    }

    #[test]
    fn filter_matches_names_and_tags() {
        let jobs = experiment_matrix();
        assert_eq!(select(&jobs, Some("fig07")).len(), 1);
        assert_eq!(select(&jobs, Some("chaos")).len(), 4);
        assert!(select(&jobs, Some("no-such-job")).is_empty());
    }

    #[test]
    fn gated_bench_jobs_carry_a_profile_sidecar() {
        let jobs = experiment_matrix();
        for j in jobs.iter().filter(|j| j.tags.contains(&"bench")) {
            if j.outputs.is_empty() {
                assert!(j.env.is_empty(), "{}: ungated bins profile nothing", j.name);
                continue;
            }
            let profile = j.outputs.iter().find(|o| o.ends_with(".profile.json"));
            let profile = profile.unwrap_or_else(|| panic!("{}: no profile output", j.name));
            assert!(
                j.env.contains(&("TWOFACE_PROFILE".to_string(), profile.clone())),
                "{}: TWOFACE_PROFILE must point at the gated sidecar",
                j.name
            );
        }
    }

    #[test]
    fn every_baselined_report_has_a_producing_job() {
        // A report counts only if a committed, rerunnable harness writes it:
        // every file the baselines guard must be some job's output.
        let root = crate::workspace_root();
        let jobs = experiment_matrix();
        let orphans: Vec<String> = crate::diff::gated_files(&root)
            .into_iter()
            .filter(|rel| root.join("baselines").join(rel).exists())
            .filter(|rel| !jobs.iter().any(|j| j.outputs.contains(rel)))
            .collect();
        assert!(orphans.is_empty(), "baselined reports no job produces: {orphans:?}");
    }

    #[test]
    fn every_gated_output_is_unique() {
        let jobs = experiment_matrix();
        let mut outputs: Vec<_> = jobs.iter().flat_map(|j| j.outputs.clone()).collect();
        let total = outputs.len();
        outputs.sort();
        outputs.dedup();
        assert_eq!(outputs.len(), total, "no two jobs own the same report");
    }
}
