//! Ablation: threads, modeled and real.
//!
//! Two orthogonal knobs share the word "threads" and this sweep probes both:
//!
//! 1. **Modeled split** (Table 2's 120/8/2 division): thread counts scale
//!    the effective cost model — more async compute threads cut `γ_A` but
//!    starve the synchronous row-panel pool. The paper fixed 2 comm, 8 comp,
//!    and 120 sync per 128-thread node; this sweep probes the neighborhood
//!    on an async-compute-bound matrix (mawi) and a balanced one (arabic),
//!    and changing the split changes *simulated seconds* only.
//! 2. **Real execution workers** (`RunOptions::workers` / `TWOFACE_THREADS`):
//!    the OS threads that actually run the local kernels. Changing the count
//!    changes *host wall-clock* only — the modeled seconds and the output
//!    are bit-identical across the sweep, and this binary asserts both.

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, Problem, RunOptions, TwoFaceConfig};
use twoface_matrix::gen::{webcrawl, SuiteMatrix, WebcrawlConfig};
use twoface_net::CostModel;

#[derive(Serialize)]
struct SplitRow {
    matrix: &'static str,
    async_comm_threads: usize,
    async_comp_threads: usize,
    sync_comp_threads: usize,
    is_table2_default: bool,
    seconds: f64,
}

#[derive(Serialize)]
struct WorkerRow {
    workers: usize,
    wall_seconds: f64,
    modeled_seconds: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Output {
    modeled_split: Vec<SplitRow>,
    real_workers: Vec<WorkerRow>,
}

/// The modeled Table-2 split sweep (simulated seconds move, wall-clock is
/// irrelevant).
fn sweep_modeled_split() -> Vec<SplitRow> {
    let cost = default_cost();
    let mut cache = SuiteCache::new();
    let splits = [
        // (comm, comp, sync) summing to 130 like the paper's 2+8+120.
        (1usize, 4usize, 125usize),
        (2, 8, 120), // Table 2
        (4, 16, 110),
        (8, 32, 90),
        (16, 64, 50),
    ];
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>10} {:>12}",
        "matrix", "comm", "comp", "sync", "default?", "seconds"
    );
    for m in [SuiteMatrix::Mawi, SuiteMatrix::Arabic] {
        let problem = cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid");
        for (comm, comp, sync) in splits {
            let config = TwoFaceConfig {
                async_comm_threads: comm,
                async_comp_threads: comp,
                sync_comp_threads: sync,
                ..Default::default()
            };
            let is_default = config == TwoFaceConfig::default();
            let report = run_algorithm(
                Algorithm::TwoFace,
                &problem,
                &cost,
                &RunOptions { compute_values: false, config, ..Default::default() },
            )
            .expect("Two-Face fits");
            println!(
                "{:<10} {:>6} {:>6} {:>6} {:>10} {:>12.6}",
                m.short_name(),
                comm,
                comp,
                sync,
                if is_default { "<- T2" } else { "" },
                report.seconds
            );
            rows.push(SplitRow {
                matrix: m.short_name(),
                async_comm_threads: comm,
                async_comp_threads: comp,
                sync_comp_threads: sync,
                is_table2_default: is_default,
                seconds: report.seconds,
            });
        }
        println!();
    }
    rows
}

/// The real worker sweep on a webcrawl end-to-end workload (n = 8192,
/// K = 32, 8 ranks): host wall-clock moves, the modeled seconds and output
/// bits must not.
fn sweep_real_workers() -> Vec<WorkerRow> {
    let a = Arc::new(webcrawl(
        &WebcrawlConfig { n: 8192, hosts: 128, per_row: 10, ..Default::default() },
        5,
    ));
    let problem = Problem::with_generated_b(a, 32, 8, 64).expect("valid problem");
    let cost = CostModel::delta_scaled();
    let run = |workers: usize| {
        let options = RunOptions { workers: Some(workers), ..Default::default() };
        // Warm once, then time the median of three full-compute runs.
        let _ = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options).expect("fits");
        let mut samples = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let start = Instant::now();
            let report =
                run_algorithm(Algorithm::TwoFace, &problem, &cost, &options).expect("fits");
            samples.push(start.elapsed().as_secs_f64());
            last = Some(report);
        }
        samples.sort_by(f64::total_cmp);
        (samples[1], last.expect("three runs"))
    };
    println!("{:>8} {:>12} {:>16} {:>12}", "workers", "wall (s)", "modeled (s)", "speedup");
    let mut rows: Vec<WorkerRow> = Vec::new();
    let mut reference: Option<(f64, twoface_matrix::DenseMatrix)> = None;
    for workers in [1usize, 2, 4, 8] {
        let (wall, report) = run(workers);
        let output = report.output.expect("full compute");
        match &reference {
            None => reference = Some((report.seconds, output)),
            Some((seconds, c)) => {
                // The determinism contract, asserted where it's measured.
                assert_eq!(*seconds, report.seconds, "workers changed modeled time");
                assert_eq!(c, &output, "workers changed output bits");
            }
        }
        let base = rows.first().map_or(wall, |r| r.wall_seconds);
        let speedup = base / wall;
        println!("{workers:>8} {wall:>12.4} {:>16.6} {speedup:>11.2}x", report.seconds);
        rows.push(WorkerRow {
            workers,
            wall_seconds: wall,
            modeled_seconds: report.seconds,
            speedup_vs_1: speedup,
        });
    }
    rows
}

fn main() {
    banner(
        "Ablation: threads — modeled Table-2 split, then real workers",
        format!("Two-Face at K = {DEFAULT_K}, p = {DEFAULT_P}; 128 modeled threads per node.")
            .as_str(),
    );
    let modeled_split = sweep_modeled_split();
    println!(
        "Reading guide: the classifier re-balances for each split (it sees the\n\
         effective coefficients), so curves are flatter than a fixed plan would\n\
         give — but starving the sync pool still shows on sync-bound matrices.\n"
    );
    banner(
        "Real execution workers (TWOFACE_THREADS)",
        "webcrawl n = 8192, K = 32, p = 8, full compute; wall-clock vs modeled.",
    );
    let real_workers = sweep_real_workers();
    println!(
        "\nReading guide: workers move wall-clock only; modeled seconds and the\n\
         output are asserted bit-identical across the sweep."
    );
    write_json("ablation_threads", &Output { modeled_split, real_workers });
}
