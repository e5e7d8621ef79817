//! Extension (§9): Two-Face applied to SDDMM.
//!
//! The paper's conclusion claims the algorithm transfers directly to sampled
//! dense-dense matrix multiplication. This harness substantiates it: the
//! same plans and transfer schedules run SDDMM on the full suite, and the
//! win/loss pattern mirrors the SpMM results because the communication —
//! which dominates — is identical.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, default_cost, geo_mean, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::sddmm::{run_sddmm, SddmmAlgorithm};
use twoface_core::RunOptions;
use twoface_matrix::gen::SuiteMatrix;
use twoface_matrix::DenseMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    allgather_seconds: f64,
    async_fine_seconds: f64,
    two_face_seconds: f64,
    two_face_speedup_vs_allgather: f64,
}

fn main() {
    banner(
        "Extension: distributed SDDMM via Two-Face (§9)",
        format!("C = A ⊙ (X·Yᵀ), K = {DEFAULT_K}, p = {DEFAULT_P}.").as_str(),
    );
    let cost = default_cost();
    let options = RunOptions { compute_values: false, ..Default::default() };
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "matrix", "Allgather", "AsyncFine", "Two-Face", "speedup"
    );
    for m in SuiteMatrix::ALL {
        let problem = cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid");
        // X follows A's rows; contents are irrelevant for timing.
        let x = DenseMatrix::zeros(problem.a.rows(), DEFAULT_K);
        let time = |algo| {
            run_sddmm(algo, &problem, &x, &cost, &options)
                .expect("sddmm runs on the whole suite")
                .seconds
        };
        let row = Row {
            matrix: m.short_name(),
            allgather_seconds: time(SddmmAlgorithm::Allgather),
            async_fine_seconds: time(SddmmAlgorithm::AsyncFine),
            two_face_seconds: time(SddmmAlgorithm::TwoFace),
            two_face_speedup_vs_allgather: 0.0,
        };
        let row = Row {
            two_face_speedup_vs_allgather: row.allgather_seconds / row.two_face_seconds,
            ..row
        };
        println!(
            "{:<12} {:>12.5} {:>12.5} {:>12.5} {:>10.2}",
            row.matrix,
            row.allgather_seconds,
            row.async_fine_seconds,
            row.two_face_seconds,
            row.two_face_speedup_vs_allgather
        );
        rows.push(row);
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.two_face_speedup_vs_allgather).collect();
    println!(
        "\ngeo-mean Two-Face speedup over all-sync SDDMM: {:.2}x",
        geo_mean(&speedups).unwrap()
    );
    write_json("extension_sddmm", &rows);
}
