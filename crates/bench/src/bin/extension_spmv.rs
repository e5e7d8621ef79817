//! Extension (§9): SpMV as the `K = 1` special case of Two-Face.
//!
//! The paper suggests Two-Face "may also be applicable to accelerate SpMV
//! ... with proper parameter tuning". At `K = 1` every per-row transfer is a
//! single scalar, so per-operation overheads (`α_A`, per-run costs) weigh
//! far more than at SpMM's K — the regime where coarse collectives are
//! hardest to beat. This harness runs the suite at `K = 1` with the standard
//! parameters and reports where the hybrid still wins.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::sync::Arc;
use twoface_bench::{banner, cell, default_cost, write_json, SuiteCache, DEFAULT_P};
use twoface_core::{run_spmv, Algorithm, RunError, RunOptions};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    ds2_seconds: Option<f64>,
    allgather_seconds: Option<f64>,
    async_fine_seconds: Option<f64>,
    two_face_seconds: Option<f64>,
    two_face_speedup_vs_ds2: Option<f64>,
}

fn main() {
    banner(
        "Extension: SpMV (K = 1) through the Two-Face machinery (§9)",
        format!("p = {DEFAULT_P}; x is a deterministic dense vector.").as_str(),
    );
    let cost = default_cost();
    let options = RunOptions::default();
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "matrix", "DS2", "Allgather", "AsyncFine", "Two-Face", "speedup"
    );
    for m in SuiteMatrix::ALL {
        let a = cache.matrix(m);
        let x: Vec<f64> = (0..a.cols()).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
        let time = |algo: Algorithm| -> Option<f64> {
            match run_spmv(algo, Arc::clone(&a), &x, DEFAULT_P, m.stripe_width(), &cost, &options) {
                Ok((_, report)) => Some(report.seconds),
                Err(RunError::OutOfMemory { .. }) => None,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        let ds2 = time(Algorithm::DenseShifting { replication: 2 });
        let allgather = time(Algorithm::Allgather);
        let async_fine = time(Algorithm::AsyncFine);
        let two_face = time(Algorithm::TwoFace);
        let speedup = match (ds2, two_face) {
            (Some(d), Some(t)) => Some(d / t),
            _ => None,
        };
        println!(
            "{:<12} {} {} {} {} {}",
            m.short_name(),
            cell(ds2, 12, 6),
            cell(allgather, 12, 6),
            cell(async_fine, 12, 6),
            cell(two_face, 12, 6),
            cell(speedup, 9, 2),
        );
        rows.push(Row {
            matrix: m.short_name(),
            ds2_seconds: ds2,
            allgather_seconds: allgather,
            async_fine_seconds: async_fine,
            two_face_seconds: two_face,
            two_face_speedup_vs_ds2: speedup,
        });
    }
    write_json("extension_spmv", &rows);
}
