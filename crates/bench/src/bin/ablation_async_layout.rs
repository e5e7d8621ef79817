//! Ablation: column-major vs row-major nonzero order in asynchronous
//! stripes — the §7.1 experiment.
//!
//! The paper tried storing async nonzeros row-major (cheaper, buffered
//! compute) and rejected it: "the cost of identifying which columns
//! contained nonzeros (and therefore which dense rows were required) became
//! drastically higher". This sweep reruns that experiment across K: the
//! identification cost is K-independent while the atomic-compute savings
//! grow with K, so column-major wins at small-to-moderate K — the paper's
//! operating points — with a crossover at large K.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, AsyncLayout, RunOptions, TwoFaceConfig};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    k: usize,
    column_major_seconds: f64,
    row_major_seconds: f64,
    row_major_relative: f64,
}

fn main() {
    banner(
        "Ablation: async stripe nonzero order (§7.1)",
        format!(
            "Async Fine (all stripes fine-grained) so the async lane is the\n\
             critical path, p = {DEFAULT_P}; relative > 1 means row-major loses."
        )
        .as_str(),
    );
    let cost = default_cost();
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>5} {:>14} {:>14} {:>10}",
        "matrix", "K", "col-major (s)", "row-major (s)", "relative"
    );
    // Async-heavy matrices where the layout actually matters.
    for m in [SuiteMatrix::Mawi, SuiteMatrix::Kmer, SuiteMatrix::Arabic] {
        for k in [32usize, 128, 512] {
            let problem = cache.problem(m, k, DEFAULT_P).expect("suite problems are valid");
            let time = |layout| {
                let config = TwoFaceConfig { async_layout: layout, ..Default::default() };
                run_algorithm(
                    Algorithm::AsyncFine,
                    &problem,
                    &cost,
                    &RunOptions { compute_values: false, config, ..Default::default() },
                )
                .expect("Async Fine fits")
                .seconds
            };
            let col = time(AsyncLayout::ColumnMajor);
            let row = time(AsyncLayout::RowMajor);
            let rel = row / col;
            println!("{:<10} {:>5} {:>14.6} {:>14.6} {:>10.2}", m.short_name(), k, col, row, rel);
            rows.push(Row {
                matrix: m.short_name(),
                k,
                column_major_seconds: col,
                row_major_seconds: row,
                row_major_relative: rel,
            });
        }
        println!();
    }
    write_json("ablation_async_layout", &rows);
}
