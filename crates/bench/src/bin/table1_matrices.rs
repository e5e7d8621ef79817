//! Table 1: the evaluation matrices and their stripe widths.
//!
//! Prints the paper's inventory columns (rows, nonzeros, stripe width) for
//! the scaled synthetic analogs, plus the structural statistics that justify
//! each analog's class (column-degree Gini, near-diagonal fraction).

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, write_json};
use twoface_matrix::gen::SuiteMatrix;
use twoface_matrix::stats::MatrixStats;

#[derive(Serialize)]
struct Row {
    short: &'static str,
    long: &'static str,
    rows: usize,
    nnz: usize,
    stripe_width: usize,
    col_gini: f64,
    near_diagonal_fraction: f64,
    mean_row_degree: f64,
}

fn main() {
    banner(
        "Table 1: Matrices used in the evaluation (scaled analogs)",
        "Paper: eight large SuiteSparse matrices; here: deterministic synthetic\n\
         analogs at ~1:256 scale with matching structure class.",
    );
    println!(
        "{:<12} {:<20} {:>10} {:>12} {:>8} {:>9} {:>10} {:>9}",
        "Short", "Stands for", "Rows", "Nonzeros", "Stripe", "ColGini", "NearDiag", "Deg/row"
    );
    let mut out = Vec::new();
    for m in SuiteMatrix::ALL {
        let a = m.generate();
        let stats = MatrixStats::compute(&a);
        let row = Row {
            short: m.short_name(),
            long: m.long_name(),
            rows: a.rows(),
            nnz: a.nnz(),
            stripe_width: m.stripe_width(),
            col_gini: stats.col_degrees.gini,
            near_diagonal_fraction: stats.near_diagonal_fraction,
            mean_row_degree: stats.row_degrees.mean,
        };
        println!(
            "{:<12} {:<20} {:>10} {:>12} {:>8} {:>9.3} {:>10.3} {:>9.1}",
            row.short,
            row.long,
            row.rows,
            row.nnz,
            row.stripe_width,
            row.col_gini,
            row.near_diagonal_fraction,
            row.mean_row_degree,
        );
        out.push(row);
    }
    write_json("table1_matrices", &out);
}
