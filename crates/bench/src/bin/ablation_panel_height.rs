//! Ablation: row-panel height of the synchronous/local-input sparse matrix
//! (Table 2 fixes it at 32 rows).
//!
//! Shorter panels mean more work units and more per-panel synchronization
//! (`κ` charges); taller panels coarsen scheduling. In the simulator the
//! effect is deliberately mild — the paper also found a static value fine —
//! but the sweep documents it and guards against regressions that would make
//! the panel structure load-bearing.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, RunOptions, TwoFaceConfig};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    panel_height: usize,
    is_table2_default: bool,
    seconds: f64,
}

fn main() {
    banner(
        "Ablation: row panel height (Table 2: 32 rows)",
        format!("Two-Face at K = {DEFAULT_K}, p = {DEFAULT_P}.").as_str(),
    );
    let cost = default_cost();
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!("{:<10} {:>8} {:>10} {:>12}", "matrix", "height", "default?", "seconds");
    for m in [SuiteMatrix::Queen, SuiteMatrix::Web] {
        let problem = cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid");
        for height in [4usize, 8, 16, 32, 64, 128, 256] {
            let config = TwoFaceConfig { row_panel_height: height, ..Default::default() };
            let report = run_algorithm(
                Algorithm::TwoFace,
                &problem,
                &cost,
                &RunOptions { compute_values: false, config, ..Default::default() },
            )
            .expect("Two-Face fits");
            println!(
                "{:<10} {:>8} {:>10} {:>12.6}",
                m.short_name(),
                height,
                if height == 32 { "<- T2" } else { "" },
                report.seconds
            );
            rows.push(Row {
                matrix: m.short_name(),
                panel_height: height,
                is_table2_default: height == 32,
                seconds: report.seconds,
            });
        }
        println!();
    }
    write_json("ablation_panel_height", &rows);
}
