//! Ablation: row-coalescing aggressiveness in asynchronous transfers
//! (§5.2.3, Table 2's `(127/K)+1` rule).
//!
//! Sweeps the maximum merge distance on two async-heavy matrices at two K
//! values. Small distances pay per-run software overhead; large distances
//! transfer useless padding rows. The Table-2 rule should sit near the
//! minimum for each K, with the optimum shifting left as K grows.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, RunOptions, TwoFaceConfig};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    k: usize,
    distance: usize,
    is_rule_default: bool,
    seconds: f64,
    elements_received: u64,
}

fn main() {
    banner(
        "Ablation: async row-coalescing distance (§5.2.3)",
        "Async Fine runs (all stripes fine-grained) so the knob dominates;\n\
         elements_received grows with padding, time balances runs vs padding.",
    );
    let cost = default_cost();
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>5} {:>9} {:>8} {:>12} {:>14}",
        "matrix", "K", "distance", "rule?", "seconds", "elements"
    );
    for m in [SuiteMatrix::Kmer, SuiteMatrix::Arabic] {
        for k in [32usize, 128] {
            let problem = cache.problem(m, k, DEFAULT_P).expect("suite problems are valid");
            let rule = TwoFaceConfig::default().max_coalesce_distance(k);
            for distance in [1usize, 2, 4, 8, 16, 32] {
                let config = TwoFaceConfig {
                    coalesce_distance_override: Some(distance),
                    ..Default::default()
                };
                let report = run_algorithm(
                    Algorithm::AsyncFine,
                    &problem,
                    &cost,
                    &RunOptions { compute_values: false, config, ..Default::default() },
                )
                .expect("async fine always fits");
                let row = Row {
                    matrix: m.short_name(),
                    k,
                    distance,
                    is_rule_default: distance == rule,
                    seconds: report.seconds,
                    elements_received: report.elements_received,
                };
                println!(
                    "{:<10} {:>5} {:>9} {:>8} {:>12.6} {:>14}",
                    row.matrix,
                    row.k,
                    row.distance,
                    if row.is_rule_default { "<- rule" } else { "" },
                    row.seconds,
                    row.elements_received
                );
                rows.push(row);
            }
            println!();
        }
    }
    write_json("ablation_coalescing", &rows);
}
