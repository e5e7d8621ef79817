//! Ablation: sparse stripe width `W` (§6.2's tuning discussion).
//!
//! The paper observed growing preprocessing and runtime overheads as stripes
//! shrink, and chose widths scaling with the matrix dimension. This sweep
//! shows the tradeoff: narrow stripes give the classifier finer granularity
//! (more exactly-needed data) but multiply per-stripe overheads and multicast
//! calls; wide stripes degenerate toward whole-block transfers.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::time::Instant;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, Problem, RunOptions};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    stripe_width: usize,
    is_table1_width: bool,
    seconds: f64,
    elements_received: u64,
    preprocessing_wall_seconds: f64,
    sync_stripes: usize,
    async_stripes: usize,
}

fn main() {
    banner(
        "Ablation: sparse stripe width W (§6.2)",
        format!("Two-Face at K = {DEFAULT_K}, p = {DEFAULT_P}; Table-1 width marked.").as_str(),
    );
    let cost = default_cost();
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>7} {:>8} {:>12} {:>14} {:>10} {:>8} {:>8}",
        "matrix", "W", "table1?", "seconds", "elements", "prep (s)", "sync", "async"
    );
    for m in [SuiteMatrix::Arabic, SuiteMatrix::Twitter, SuiteMatrix::Queen] {
        let a = cache.matrix(m);
        let table1 = m.stripe_width();
        for factor in [1usize, 2, 4, 8, 16] {
            let width = (table1 * factor / 4).max(4);
            let problem = Problem::with_generated_b(a.clone(), DEFAULT_K, DEFAULT_P, width)
                .expect("layouts are valid");
            let wall = Instant::now();
            let plan = std::sync::Arc::new(twoface_core::prepare_plan(
                &problem,
                &twoface_partition::ModelCoefficients::from(&cost),
                &cost,
            ));
            let prep = wall.elapsed().as_secs_f64();
            let (_, sync_stripes, async_stripes) = plan.class_totals();
            let report = run_algorithm(
                Algorithm::TwoFace,
                &problem,
                &cost,
                &RunOptions { compute_values: false, plan: Some(plan), ..Default::default() },
            )
            .expect("Two-Face fits");
            let row = Row {
                matrix: m.short_name(),
                stripe_width: width,
                is_table1_width: width == table1,
                seconds: report.seconds,
                elements_received: report.elements_received,
                preprocessing_wall_seconds: prep,
                sync_stripes,
                async_stripes,
            };
            println!(
                "{:<10} {:>7} {:>8} {:>12.6} {:>14} {:>10.3} {:>8} {:>8}",
                row.matrix,
                row.stripe_width,
                if row.is_table1_width { "<-" } else { "" },
                row.seconds,
                row.elements_received,
                row.preprocessing_wall_seconds,
                row.sync_stripes,
                row.async_stripes
            );
            rows.push(row);
        }
        println!();
    }
    write_json("ablation_stripe_width", &rows);
}
