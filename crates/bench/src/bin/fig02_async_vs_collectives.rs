//! Figure 2: speedup of Async Fine over the full-replication Allgather
//! collective implementation, for K = 32 and K = 128.
//!
//! The motivating result: whether fine-grained sparsity-aware transfers or
//! coarse collectives win is input dependent — roughly half the matrices
//! prefer each. As in the paper, kmer at K = 128 has no collectives data
//! because full replication exceeds node memory.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, cell, default_cost, write_json, CommCounters, SuiteCache, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, RunError, RunOptions};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    k: usize,
    allgather_seconds: Option<f64>,
    async_fine_seconds: Option<f64>,
    speedup_async_over_collectives: Option<f64>,
    /// Cross-rank communication counters — the collective path shows few
    /// messages moving many elements, the one-sided path the reverse.
    allgather_comm: Option<CommCounters>,
    async_fine_comm: Option<CommCounters>,
}

fn seconds(result: Result<twoface_core::ExecutionReport, RunError>) -> Option<(f64, CommCounters)> {
    match result {
        Ok(report) => Some((report.seconds, CommCounters::from_traces(&report.rank_traces))),
        Err(RunError::OutOfMemory { .. }) => None,
        Err(e) => panic!("unexpected run error: {e}"),
    }
}

fn main() {
    banner(
        "Figure 2: Async Fine vs full-replication Allgather",
        format!(
            "p = {DEFAULT_P} nodes; speedup > 1 means the sparsity-aware fine-grained\n\
             approach wins; 'OOM' marks the full-replication memory failure."
        )
        .as_str(),
    );
    let cost = default_cost();
    let options = RunOptions { compute_values: false, ..Default::default() };
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    for k in [32usize, 128] {
        println!("\n--- K = {k} ---");
        println!(
            "{:<12} {:>14} {:>14} {:>10}",
            "matrix", "Allgather (s)", "AsyncFine (s)", "speedup"
        );
        for m in SuiteMatrix::ALL {
            let problem = cache.problem(m, k, DEFAULT_P).expect("suite problems are valid");
            let allgather = seconds(run_algorithm(Algorithm::Allgather, &problem, &cost, &options));
            let async_fine =
                seconds(run_algorithm(Algorithm::AsyncFine, &problem, &cost, &options));
            let speedup = match (&allgather, &async_fine) {
                (Some((a, _)), Some((f, _))) => Some(a / f),
                _ => None,
            };
            println!(
                "{:<12} {} {} {}",
                m.short_name(),
                cell(allgather.map(|(s, _)| s), 14, 5),
                cell(async_fine.map(|(s, _)| s), 14, 5),
                cell(speedup, 10, 2),
            );
            rows.push(Row {
                matrix: m.short_name(),
                k,
                allgather_seconds: allgather.map(|(s, _)| s),
                async_fine_seconds: async_fine.map(|(s, _)| s),
                speedup_async_over_collectives: speedup,
                allgather_comm: allgather.map(|(_, c)| c),
                async_fine_comm: async_fine.map(|(_, c)| c),
            });
        }
        let winners = rows
            .iter()
            .filter(|r| r.k == k && r.speedup_async_over_collectives.is_some_and(|s| s > 1.0))
            .count();
        println!("(Async Fine wins on {winners} of 8 matrices at K = {k})");
    }
    write_json("fig02_async_vs_collectives", &rows);
}
