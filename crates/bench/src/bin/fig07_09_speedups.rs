//! Figures 7, 8, 9 and Table 5: speedups of every algorithm over DS2 for
//! K ∈ {32, 128, 512}, plus the absolute DS2 / Two-Face execution times.
//!
//! The headline claims reproduced here: Two-Face is the fastest algorithm on
//! average; its advantage over dense shifting grows with K; it wins big on
//! the locality-heavy matrices (web, queen, stokes, arabic, kmer) and loses
//! on the large-multicast ones (twitter, friendster); DS with higher
//! replication factors runs out of memory on the big matrices at K = 512.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::collections::BTreeMap;
use twoface_bench::{
    banner, cell, default_cost, geo_mean, write_json, CommCounters, SuiteCache, DEFAULT_P,
};
use twoface_core::{run_algorithm, Algorithm, RunError, RunOptions};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Entry {
    matrix: &'static str,
    k: usize,
    algorithm: String,
    seconds: Option<f64>,
    speedup_vs_ds2: Option<f64>,
    /// Communication counters summed across ranks (`None` when the run did
    /// not fit in memory).
    comm: Option<CommCounters>,
}

fn main() {
    banner(
        "Figures 7-9 + Table 5: algorithm speedups over DS2 for K in {32, 128, 512}",
        format!("p = {DEFAULT_P} nodes; bars normalized to DS2 as in the paper.").as_str(),
    );
    let cost = default_cost();
    let options = RunOptions { compute_values: false, ..Default::default() };
    let mut cache = SuiteCache::new();
    let mut entries: Vec<Entry> = Vec::new();
    let lineup = Algorithm::FIGURE7_LINEUP;

    for k in [32usize, 128, 512] {
        println!(
            "\n===== K = {k} (Figure {}) =====",
            match k {
                32 => "7",
                128 => "8",
                _ => "9",
            }
        );
        let header: String = lineup.iter().map(|a| format!("{:>12}", a.name())).collect();
        println!("{:<12}{header}", "matrix");
        let mut speedups_by_algo: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for m in SuiteMatrix::ALL {
            let problem = cache.problem(m, k, DEFAULT_P).expect("suite problems are valid");
            let mut seconds: Vec<(Algorithm, Option<(f64, CommCounters)>)> = Vec::new();
            for algo in lineup {
                let s = match run_algorithm(algo, &problem, &cost, &options) {
                    Ok(r) => Some((r.seconds, CommCounters::from_traces(&r.rank_traces))),
                    Err(RunError::OutOfMemory { .. }) => None,
                    Err(e) => panic!("unexpected error for {algo} on {m}: {e}"),
                };
                seconds.push((algo, s));
            }
            let ds2 = seconds
                .iter()
                .find(|(a, _)| matches!(a, Algorithm::DenseShifting { replication: 2 }))
                .and_then(|(_, s)| s.map(|(s, _)| s))
                .expect("DS2 never runs out of memory in the evaluation");
            let mut line = format!("{:<12}", m.short_name());
            for (algo, s) in &seconds {
                let speedup = s.map(|(s, _)| ds2 / s);
                line.push_str(&cell(speedup, 12, 2));
                if let Some(sp) = speedup {
                    speedups_by_algo.entry(algo.name()).or_default().push(sp);
                }
                entries.push(Entry {
                    matrix: m.short_name(),
                    k,
                    algorithm: algo.name(),
                    seconds: s.map(|(s, _)| s),
                    speedup_vs_ds2: speedup,
                    comm: s.map(|(_, c)| c),
                });
            }
            println!("{line}");
        }
        let mut avg_line = format!("{:<12}", "avg (geo)");
        for algo in lineup {
            let avg = speedups_by_algo.get(&algo.name()).and_then(|v| geo_mean(v));
            avg_line.push_str(&cell(avg, 12, 2));
        }
        println!("{avg_line}");
    }

    // Table 5: absolute times of DS2 and Two-Face.
    println!("\n===== Table 5: absolute execution times (simulated seconds) =====");
    println!("{:<8} {:<12} {:>14} {:>14}", "K", "matrix", "DS2", "Two-Face");
    for k in [32usize, 128, 512] {
        for m in SuiteMatrix::ALL {
            let ds2 = entries
                .iter()
                .find(|e| e.matrix == m.short_name() && e.k == k && e.algorithm == "DS2")
                .and_then(|e| e.seconds);
            let tf = entries
                .iter()
                .find(|e| e.matrix == m.short_name() && e.k == k && e.algorithm == "Two-Face")
                .and_then(|e| e.seconds);
            println!("{:<8} {:<12} {} {}", k, m.short_name(), cell(ds2, 14, 5), cell(tf, 14, 5));
        }
    }

    // Headline numbers: Two-Face vs the best dense-shifting factor per
    // matrix, averaged, per K (paper: 1.53x / 2.11x / 2.35x).
    println!("\n===== Headline: Two-Face speedup over best-DS per matrix =====");
    for k in [32usize, 128, 512] {
        let mut ratios = Vec::new();
        for m in SuiteMatrix::ALL {
            let tf = entries
                .iter()
                .find(|e| e.matrix == m.short_name() && e.k == k && e.algorithm == "Two-Face")
                .and_then(|e| e.seconds);
            let best_ds = entries
                .iter()
                .filter(|e| e.matrix == m.short_name() && e.k == k && e.algorithm.starts_with("DS"))
                .filter_map(|e| e.seconds)
                .fold(f64::INFINITY, f64::min);
            if let Some(tf) = tf {
                if best_ds.is_finite() {
                    ratios.push(best_ds / tf);
                }
            }
        }
        println!(
            "K = {:<4}: average Two-Face speedup over best dense shifting = {}x (paper: {})",
            k,
            geo_mean(&ratios).map_or_else(|| "n/a".into(), |g| format!("{g:.2}")),
            match k {
                32 => "1.53x",
                128 => "2.11x",
                _ => "2.35x",
            }
        );
    }
    write_json("fig07_09_speedups", &entries);
}
