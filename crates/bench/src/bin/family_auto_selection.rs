//! Algorithm-family auto-selection quality: for every suite matrix, run
//! every concrete candidate, resolve [`Algorithm::Auto`], and score how
//! often the model's pick lands within 10% of the best measured simulated
//! time (the acceptance bar is ≥ 87% of the suite, enforced here).

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, cell, default_cost, write_json, SuiteCache, DEFAULT_P};
use twoface_core::{resolve_auto, run_algorithm, Algorithm, RunError, RunOptions, TwoFaceConfig};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Entry {
    matrix: &'static str,
    k: usize,
    chosen: String,
    chosen_seconds: Option<f64>,
    best: String,
    best_seconds: f64,
    /// `chosen_seconds / best_seconds`; 1.0 means Auto picked the winner.
    loss_ratio: Option<f64>,
    within_10pct: bool,
}

#[derive(Serialize)]
struct Report {
    p: usize,
    within_10pct_rate: f64,
    entries: Vec<Entry>,
}

fn main() {
    banner(
        "Algorithm-family auto-selection quality",
        format!("p = {DEFAULT_P} nodes; Auto vs the measured best over all candidates.").as_str(),
    );
    let cost = default_cost();
    let config = TwoFaceConfig::default();
    let effective = config.effective_cost(&cost);
    let options = RunOptions { compute_values: false, ..Default::default() };
    let mut cache = SuiteCache::new();
    let candidates = twoface_core::auto_candidates(DEFAULT_P);
    let mut entries: Vec<Entry> = Vec::new();

    println!(
        "{:<12} {:>4} {:<14} {:>12} {:<14} {:>12} {:>8}",
        "matrix", "K", "chosen", "chosen s", "best", "best s", "loss"
    );
    for k in [32usize, 128] {
        for m in SuiteMatrix::ALL {
            let problem = cache.problem(m, k, DEFAULT_P).expect("suite problems are valid");
            let mut measured: Vec<(Algorithm, f64)> = Vec::new();
            for &algo in &candidates {
                match run_algorithm(algo, &problem, &cost, &options) {
                    Ok(r) => measured.push((algo, r.seconds)),
                    Err(RunError::OutOfMemory { .. }) => {}
                    Err(e) => panic!("unexpected error for {algo} on {m}: {e}"),
                }
            }
            let &(best_algo, best_seconds) = measured
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one candidate fits");
            let chosen = resolve_auto(&problem.a, &problem.layout, k, &config, &effective)
                .expect("the default config is valid")
                .algorithm;
            let chosen_seconds = measured.iter().find(|(a, _)| *a == chosen).map(|&(_, s)| s);
            let loss_ratio = chosen_seconds.map(|s| s / best_seconds);
            let within_10pct = loss_ratio.is_some_and(|r| r <= 1.10);
            println!(
                "{:<12} {:>4} {:<14} {} {:<14} {} {:>8}",
                m.short_name(),
                k,
                chosen.name(),
                cell(chosen_seconds, 12, 5),
                best_algo.name(),
                cell(Some(best_seconds), 12, 5),
                loss_ratio.map_or_else(|| "    oom".into(), |r| format!("{r:7.3}x")),
            );
            entries.push(Entry {
                matrix: m.short_name(),
                k,
                chosen: chosen.name(),
                chosen_seconds,
                best: best_algo.name(),
                best_seconds,
                loss_ratio,
                within_10pct,
            });
        }
    }

    let hits = entries.iter().filter(|e| e.within_10pct).count();
    let rate = hits as f64 / entries.len() as f64;
    println!(
        "\nAuto within 10% of the measured best on {hits}/{} points ({:.0}%; bar: 87%)",
        entries.len(),
        rate * 100.0
    );
    assert!(
        rate >= 0.87,
        "auto-selection quality regressed below the 87% bar: {hits}/{} points",
        entries.len()
    );
    write_json("family_auto_selection", &Report { p: DEFAULT_P, within_10pct_rate: rate, entries });
}
