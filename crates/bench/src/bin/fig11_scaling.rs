//! Figure 11: strong scaling of Two-Face and dense shifting (DS1/2/4/8) from
//! 1 to 64 nodes at K = 128, plus the §7.2 multicast-recipient profile at
//! 64 nodes.
//!
//! Some data points are missing exactly as in the paper: dense shifting with
//! high replication (or any flavor at low node counts on the big matrices)
//! exceeds node memory, and DS(c) cannot run with c > p.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, cell, default_cost, write_json, CommCounters, SuiteCache, DEFAULT_K};
use twoface_core::{run_algorithm, Algorithm, RunError, RunOptions};
use twoface_matrix::gen::SuiteMatrix;

#[derive(Serialize)]
struct Entry {
    matrix: &'static str,
    p: usize,
    algorithm: String,
    seconds: Option<f64>,
    /// Communication counters summed across ranks (`None` on OOM / n/a).
    comm: Option<CommCounters>,
}

#[derive(Serialize)]
struct RecipientProfile {
    matrix: &'static str,
    mean_multicast_recipients: Option<f64>,
}

fn main() {
    banner(
        "Figure 11: strong scaling, 1 to 64 nodes (K = 128)",
        "Missing cells: OOM (memory) or n/a (replication factor exceeds nodes).",
    );
    let cost = default_cost();
    let options = RunOptions { compute_values: false, ..Default::default() };
    let node_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let algorithms = [
        Algorithm::TwoFace,
        Algorithm::DenseShifting { replication: 1 },
        Algorithm::DenseShifting { replication: 2 },
        Algorithm::DenseShifting { replication: 4 },
        Algorithm::DenseShifting { replication: 8 },
    ];
    let mut cache = SuiteCache::new();
    let mut entries = Vec::new();
    let mut profiles = Vec::new();

    for m in SuiteMatrix::ALL {
        println!("\n--- {} ---", m.short_name());
        let header: String = algorithms.iter().map(|a| format!("{:>12}", a.name())).collect();
        println!("{:<6}{header}", "p");
        for &p in &node_counts {
            let problem = cache.problem(m, DEFAULT_K, p).expect("suite problems are valid");
            let mut line = format!("{:<6}", p);
            for algo in algorithms {
                let result = run_algorithm(algo, &problem, &cost, &options);
                let (text, seconds, comm) = match result {
                    Ok(ref r) => (
                        cell(Some(r.seconds), 12, 5),
                        Some(r.seconds),
                        Some(CommCounters::from_traces(&r.rank_traces)),
                    ),
                    Err(RunError::OutOfMemory { .. }) => (format!("{:>12}", "OOM"), None, None),
                    Err(RunError::ReplicationExceedsNodes { .. }) => {
                        (format!("{:>12}", "n/a"), None, None)
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                };
                line.push_str(&text);
                entries.push(Entry {
                    matrix: m.short_name(),
                    p,
                    algorithm: algo.name(),
                    seconds,
                    comm,
                });
                // The §7.2 profile: recipients per multicast at p = 64.
                if p == 64 && algo == Algorithm::TwoFace {
                    if let Ok(r) = &result {
                        profiles.push(RecipientProfile {
                            matrix: m.short_name(),
                            mean_multicast_recipients: r.mean_multicast_recipients,
                        });
                    }
                }
            }
            println!("{line}");
        }
    }

    println!("\n===== §7.2 profile: mean multicast recipients at p = 64 =====");
    println!("(paper: twitter 35.7, friendster 43.5, next-largest kmer 5.7)");
    for prof in &profiles {
        println!("{:<12} {}", prof.matrix, cell(prof.mean_multicast_recipients, 8, 1));
    }

    // Scaling summary: Two-Face time(p=1) / time(p=64) per matrix.
    println!("\n===== Two-Face scaling 1 -> 64 nodes (paper: 7.47x mean, 12.12x best) =====");
    let mut improvements = Vec::new();
    for m in SuiteMatrix::ALL {
        let get = |p: usize| {
            entries
                .iter()
                .find(|e| e.matrix == m.short_name() && e.p == p && e.algorithm == "Two-Face")
                .and_then(|e| e.seconds)
        };
        match (get(1), get(64)) {
            (Some(t1), Some(t64)) => {
                let x = t1 / t64;
                println!("{:<12} {:>8.2}x", m.short_name(), x);
                improvements.push(x);
            }
            _ => println!("{:<12} {:>8}", m.short_name(), "n/a"),
        }
    }
    if let Some(mean) = twoface_bench::geo_mean(&improvements) {
        println!("{:<12} {:>8.2}x", "mean (geo)", mean);
    }
    #[derive(Serialize)]
    struct Out {
        entries: Vec<Entry>,
        recipient_profile_p64: Vec<RecipientProfile>,
    }
    write_json("fig11_scaling", &Out { entries, recipient_profile_p64: profiles });
}
