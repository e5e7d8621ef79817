//! Ablation: the paper's greedy classifier vs the fan-out-aware variant it
//! sketches as future work (§4.2: "classify a stripe as synchronous when its
//! corresponding dense stripe is needed by many nodes").
//!
//! The greedy model prices every synchronous stripe identically, so on
//! matrices whose dense stripes are needed by most nodes (twitter,
//! friendster) it keeps expensive large multicasts synchronous — §7.1/§7.2
//! blame exactly this for Two-Face's losses. The fan-out-aware classifier
//! inflates the modeled sync cost by the multicast penalty and should narrow
//! those losses while leaving the winning matrices untouched.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::sync::Arc;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::{prepare_plan_with_classifier, run_algorithm, Algorithm, RunOptions};
use twoface_matrix::gen::SuiteMatrix;
use twoface_partition::{ClassifierKind, ModelCoefficients};

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    ds2_seconds: f64,
    greedy_seconds: f64,
    fanout_aware_seconds: f64,
    greedy_speedup_vs_ds2: f64,
    fanout_aware_speedup_vs_ds2: f64,
    fanout_mean_recipients: Option<f64>,
    greedy_mean_recipients: Option<f64>,
}

fn main() {
    banner(
        "Ablation: greedy vs fan-out-aware stripe classifier (§4.2 future work)",
        format!("Two-Face at K = {DEFAULT_K}, p = {DEFAULT_P}; speedups vs DS2.").as_str(),
    );
    let cost = default_cost();
    let coeffs = ModelCoefficients::from(&cost);
    let options = RunOptions { compute_values: false, ..Default::default() };
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:>10} {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "matrix", "DS2 (s)", "greedy", "aware", "greedy x", "aware x", "g-recips", "a-recips"
    );
    for m in SuiteMatrix::ALL {
        let problem = cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid");
        let ds2 =
            run_algorithm(Algorithm::DenseShifting { replication: 2 }, &problem, &cost, &options)
                .expect("DS2 fits at K = 128");
        let run = |kind: ClassifierKind| {
            let plan = Arc::new(prepare_plan_with_classifier(&problem, &coeffs, &cost, kind));
            run_algorithm(
                Algorithm::TwoFace,
                &problem,
                &cost,
                &RunOptions { plan: Some(plan), ..options.clone() },
            )
            .expect("Two-Face fits")
        };
        let greedy = run(ClassifierKind::Greedy);
        let aware = run(ClassifierKind::FanoutAware { penalty: cost.multicast_fanout });
        let row = Row {
            matrix: m.short_name(),
            ds2_seconds: ds2.seconds,
            greedy_seconds: greedy.seconds,
            fanout_aware_seconds: aware.seconds,
            greedy_speedup_vs_ds2: ds2.seconds / greedy.seconds,
            fanout_aware_speedup_vs_ds2: ds2.seconds / aware.seconds,
            greedy_mean_recipients: greedy.mean_multicast_recipients,
            fanout_mean_recipients: aware.mean_multicast_recipients,
        };
        println!(
            "{:<12} {:>10.5} {:>10.5} {:>10.5} | {:>9.2} {:>9.2} | {:>9} {:>9}",
            row.matrix,
            row.ds2_seconds,
            row.greedy_seconds,
            row.fanout_aware_seconds,
            row.greedy_speedup_vs_ds2,
            row.fanout_aware_speedup_vs_ds2,
            row.greedy_mean_recipients.map_or("-".into(), |r| format!("{r:.1}")),
            row.fanout_mean_recipients.map_or("-".into(), |r| format!("{r:.1}")),
        );
        rows.push(row);
    }
    let g: Vec<f64> = rows.iter().map(|r| r.greedy_speedup_vs_ds2).collect();
    let a: Vec<f64> = rows.iter().map(|r| r.fanout_aware_speedup_vs_ds2).collect();
    println!(
        "\ngeo-mean speedup vs DS2: greedy {:.2}x, fan-out-aware {:.2}x",
        twoface_bench::geo_mean(&g).unwrap(),
        twoface_bench::geo_mean(&a).unwrap()
    );
    write_json("ablation_classifier", &rows);
}
