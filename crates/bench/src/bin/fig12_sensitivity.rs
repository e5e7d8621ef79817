//! Figure 12: sensitivity of Two-Face's execution time to the preprocessing
//! model's coefficient values.
//!
//! Three 3×3 grids: scale (α_A, β_A), (α_S, β_S), and (γ_A, κ_A) by
//! {0.8, 1.0, 1.25} *in the coefficients handed to the classifier only* —
//! the simulated machine is unchanged, so a miscalibrated model misclassifies
//! stripes and the execution slows down. Cells are execution time relative
//! to the default coefficients, averaged over the paper's three
//! representative matrices: web (best case), twitter (worst case), stokes
//! (median case).

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, default_cost, geo_mean, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::{run_algorithm, Algorithm, RunOptions};
use twoface_matrix::gen::SuiteMatrix;
use twoface_partition::ModelCoefficients;

const MATRICES: [SuiteMatrix; 3] = [SuiteMatrix::Web, SuiteMatrix::Twitter, SuiteMatrix::Stokes];
const SCALES: [f64; 3] = [0.8, 1.0, 1.25];

#[derive(Serialize)]
struct Grid {
    varied: &'static str,
    /// `cells[i][j]` = relative time at row scale `SCALES[i]`, column scale
    /// `SCALES[j]`.
    cells: [[f64; 3]; 3],
}

fn main() {
    banner(
        "Figure 12: sensitivity to the preprocessing model's coefficients",
        format!(
            "K = {DEFAULT_K}, p = {DEFAULT_P}; geometric mean over web, twitter, stokes;\n\
             1.00 = default (regression-calibrated) coefficients."
        )
        .as_str(),
    );
    let cost = default_cost();
    let mut cache = SuiteCache::new();
    let problems: Vec<_> = MATRICES
        .iter()
        .map(|&m| cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid"))
        .collect();

    let baseline: Vec<f64> = problems
        .iter()
        .map(|problem| {
            run_algorithm(
                Algorithm::TwoFace,
                problem,
                &cost,
                &RunOptions { compute_values: false, ..Default::default() },
            )
            .expect("Two-Face fits")
            .seconds
        })
        .collect();

    // (label, row setter (alpha-like), column setter (beta-like)).
    type Setter = fn(&mut ModelCoefficients, f64);
    let grids: [(&'static str, Setter, Setter); 3] = [
        (
            "(a) varying alpha_A (rows) and beta_A (cols)",
            |c, s| c.alpha_async *= s,
            |c, s| c.beta_async *= s,
        ),
        (
            "(b) varying alpha_S (rows) and beta_S (cols)",
            |c, s| c.alpha_sync *= s,
            |c, s| c.beta_sync *= s,
        ),
        (
            "(c) varying gamma_A (rows) and kappa_A (cols)",
            |c, s| c.gamma_async *= s,
            |c, s| c.kappa_async *= s,
        ),
    ];

    let mut out = Vec::new();
    for (label, set_row, set_col) in grids {
        println!("\n{label}");
        print!("{:>8}", "");
        for cs in SCALES {
            print!("{cs:>8.2}");
        }
        println!();
        let mut cells = [[0.0f64; 3]; 3];
        for (i, rs) in SCALES.iter().enumerate() {
            print!("{rs:>8.2}");
            for (j, cs) in SCALES.iter().enumerate() {
                let mut coeffs = ModelCoefficients::from(&cost);
                set_row(&mut coeffs, *rs);
                set_col(&mut coeffs, *cs);
                let relatives: Vec<f64> = problems
                    .iter()
                    .zip(&baseline)
                    .map(|(problem, base)| {
                        let report = run_algorithm(
                            Algorithm::TwoFace,
                            problem,
                            &cost,
                            &RunOptions {
                                compute_values: false,
                                coefficients: Some(coeffs),
                                ..Default::default()
                            },
                        )
                        .expect("Two-Face fits");
                        report.seconds / base
                    })
                    .collect();
                let mean = geo_mean(&relatives).expect("three matrices");
                cells[i][j] = mean;
                print!("{mean:>8.2}");
            }
            println!();
        }
        out.push(Grid { varied: label, cells });
    }
    println!(
        "\nAs in the paper, the default (1.00, 1.00) cell should be at or near the\n\
         minimum of each grid: calibrated coefficients are a good operating point."
    );
    write_json("fig12_sensitivity", &out);
}
