//! The algorithm-family differential harness: every member of
//! [`Algorithm::FAMILY`] against the serial reference, **bitwise**, across a
//! synthetic matrix set × cluster shapes (including non-square 2D grids) ×
//! `K` × real worker counts — plus cross-algorithm bit-identity.
//!
//! Bitwise comparison across algorithms with different summation orders is
//! only meaningful when every partial sum is exact, so the operands are
//! small integers: all intermediate values are integer-valued and far below
//! 2^53, making floating-point addition associative in exact arithmetic.
//! Any nonzero difference is therefore a real divergence (wrong row fetched,
//! block double-counted, partial misrouted), never roundoff.

use std::sync::Arc;
use twoface_core::sddmm::{reference_sddmm, run_sddmm, SddmmAlgorithm};
use twoface_core::{reference_spmm, run_algorithm, Algorithm, Problem, RunOptions};
use twoface_matrix::gen::{
    banded, erdos_renyi, hub_traffic, rmat, webcrawl, BandedConfig, HubConfig, RmatConfig,
    WebcrawlConfig,
};
use twoface_matrix::{CooMatrix, DenseMatrix, Triplet};
use twoface_net::CostModel;

/// Rewrites a generated matrix's values to small integers so all partial
/// sums are exactly representable (see the module docs).
fn integerize(a: CooMatrix) -> CooMatrix {
    let (rows, cols) = (a.rows(), a.cols());
    let triplets: Vec<Triplet> = a
        .iter()
        .enumerate()
        .map(|(i, (r, c, _))| {
            let sign = if (i / 7) % 2 == 0 { 1.0 } else { -1.0 };
            Triplet::new(r, c, ((i % 7) + 1) as f64 * sign)
        })
        .collect();
    CooMatrix::from_triplets(rows, cols, triplets).expect("same shape, same entries")
}

/// A small-integer dense operand (values in `[-4, 4]`).
fn integer_b(rows: usize, k: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, k, |i, j| {
        ((i.wrapping_mul(31) + j.wrapping_mul(17)) % 9) as f64 - 4.0
    })
}

/// The synthetic matrix set: one per structure class the paper's suite
/// spans (uniform, banded/local, power-law, hub-dominated).
fn matrix_set() -> Vec<(&'static str, CooMatrix)> {
    vec![
        ("erdos", erdos_renyi(384, 384, 3000, 21)),
        (
            "banded",
            banded(&BandedConfig { n: 384, bandwidth: 16, per_row: 6, escape_fraction: 0.03 }, 22),
        ),
        ("rmat", rmat(&RmatConfig { scale: 8, edge_factor: 6, ..Default::default() }, 23)),
        ("hub", hub_traffic(&HubConfig { n: 360, nnz: 2600, hubs: 6, ..Default::default() }, 24)),
    ]
}

/// Cluster shapes: square grid (4 → 2×2, 16 → 4×4), non-square 2D grids
/// (6 → 2×3, 8 → 2×4), and the degenerate prime grid (7 → 1×7).
const SHAPES: [usize; 5] = [4, 6, 7, 8, 16];

/// Runs one algorithm bit-exactly and returns its flat output.
fn run_exact(algorithm: Algorithm, problem: &Problem, workers: usize) -> Vec<f64> {
    let cost = CostModel { memory_per_node: usize::MAX, ..CostModel::delta_scaled() };
    let options = RunOptions { compute_values: true, workers: Some(workers), ..Default::default() };
    let report = run_algorithm(algorithm, problem, &cost, &options)
        .unwrap_or_else(|e| panic!("{algorithm} failed: {e}"));
    report.output.expect("compute_values produces output").into_vec()
}

fn family_for(p: usize) -> Vec<Algorithm> {
    Algorithm::FAMILY
        .into_iter()
        .filter(|a| match a {
            Algorithm::DenseShifting { replication } | Algorithm::OneFiveD { replication } => {
                *replication <= p
            }
            _ => true,
        })
        .collect()
}

/// The tentpole check: every family member is bitwise-equal to the serial
/// oracle at every (matrix, shape, K, workers) point, which also makes all
/// members bitwise-equal to each other.
#[test]
fn every_algorithm_matches_the_oracle_bitwise() {
    for (name, a) in matrix_set() {
        let a = Arc::new(integerize(a));
        for p in SHAPES {
            for k in [8usize, 32, 128] {
                let b = Arc::new(integer_b(a.cols(), k));
                let problem = Problem::new(Arc::clone(&a), Arc::clone(&b), p, 24)
                    .expect("test problems are well-formed");
                let oracle = reference_spmm(&a, &b).into_vec();
                for workers in [1usize, 4] {
                    for algorithm in family_for(p) {
                        let got = run_exact(algorithm, &problem, workers);
                        assert_eq!(got.len(), oracle.len());
                        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                            assert!(
                                g.to_bits() == o.to_bits(),
                                "{algorithm} on {name} (p={p}, K={k}, workers={workers}): \
                                 element {i} is {g}, oracle says {o}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Float-domain cross-algorithm behavior: algorithms that feed each output
/// row to a *single* kernel call (Allgather, AsyncCoarse) are bitwise
/// interchangeable even on inexact sums; the per-block algorithms (Slicing,
/// SUMMA, 1.5D) regroup the row sum per block, so they agree to roundoff
/// (1e-9) but not bitwise — the integer-domain test above is where their
/// bit-identity is pinned.
#[test]
fn float_domain_grouping_contract() {
    let a = Arc::new(erdos_renyi(256, 256, 2200, 31));
    for p in [6usize, 8] {
        let problem = Problem::with_generated_b(Arc::clone(&a), 16, p, 24).expect("well-formed");
        let baseline = run_exact(Algorithm::Allgather, &problem, 1);
        let same_order = run_exact(Algorithm::AsyncCoarse, &problem, 4);
        assert!(
            same_order.iter().zip(&baseline).all(|(g, b)| g.to_bits() == b.to_bits()),
            "AsyncCoarse diverges from Allgather on the float domain (p={p})"
        );
        for algorithm in [Algorithm::Slicing, Algorithm::Summa] {
            let got = run_exact(algorithm, &problem, 4);
            let max_diff =
                got.iter().zip(&baseline).map(|(g, b)| (g - b).abs()).fold(0.0f64, f64::max);
            assert!(max_diff < 1e-9, "{algorithm} off by {max_diff} on the float domain (p={p})");
        }
    }
}

/// `Algorithm::Auto` runs end to end, reports its resolved choice, and its
/// output matches the oracle bitwise like any concrete member.
#[test]
fn auto_resolves_and_matches_the_oracle() {
    let a = Arc::new(integerize(erdos_renyi(384, 384, 3000, 41)));
    for p in [4usize, 7] {
        let b = Arc::new(integer_b(a.cols(), 32));
        let problem = Problem::new(Arc::clone(&a), Arc::clone(&b), p, 24).expect("well-formed");
        let cost = CostModel { memory_per_node: usize::MAX, ..CostModel::delta_scaled() };
        let options = RunOptions { compute_values: true, validate: true, ..Default::default() };
        let report = run_algorithm(Algorithm::Auto, &problem, &cost, &options)
            .unwrap_or_else(|e| panic!("Auto failed on p={p}: {e}"));
        assert!(
            report.algorithm.starts_with("Auto(") && report.algorithm.ends_with(')'),
            "report names the resolved choice, got {:?}",
            report.algorithm
        );
        let oracle = reference_spmm(&a, &b).into_vec();
        let got = report.output.expect("computed").into_vec();
        assert!(
            got.iter().zip(&oracle).all(|(g, o)| g.to_bits() == o.to_bits()),
            "Auto's resolved algorithm diverges from the oracle (p={p})"
        );
    }
}

/// Worker counts never change a single bit (the per-algorithm determinism
/// contract), checked pairwise at a non-square shape.
#[test]
fn worker_count_never_changes_output_bits() {
    let a = Arc::new(rmat(&RmatConfig { scale: 8, edge_factor: 6, ..Default::default() }, 51));
    let problem = Problem::with_generated_b(Arc::clone(&a), 32, 6, 24).expect("well-formed");
    for algorithm in family_for(6) {
        let w1 = run_exact(algorithm, &problem, 1);
        let w4 = run_exact(algorithm, &problem, 4);
        assert!(
            w1.iter().zip(&w4).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{algorithm}: workers=1 vs workers=4 outputs differ"
        );
    }
}

/// Degenerate shapes: a single rank (every algorithm collapses to the local
/// kernel) and K = 1.
#[test]
fn degenerate_shapes_still_match() {
    let a = Arc::new(integerize(erdos_renyi(64, 64, 500, 61)));
    for (p, k) in [(1usize, 8usize), (4, 1)] {
        let b = Arc::new(integer_b(a.cols(), k));
        let problem = Problem::new(Arc::clone(&a), Arc::clone(&b), p, 16).expect("well-formed");
        let oracle = reference_spmm(&a, &b).into_vec();
        for algorithm in family_for(p) {
            let got = run_exact(algorithm, &problem, 2);
            assert!(
                got.iter().zip(&oracle).all(|(g, o)| g.to_bits() == o.to_bits()),
                "{algorithm} wrong at degenerate (p={p}, K={k})"
            );
        }
    }
}

/// SDDMM computes each output nonzero with one dot product of an `X` row and
/// a `Y` row, exactly as the serial oracle does, and a fetched or multicast
/// `Y` row is a copy of the oracle's. So every schedule matches
/// [`reference_sddmm`] bit for bit on real-valued operands, whatever the
/// order each lane visits its nonzeros in and at any worker count.
#[test]
fn sddmm_matches_the_oracle_bitwise() {
    let cost = CostModel { memory_per_node: usize::MAX, ..CostModel::delta_scaled() };
    let crawl = WebcrawlConfig { n: 1024, hosts: 32, per_row: 8, ..Default::default() };
    let matrices = [
        ("webcrawl", webcrawl(&crawl, 71)),
        ("rmat", rmat(&RmatConfig { scale: 10, edge_factor: 8, ..Default::default() }, 72)),
    ];
    let bits = |m: &CooMatrix| m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect::<Vec<_>>();
    for (name, a) in matrices {
        let a = Arc::new(a);
        for (k, p, w) in [(8usize, 4usize, 16usize), (32, 8, 32), (5, 6, 24)] {
            let problem = Problem::with_generated_b(Arc::clone(&a), k, p, w).expect("well-formed");
            let x = DenseMatrix::from_fn(a.rows(), k, |i, j| {
                ((i * 13 + j * 7) % 17) as f64 / 7.0 - 1.1
            });
            let oracle = bits(&reference_sddmm(&a, &x, &problem.b));
            for algorithm in
                [SddmmAlgorithm::TwoFace, SddmmAlgorithm::AsyncFine, SddmmAlgorithm::Allgather]
            {
                for workers in [1usize, 4] {
                    let options = RunOptions {
                        compute_values: true,
                        workers: Some(workers),
                        ..Default::default()
                    };
                    let report = run_sddmm(algorithm, &problem, &x, &cost, &options)
                        .unwrap_or_else(|e| panic!("{algorithm} on {name} failed: {e}"));
                    let got = report.output.expect("compute_values produces output");
                    assert!(
                        bits(&got) == oracle,
                        "{algorithm} on {name} (K={k}, p={p}, W={w}, workers={workers}) differs \
                         from the serial oracle"
                    );
                }
            }
        }
    }
}
