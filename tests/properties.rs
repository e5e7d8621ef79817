//! Property-based tests over the core data structures and invariants.
//!
//! Each property is exercised over many randomly generated cases from a
//! fixed-seed [`StdRng`], so failures are reproducible: the failing case's
//! construction is a pure function of the case index printed in the
//! assertion message.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use twoface_core::sampling::{run_sampled_twoface, EdgeSampler};
use twoface_core::{
    coalesce_rows, run_algorithm, runs_to_rows, Algorithm, AsyncLayout, Problem, RunOptions,
    TwoFaceConfig,
};
use twoface_matrix::{CooMatrix, DenseMatrix, Triplet};
use twoface_net::{CostModel, FaultPlan, PhaseClass, RetryPolicy};
use twoface_partition::{
    classify_node, profile_all_nodes, ModelCoefficients, NodeProfile, OneDimLayout, PartitionPlan,
    PlanOptions, StripeClass,
};

/// Number of random cases per property.
const CASES: usize = 64;

/// A random sparse matrix with 2–39 rows/cols and up to 120 draws.
fn random_matrix(rng: &mut StdRng) -> CooMatrix {
    let rows = rng.gen_range(2usize..40);
    let cols = rng.gen_range(2usize..40);
    let n = rng.gen_range(0usize..120);
    let triplets: Vec<(usize, usize, f64)> = (0..n)
        .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols), rng.gen_range(-4.0f64..4.0)))
        .collect();
    CooMatrix::from_triplets(rows, cols, triplets).expect("in bounds by construction")
}

/// A strictly ascending list of row ids below 500, up to 40 long.
fn random_ascending_rows(rng: &mut StdRng) -> Vec<usize> {
    let n = rng.gen_range(0usize..40);
    let set: BTreeSet<usize> = (0..n).map(|_| rng.gen_range(0usize..500)).collect();
    set.into_iter().collect()
}

#[test]
fn coo_csr_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC5_01);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        assert_eq!(m.to_csr().to_coo(), m, "case {case}");
    }
}

#[test]
fn coo_csc_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC5_02);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        assert_eq!(m.to_csc().to_coo(), m, "case {case}");
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = StdRng::seed_from_u64(0xC5_03);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        assert_eq!(m.transpose().transpose(), m, "case {case}");
    }
}

#[test]
fn market_io_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC5_04);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let mut buf = Vec::new();
        twoface_matrix::io::write_market(&mut buf, &m).expect("writes");
        let back = twoface_matrix::io::read_market(buf.as_slice()).expect("parses");
        assert_eq!(back, m, "case {case}");
    }
}

#[test]
fn binary_io_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC5_05);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let mut buf = Vec::new();
        twoface_matrix::io::write_binary(&mut buf, &m).expect("writes");
        let back = twoface_matrix::io::read_binary(buf.as_slice()).expect("parses");
        assert_eq!(back, m, "case {case}");
    }
}

#[test]
fn csr_spmm_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xC5_06);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let k = rng.gen_range(1usize..6);
        let b = DenseMatrix::from_fn(m.cols(), k, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let via_csr = m.to_csr().spmm(&b);
        let reference = twoface_core::reference_spmm(&m, &b);
        assert!(via_csr.approx_eq(&reference, 1e-9), "case {case}");
    }
}

#[test]
fn coalescer_covers_exactly_with_bounded_padding() {
    let mut rng = StdRng::seed_from_u64(0xC5_07);
    for case in 0..CASES {
        let rows = random_ascending_rows(&mut rng);
        let distance = rng.gen_range(1usize..20);
        let (runs, padding) = coalesce_rows(&rows, distance);
        let transferred = runs_to_rows(&runs);
        // Every needed row covered, sizes consistent.
        for r in &rows {
            assert!(transferred.contains(r), "case {case}: row {r} dropped");
        }
        assert_eq!(transferred.len(), rows.len() + padding, "case {case}");
        // Padding per merge is at most (distance - 1); merges < rows.len().
        if !rows.is_empty() {
            assert!(padding <= (distance - 1) * (rows.len() - 1), "case {case}");
        }
        // Runs are sorted, non-overlapping, and gaps between runs exceed the
        // distance (otherwise they would have merged).
        for w in runs.windows(2) {
            let prev_end = w[0].0 + w[0].1 - 1;
            assert!(w[1].0 > prev_end, "case {case}");
            assert!(w[1].0 - prev_end > distance, "case {case}");
        }
    }
}

#[test]
fn larger_distance_never_increases_run_count() {
    let mut rng = StdRng::seed_from_u64(0xC5_08);
    for case in 0..CASES {
        let rows = random_ascending_rows(&mut rng);
        let distance = rng.gen_range(1usize..10);
        let (runs_small, _) = coalesce_rows(&rows, distance);
        let (runs_large, _) = coalesce_rows(&rows, distance + 5);
        assert!(runs_large.len() <= runs_small.len(), "case {case}");
    }
}

#[test]
fn partition_plan_conserves_nonzeros() {
    let mut rng = StdRng::seed_from_u64(0xC5_09);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let p = rng.gen_range(1usize..6).min(m.rows()).min(m.cols()).max(1);
        let w = rng.gen_range(1usize..12);
        let layout = OneDimLayout::new(m.rows(), m.cols(), p, w);
        let plan = PartitionPlan::build(
            &m,
            layout,
            &ModelCoefficients::table3(),
            4,
            PlanOptions::default(),
        );
        let (l, s, a) = plan.nnz_totals();
        assert_eq!(l + s + a, m.nnz(), "case {case}");
    }
}

/// The stripe profiles of every rank, recomputed by a full scan of `m`:
/// filter the triplets by the rank's row range and keep a set of columns per
/// stripe. Columns map to stripes through the stripe table, not
/// `stripe_of_col`. Each profile is `(stripe, nnz, rows_needed)`, ascending.
fn full_scan_profiles(m: &CooMatrix, layout: &OneDimLayout) -> Vec<Vec<(usize, usize, usize)>> {
    let mut stripe_of = vec![usize::MAX; m.cols()];
    for s in 0..layout.num_stripes() {
        for c in layout.stripe_cols(s) {
            stripe_of[c] = s;
        }
    }
    (0..layout.nodes())
        .map(|rank| {
            let rows = layout.row_range(rank);
            let mut by_stripe: BTreeMap<usize, (usize, BTreeSet<usize>)> = BTreeMap::new();
            for t in m.triplets().iter().filter(|t| rows.contains(&t.row)) {
                let (nnz, cols) = by_stripe.entry(stripe_of[t.col]).or_default();
                *nnz += 1;
                cols.insert(t.col);
            }
            by_stripe.into_iter().map(|(s, (nnz, cols))| (s, nnz, cols.len())).collect()
        })
        .collect()
}

#[test]
fn profiles_match_a_full_scan_reference() {
    let mut rng = StdRng::seed_from_u64(0xC5_11);
    let (mut cols_below_p, mut ranks_without_nonzeros) = (0, 0);
    let mut check = |case: usize, m: &CooMatrix, p: usize, w: usize| {
        let layout = OneDimLayout::new(m.rows(), m.cols(), p, w);
        let expected = full_scan_profiles(m, &layout);
        let profiles = profile_all_nodes(m, &layout);
        assert_eq!(profiles.len(), p, "case {case} p={p} W={w}");
        for (rank, (profile, expected)) in profiles.iter().zip(&expected).enumerate() {
            assert_eq!(profile.rank, rank);
            let got: Vec<(usize, usize, usize)> =
                profile.stripes.iter().map(|s| (s.stripe, s.nnz, s.rows_needed)).collect();
            assert_eq!(&got, expected, "case {case} p={p} W={w} rank {rank}");
            ranks_without_nonzeros += usize::from(expected.is_empty());
        }
        cols_below_p += usize::from(m.cols() < p);
    };
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let p = rng.gen_range(1..=m.rows());
        let wider_than_a_block = m.cols().div_ceil(p) + 1;
        check(case, &m, p, 1);
        check(case, &m, p, rng.gen_range(2usize..12));
        check(case, &m, p, wider_than_a_block);
        check(case, &m, m.rows(), rng.gen_range(1usize..4));
    }
    // A matrix without rows: the single rank's row block is empty.
    check(CASES, &CooMatrix::new(0, 9), 1, 2);
    assert!(cols_below_p > 0, "no case laid out fewer columns than ranks");
    assert!(ranks_without_nonzeros > 0, "no case left a rank without nonzeros");
}

#[test]
fn classifier_respects_the_budget_inequality() {
    let mut rng = StdRng::seed_from_u64(0xC5_0A);
    for case in 0..CASES {
        let m = random_matrix(&mut rng);
        let w = rng.gen_range(1usize..12);
        let p = 3usize.min(m.rows()).min(m.cols()).max(1);
        let layout = OneDimLayout::new(m.rows(), m.cols(), p, w);
        let coeffs = ModelCoefficients::table3();
        let k = 8;
        for rank in 0..p {
            let profile = NodeProfile::build(&m, &layout, rank);
            let c = classify_node(&profile, &layout, &coeffs, k);
            // Σ z_i over async stripes <= Σ sync-cost over all remote
            // stripes (the greedy budget, §4.2).
            let budget: f64 = profile
                .remote_stripes(&layout)
                .map(|s| coeffs.sync_stripe_cost(layout.stripe_cols(s.stripe).len(), k))
                .sum();
            let spent: f64 = profile
                .remote_stripes(&layout)
                .filter(|s| c.class_of(s.stripe) == Some(StripeClass::Async))
                .map(|s| {
                    coeffs.v_term(s.rows_needed(), s.nnz, k)
                        + coeffs.u_term(layout.stripe_cols(s.stripe).len(), k)
                })
                .sum();
            assert!(
                spent <= budget + 1e-12,
                "case {case} rank {rank}: spent {spent} > budget {budget}"
            );
        }
    }
}

#[test]
fn twoface_validates_on_arbitrary_matrices() {
    let mut rng = StdRng::seed_from_u64(0xC5_0B);
    for case in 0..24 {
        let m = random_matrix(&mut rng);
        let p = 3usize.min(m.rows()).min(m.cols()).max(1);
        let problem = Problem::with_generated_b(Arc::new(m), 4, p, 5).expect("valid");
        let cost = CostModel::delta_scaled();
        let report = run_algorithm(
            Algorithm::TwoFace,
            &problem,
            &cost,
            &RunOptions { validate: true, ..Default::default() },
        );
        assert!(report.is_ok(), "case {case}: {:?}", report.err());
    }
}

/// §5.4's sketch, as a property: for arbitrary matrices and keep
/// probabilities, a masked Two-Face run must agree with a serial SpMM over
/// the materialized masked matrix — under both async stripe layouts — and
/// bit for bit with a plain run over that matrix under the same plan.
#[test]
fn masked_run_matches_serial_reference_under_both_layouts() {
    let mut rng = StdRng::seed_from_u64(0xC5_0C);
    for case in 0..12 {
        let m = random_matrix(&mut rng);
        let p = 3usize.min(m.rows()).min(m.cols()).max(1);
        let problem = Problem::with_generated_b(Arc::new(m), 4, p, 5).expect("valid");
        let cost = CostModel::delta_scaled();
        let keep = rng.gen_range(0.2f64..1.0);
        let mask = EdgeSampler::new(keep, 1 + case as u64).mask(case as u64);
        for layout in [AsyncLayout::ColumnMajor, AsyncLayout::RowMajor] {
            let options = RunOptions {
                validate: true,
                config: TwoFaceConfig { async_layout: layout, ..Default::default() },
                ..Default::default()
            };
            let coeffs = ModelCoefficients::from(&cost);
            let plan = Arc::new(twoface_core::prepare_plan(&problem, &coeffs, &cost));
            let report = run_sampled_twoface(&problem, Arc::clone(&plan), mask, &cost, &options);
            let report = report
                .unwrap_or_else(|e| panic!("case {case} layout {layout:?} keep {keep}: {e:?}"));
            let masked =
                Problem::new(Arc::new(mask.apply(&problem.a)), Arc::clone(&problem.b), p, 5)
                    .expect("valid");
            let direct = run_algorithm(
                Algorithm::TwoFace,
                &masked,
                &cost,
                &RunOptions { plan: Some(plan), ..options.clone() },
            )
            .unwrap_or_else(|e| panic!("case {case} layout {layout:?}: direct run failed: {e}"));
            let bits =
                |c: &DenseMatrix| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(report.output.as_ref().expect("validate computes values")),
                bits(direct.output.as_ref().expect("validate computes values")),
                "case {case} layout {layout:?} keep {keep}: masked fold differs from a run on A'"
            );
        }
    }
}

#[test]
fn dense_matrix_add_assign_is_commutative_on_integers() {
    let mut rng = StdRng::seed_from_u64(0xC5_0D);
    for case in 0..CASES {
        let rows = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..1000) as usize;
        let a = DenseMatrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7 + seed) % 13) as f64);
        let b = DenseMatrix::from_fn(rows, cols, |i, j| ((i * 17 + j * 5 + seed) % 11) as f64);
        let mut ab = a.clone();
        ab.add_assign(&b);
        let mut ba = b.clone();
        ba.add_assign(&a);
        assert_eq!(ab, ba, "case {case}");
    }
}

/// Fault injection only ever adds simulated time: for arbitrary matrices
/// and recoverable plans, the faulted run's total and every per-rank
/// per-class total dominate the fault-free run's.
#[test]
fn faults_are_monotone_in_simulated_time() {
    let mut rng = StdRng::seed_from_u64(0xC5_0F);
    for case in 0..16 {
        let m = random_matrix(&mut rng);
        let p = 3usize.min(m.rows()).min(m.cols()).max(1);
        let problem = Problem::with_generated_b(Arc::new(m), 4, p, 5).expect("valid");
        let cost = CostModel::delta_scaled();
        // Recoverable by construction: moderate failure rate, deep retry
        // budget, no stall timeout.
        let plan = FaultPlan::seeded(0x600D + case as u64)
            .with_get_failure_rate(rng.gen_range(0.0..0.3))
            .with_latency_spikes(rng.gen_range(0.0..0.2), rng.gen_range(0.0..1e-5))
            .with_meet_jitter(rng.gen_range(0.0..2e-6))
            .with_retry(RetryPolicy { max_attempts: 12, ..Default::default() });
        let clean = run_algorithm(Algorithm::TwoFace, &problem, &cost, &RunOptions::default())
            .expect("fault-free run succeeds");
        let faulted = run_algorithm(
            Algorithm::TwoFace,
            &problem,
            &cost,
            &RunOptions { fault_plan: Some(plan), ..Default::default() },
        )
        .unwrap_or_else(|e| panic!("case {case}: recoverable plan aborted: {e}"));
        assert!(
            faulted.seconds >= clean.seconds,
            "case {case}: faults shortened the run: {} < {}",
            faulted.seconds,
            clean.seconds
        );
        for (rank, (f, c)) in faulted.rank_traces.iter().zip(&clean.rank_traces).enumerate() {
            for class in PhaseClass::ALL {
                let tolerance = 1e-12 * c.seconds(class).abs();
                assert!(
                    f.seconds(class) >= c.seconds(class) - tolerance,
                    "case {case} rank {rank} {}: faulted {} < fault-free {}",
                    class.label(),
                    f.seconds(class),
                    c.seconds(class)
                );
            }
        }
    }
}

/// A fault plan with every rate at zero is indistinguishable from no plan
/// at all: the timeline, traces, and output reproduce bit-for-bit.
#[test]
fn quiescent_plans_reproduce_the_fault_free_run_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xC5_10);
    for case in 0..12 {
        let m = random_matrix(&mut rng);
        let p = 3usize.min(m.rows()).min(m.cols()).max(1);
        let problem = Problem::with_generated_b(Arc::new(m), 4, p, 5).expect("valid");
        let cost = CostModel::delta_scaled();
        let plan = FaultPlan::quiescent(rng.gen());
        assert!(plan.is_faultless(), "quiescent plans inject nothing");
        let clean = run_algorithm(Algorithm::TwoFace, &problem, &cost, &RunOptions::default())
            .expect("fault-free run succeeds");
        let quiet = run_algorithm(
            Algorithm::TwoFace,
            &problem,
            &cost,
            &RunOptions { fault_plan: Some(plan), ..Default::default() },
        )
        .expect("quiescent run succeeds");
        assert_eq!(quiet.seconds, clean.seconds, "case {case}");
        assert_eq!(quiet.rank_seconds, clean.rank_seconds, "case {case}");
        assert_eq!(quiet.rank_traces, clean.rank_traces, "case {case}");
        assert_eq!(quiet.output, clean.output, "case {case}");
        assert_eq!(quiet.faults_injected, 0, "case {case}");
    }
}

#[test]
fn triplet_ordering_matches_row_major() {
    let mut rng = StdRng::seed_from_u64(0xC5_0E);
    for case in 0..CASES {
        let (r1, c1, r2, c2) = (
            rng.gen_range(0usize..50),
            rng.gen_range(0usize..50),
            rng.gen_range(0usize..50),
            rng.gen_range(0usize..50),
        );
        let m = CooMatrix::from_triplets(
            50,
            50,
            vec![Triplet::new(r1, c1, 1.0), Triplet::new(r2, c2, 1.0)],
        )
        .expect("in bounds");
        let t = m.triplets();
        if t.len() == 2 {
            assert!((t[0].row, t[0].col) < (t[1].row, t[1].col), "case {case}");
        }
    }
}
