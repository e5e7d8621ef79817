//! Integration of the preprocessing pipeline: profiling → classification →
//! plan → Figure-6 structures → execution, with the invariants each stage
//! must preserve.

use std::sync::Arc;
use twoface_core::{
    prepare_plan, run_algorithm, Algorithm, AsyncLayout, ExecutionReport, PreparedMatrix, Problem,
    RankMatrices, RunError, RunOptions, TwoFaceConfig,
};
use twoface_matrix::gen::{
    banded, rmat, uniform_random, webcrawl, BandedConfig, RmatConfig, WebcrawlConfig,
};
use twoface_net::{CostModel, FaultPlan, Observability};
use twoface_partition::{ModelCoefficients, PartitionPlan, StripeClass};

fn fixture() -> Problem {
    let a = webcrawl(
        &WebcrawlConfig { n: 1024, hosts: 32, per_row: 8, intra_host: 0.8, ..Default::default() },
        99,
    );
    Problem::with_generated_b(Arc::new(a), 16, 8, 32).expect("fixture is valid")
}

#[test]
fn plan_partitions_every_nonzero_exactly_once() {
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let plan = prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost);
    let total: usize =
        (0..8).map(|rank| RankMatrices::build(&problem.a, &plan, rank, 32).unwrap().nnz()).sum();
    assert_eq!(total, problem.a.nnz());
}

#[test]
fn async_stripes_in_structures_match_plan_classes() {
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let plan = prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost);
    for rank in 0..8 {
        let m = RankMatrices::build(&problem.a, &plan, rank, 32).unwrap();
        for stripe in m.asynchronous.stripes() {
            assert_eq!(
                plan.class_of(rank, stripe.stripe),
                Some(StripeClass::Async),
                "rank {rank} stripe {} misplaced",
                stripe.stripe
            );
            // Row-major order within the stripe, and unique_cols holds its
            // distinct columns, ascending.
            let order: Vec<(u32, u32)> = stripe.entries.iter().map(|t| (t.row, t.col)).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "not row-major");
            let cols: std::collections::BTreeSet<u32> =
                stripe.entries.iter().map(|t| t.col).collect();
            assert_eq!(cols.into_iter().collect::<Vec<_>>(), stripe.unique_cols);
        }
    }
}

#[test]
fn sync_local_structures_are_row_major_and_paneled() {
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let plan = prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost);
    for rank in 0..8 {
        let m = RankMatrices::build(&problem.a, &plan, rank, 32).unwrap();
        let sl = &m.sync_local;
        let order: Vec<(u32, u32)> = sl.entries().iter().map(|t| (t.row, t.col)).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "not row-major");
        let panels: std::collections::BTreeSet<usize> =
            sl.entries().iter().map(|t| t.row as usize / sl.panel_height()).collect();
        assert_eq!(sl.num_nonempty_panels(), panels.len(), "rank {rank}");
    }
}

#[test]
fn equalization_brings_lanes_close_when_model_is_exact() {
    // With oracle coefficients, the classifier should produce overlapping
    // lanes: the async lane should never be idle-trivial while the sync
    // lane dwarfs it by orders of magnitude (unless nothing was worth
    // flipping at all).
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let report = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &cost,
        &RunOptions { compute_values: false, ..Default::default() },
    )
    .expect("runs");
    let b = &report.critical_breakdown;
    let sync_side = b.sync_comm;
    let async_side = b.async_comm + b.async_comp;
    if async_side > 0.0 {
        // The model balances Comm_S against Comm_A + Comp_A. The greedy
        // stops at the budget boundary, so async may undershoot, but it must
        // never exceed the sync side by more than one stripe's cost — and
        // on this fixture, not by an order of magnitude.
        assert!(
            async_side <= sync_side * 10.0 + 1e-6,
            "async lane ({async_side}) dwarfs sync lane ({sync_side})"
        );
    }
}

#[test]
fn forced_plans_bracket_the_model_plan() {
    // All-sync and all-async plans are the extreme points; the model-built
    // plan should be at least as fast as the worse of the two on a mixed
    // matrix, and no slower than 2x the better.
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let opts = |plan| RunOptions { compute_values: false, plan, ..Default::default() };

    let model = run_algorithm(Algorithm::TwoFace, &problem, &cost, &opts(None)).unwrap().seconds;
    let all_sync = Arc::new(PartitionPlan::build_uniform(
        &problem.a,
        problem.layout.clone(),
        16,
        StripeClass::Sync,
    ));
    let sync_time =
        run_algorithm(Algorithm::TwoFace, &problem, &cost, &opts(Some(all_sync))).unwrap().seconds;
    let all_async = Arc::new(PartitionPlan::build_uniform(
        &problem.a,
        problem.layout.clone(),
        16,
        StripeClass::Async,
    ));
    let async_time =
        run_algorithm(Algorithm::TwoFace, &problem, &cost, &opts(Some(all_async))).unwrap().seconds;

    assert!(
        model <= sync_time.max(async_time) * 1.001,
        "model plan ({model}) worse than both extremes (sync {sync_time}, async {async_time})"
    );
}

#[test]
fn reusing_a_plan_matches_building_it_inline() {
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let plan = Arc::new(prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost));
    let inline = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &cost,
        &RunOptions { compute_values: false, ..Default::default() },
    )
    .unwrap();
    let reused = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &cost,
        &RunOptions { compute_values: false, plan: Some(plan), ..Default::default() },
    )
    .unwrap();
    assert_eq!(inline.seconds, reused.seconds);
}

#[test]
fn multicast_metadata_only_reaches_classified_destinations() {
    let problem = fixture();
    let cost = CostModel::delta_scaled();
    let plan = prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost);
    let layout = plan.layout();
    for stripe in 0..layout.num_stripes() {
        for &dest in plan.multicast_destinations(stripe) {
            assert_eq!(plan.class_of(dest, stripe), Some(StripeClass::Sync));
            assert_ne!(dest, layout.stripe_owner(stripe));
        }
    }
}

#[test]
fn memory_capped_plan_still_validates() {
    // Squeeze the sync buffer budget so the cap flips stripes, then verify
    // the capped execution still produces the right answer.
    let problem = fixture();
    let tight = CostModel {
        memory_per_node: 150 << 10, // 150 KiB: operands fit, sync buffers barely
        ..CostModel::delta_scaled()
    };
    let coeffs = ModelCoefficients {
        // All-sync-leaning model so the cap has something to flip.
        beta_async: 1.0,
        gamma_async: 1.0,
        ..ModelCoefficients::from(&tight)
    };
    let plan = prepare_plan(&problem, &coeffs, &tight);
    assert!(plan.memory_flips() > 0, "expected the memory cap to engage");
    let report = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &tight,
        &RunOptions { validate: true, plan: Some(Arc::new(plan)), ..Default::default() },
    )
    .expect("capped plan fits and validates");
    assert!(report.output.is_some());
}

/// The one-shot sweep's problems at `k`: webcrawl, R-MAT and banded over 8
/// ranks with 32-column stripes, and a ragged layout — 1000 columns over 6
/// ranks in stripes of 80, so each owner's last stripe is 6 or 7 wide.
fn oneshot_problems(k: usize) -> Vec<(&'static str, Problem)> {
    let web = webcrawl(&WebcrawlConfig { n: 1536, hosts: 24, per_row: 8, ..Default::default() }, 5);
    let rmat = rmat(&RmatConfig { scale: 10, edge_factor: 8, ..Default::default() }, 6);
    let band =
        banded(&BandedConfig { n: 1536, bandwidth: 96, per_row: 8, escape_fraction: 0.05 }, 7);
    let ragged = uniform_random(1000, 1000, 8, 8);
    let problem = |a, p, w| Problem::with_generated_b(Arc::new(a), k, p, w).expect("valid");
    vec![
        ("webcrawl", problem(web, 8, 32)),
        ("rmat", problem(rmat, 8, 32)),
        ("banded", problem(band, 8, 32)),
        ("ragged", problem(ragged, 6, 80)),
    ]
}

/// Rows of `problem` holding both sync-lane and async nonzeros under
/// `plan`, and rows holding only async nonzeros.
fn mixed_and_async_only_rows(problem: &Problem, plan: &PartitionPlan) -> (usize, usize) {
    let layout = &problem.layout;
    let (mut mixed, mut async_only) = (0, 0);
    let mut row_classes = |row: Option<usize>, sync: bool, asynchronous: bool| {
        if row.is_some() && asynchronous {
            if sync {
                mixed += 1;
            } else {
                async_only += 1;
            }
        }
    };
    let (mut row, mut sync, mut asynchronous) = (None, false, false);
    for (r, c, _) in problem.a.iter() {
        if row != Some(r) {
            row_classes(row, sync, asynchronous);
            (row, sync, asynchronous) = (Some(r), false, false);
        }
        let class = plan.class_of(layout.owner_of_row(r), layout.stripe_of_col(c));
        match class.expect("the plan classifies every nonzero's stripe") {
            StripeClass::Async => asynchronous = true,
            StripeClass::Sync | StripeClass::LocalInput => sync = true,
        }
    }
    row_classes(row, sync, asynchronous);
    (mixed, async_only)
}

fn assert_reports_bitwise_equal(oneshot: &ExecutionReport, prepared: &ExecutionReport, at: &str) {
    let bits = |r: &ExecutionReport| {
        r.output.as_ref().map(|c| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    assert_eq!(bits(oneshot), bits(prepared), "C at {at}");
    assert_eq!(oneshot.seconds.to_bits(), prepared.seconds.to_bits(), "seconds at {at}");
    assert_eq!(oneshot.rank_seconds, prepared.rank_seconds, "rank seconds at {at}");
    assert_eq!(oneshot.rank_traces, prepared.rank_traces, "rank traces at {at}");
    assert_eq!(oneshot.rank_events, prepared.rank_events, "event streams at {at}");
    assert!(oneshot.rank_events.iter().all(|events| !events.is_empty()), "traced at {at}");
}

/// A run with no prepared artifact reads each rank's nonzeros straight from
/// A; it must equal a run over the prepared Figure-6 structures bit for
/// bit: C, simulated seconds, rank traces and every event.
#[test]
fn oneshot_runs_equal_prepared_runs_bitwise() {
    let cost = CostModel::delta_scaled();
    // Per algorithm, rows holding sync and async nonzeros, and async-only rows.
    let mut rows = [(0, 0); 2];
    for k in [1usize, 3, 8, 32, 128] {
        for (name, problem) in oneshot_problems(k) {
            for (i, algorithm) in [Algorithm::TwoFace, Algorithm::AsyncFine].into_iter().enumerate()
            {
                // Async Fine's prepared artifact is built over its uniform plan.
                let plan = (algorithm == Algorithm::AsyncFine).then(|| {
                    let a = &problem.a;
                    Arc::new(PartitionPlan::build_uniform(
                        a,
                        problem.layout.clone(),
                        k,
                        StripeClass::Async,
                    ))
                });
                let prepared = PreparedMatrix::build(
                    &problem,
                    &cost,
                    &RunOptions { plan, ..Default::default() },
                )
                .expect("prepares");
                let (mixed, async_only) = mixed_and_async_only_rows(&problem, prepared.plan());
                rows[i] = (rows[i].0 + mixed, rows[i].1 + async_only);
                let prepared = Arc::new(prepared);
                for workers in [1usize, 2, 4] {
                    let options = RunOptions {
                        workers: Some(workers),
                        observability: Observability::full(),
                        ..Default::default()
                    };
                    let with_prepared =
                        RunOptions { prepared: Some(Arc::clone(&prepared)), ..options.clone() };
                    let at = format!("{name} {algorithm} K={k} workers={workers}");
                    let oneshot = run_algorithm(algorithm, &problem, &cost, &options).expect(&at);
                    let reused =
                        run_algorithm(algorithm, &problem, &cost, &with_prepared).expect(&at);
                    assert_reports_bitwise_equal(&oneshot, &reused, &at);
                }
            }
        }
    }
    for (algorithm, (mixed, async_only)) in ["Two-Face", "Async Fine"].iter().zip(rows) {
        assert!(mixed > 0 && async_only > 0, "{algorithm}: {mixed} mixed, {async_only} async-only");
    }
}

/// The async stripe layout selects only the charges: an Async Fine run
/// computes bitwise-equal `C` under both, on problems with rows that hold
/// nonzeros in two or more async stripes — the rows a kernel that summed a
/// stripe's products before adding them into `C` would round differently
/// once an earlier stripe had written the row.
#[test]
fn async_layouts_compute_bitwise_equal_c() {
    let cost = CostModel::delta_scaled();
    let c_bits = |problem: &Problem, async_layout, workers| {
        let config = TwoFaceConfig { async_layout, ..Default::default() };
        let options = RunOptions { config, workers: Some(workers), ..Default::default() };
        let report = run_algorithm(Algorithm::AsyncFine, problem, &cost, &options).expect("runs");
        let c = report.output.expect("values are computed");
        c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    for (name, problem) in oneshot_problems(8) {
        // Every remote stripe is async under Async Fine.
        let layout = &problem.layout;
        let spans_two_async_stripes =
            problem.a.triplets().chunk_by(|a, b| a.row == b.row).any(|row| {
                let owner = layout.owner_of_row(row[0].row);
                let mut stripes: Vec<usize> = row
                    .iter()
                    .map(|t| layout.stripe_of_col(t.col))
                    .filter(|&stripe| layout.stripe_owner(stripe) != owner)
                    .collect();
                stripes.dedup();
                stripes.len() >= 2
            });
        assert!(spans_two_async_stripes, "{name}: no row spans two async stripes");
        for workers in [1, 4] {
            assert_eq!(
                c_bits(&problem, AsyncLayout::ColumnMajor, workers),
                c_bits(&problem, AsyncLayout::RowMajor, workers),
                "{name} workers={workers}: C differs between the async layouts"
            );
        }
    }
}

/// The one-shot contract holds under injected faults and on structural
/// (value-free) runs too.
#[test]
fn oneshot_runs_equal_prepared_runs_under_chaos_and_without_values() {
    let cost = CostModel::delta_scaled();
    for (name, problem) in oneshot_problems(8) {
        let prepared = Arc::new(
            PreparedMatrix::build(&problem, &cost, &RunOptions::default()).expect("prepares"),
        );
        for options in [
            RunOptions { fault_plan: Some(FaultPlan::heavy(0x5eed)), ..Default::default() },
            RunOptions { compute_values: false, ..Default::default() },
        ] {
            let options = RunOptions { observability: Observability::full(), ..options };
            let with_prepared =
                RunOptions { prepared: Some(Arc::clone(&prepared)), ..options.clone() };
            let at = format!(
                "{name} faults={} values={}",
                options.fault_plan.is_some(),
                options.compute_values
            );
            let oneshot = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options);
            let reused = run_algorithm(Algorithm::TwoFace, &problem, &cost, &with_prepared);
            match (oneshot, reused) {
                (Ok(oneshot), Ok(reused)) => {
                    assert_reports_bitwise_equal(&oneshot, &reused, &at);
                    assert_eq!(oneshot.faults_injected, reused.faults_injected, "{at}");
                    assert!(options.fault_plan.is_none() || oneshot.faults_injected > 0, "{at}");
                }
                (oneshot, reused) => {
                    let err = |r: Result<ExecutionReport, RunError>| r.err().map(|e| e.to_string());
                    assert_eq!(err(oneshot), err(reused), "{at}");
                }
            }
        }
    }
}
