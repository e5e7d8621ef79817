//! Parallel determinism suite: any real worker count must produce output
//! *bit-identical* to serial execution — for the kernels in isolation, for
//! full Two-Face/Allgather runs, for chaos-seeded (fault-injected) runs, and
//! for the prepared artifacts that feed them. Real workers may only move host
//! wall-clock time; simulated seconds, traces, and every output bit are part
//! of the determinism contract (see `twoface_core::pool`).

use std::sync::Arc;
use twoface_core::kernels::{
    async_stripe_kernel, par_async_stripe, par_sync_panels, sync_panel_kernel, BlockRows,
};
use twoface_core::pool::Pool;
use twoface_core::{
    reference_spmm_pooled, run_algorithm, Algorithm, PreparedMatrix, Problem, RunOptions,
};
use twoface_matrix::gen::{erdos_renyi, webcrawl, WebcrawlConfig};
use twoface_matrix::{DenseMatrix, Triplet};
use twoface_net::{CostModel, FaultPlan};
use twoface_partition::OneDimLayout;

const WORKER_SWEEP: [usize; 3] = [2, 3, 8];

/// Row-major sorted pseudorandom triplets with irregular row occupancy.
fn random_entries(rows: usize, cols: usize, nnz: usize, seed: u64) -> Vec<Triplet> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut entries: Vec<Triplet> = (0..nnz)
        .map(|_| {
            // Skew rows so some rows are heavy and many are empty — the
            // shape that stresses row-aligned chunking.
            let r = ((next() as usize) % rows) * ((next() as usize) % 3 + 1) % rows;
            let c = (next() as usize) % cols;
            Triplet::new(r, c, ((next() % 2000) as f64 - 1000.0) / 333.0)
        })
        .collect();
    entries.sort_by_key(|t| (t.row, t.col));
    entries.dedup_by_key(|t| (t.row, t.col));
    entries
}

/// `B` as a flat `cols x K` buffer of small exact values.
fn b_values(cols: usize, k: usize, seed: u64) -> Vec<f64> {
    (0..cols * k).map(|i| ((i as u64).wrapping_mul(seed | 1) % 97) as f64 * 0.125).collect()
}

/// All of `B` in one block.
fn block_source(layout: &OneDimLayout, k: usize, seed: u64) -> BlockRows<'_> {
    let mut rows = BlockRows::new(layout, k);
    rows.add_block(0..layout.cols(), Arc::new(b_values(layout.cols(), k, seed)));
    rows
}

/// The same `B` as [`block_source`], one block per stripe, added in a
/// seeded shuffled order.
fn stripe_source(layout: &OneDimLayout, k: usize, seed: u64) -> BlockRows<'_> {
    let b = b_values(layout.cols(), k, seed);
    let mut order: Vec<usize> = (0..layout.num_stripes()).collect();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut rows = BlockRows::new(layout, k);
    for stripe in order {
        let cols = layout.stripe_cols(stripe);
        rows.add_block(cols.clone(), b[cols.start * k..cols.end * k].to_vec());
    }
    rows
}

/// Kernel-level contract: both parallel kernels match their serial forms
/// bitwise across generic and dispatched widths, multiple seeds, and worker
/// counts — over `B` held in one block and over `B` split into per-stripe
/// blocks added out of order.
#[test]
fn parallel_kernels_bitwise_match_serial_across_k_and_seeds() {
    // Rows: not a multiple of any chunk size. Columns: three column blocks
    // of 45, 44 and 44 in stripes of 8, so every owner has several stripes,
    // each block ending in a narrower tail stripe.
    let rows = 1201;
    let layout = OneDimLayout::new(rows, 133, 3, 8);
    let cols = layout.cols();
    for k in [1usize, 3, 8, 32, 128] {
        for seed in [1u64, 17, 400] {
            // Enough products at every width for the drivers to fan out.
            let nnz = 4000.max((1 << 16) / k);
            let entries = random_entries(rows, cols, nnz, seed ^ (k as u64) << 3);
            let mut col_major = entries.clone();
            col_major.sort_by_key(|t| (t.col, t.row));
            let src = block_source(&layout, k, seed);
            let striped = stripe_source(&layout, k, seed);

            let mut serial_sync = vec![0.0; rows * k];
            sync_panel_kernel(&entries, &src, &mut serial_sync, k);
            let mut serial_async = vec![0.0; rows * k];
            async_stripe_kernel(&col_major, &src, &mut serial_async, k);

            let mut striped_sync = vec![0.0; rows * k];
            sync_panel_kernel(&entries, &striped, &mut striped_sync, k);
            assert_eq!(striped_sync, serial_sync, "striped sync K={k} seed={seed}");
            let mut striped_async = vec![0.0; rows * k];
            async_stripe_kernel(&col_major, &striped, &mut striped_async, k);
            assert_eq!(striped_async, serial_async, "striped async K={k} seed={seed}");

            for workers in WORKER_SWEEP {
                let pool = Pool::new(workers);
                for (name, rows_src) in [("one block", &src), ("striped", &striped)] {
                    let mut par = vec![0.0; rows * k];
                    let spans = par_sync_panels(&pool, &entries, rows_src, &mut par, k);
                    assert!(spans > 1, "K={k}: the parallel driver fanned out");
                    assert_eq!(par, serial_sync, "{name} sync K={k} seed={seed} workers={workers}");
                    let mut par = vec![0.0; rows * k];
                    par_async_stripe(&pool, &entries, rows_src, &mut par, k);
                    assert_eq!(
                        par, serial_async,
                        "{name} async K={k} seed={seed} workers={workers}"
                    );
                }
            }
        }
    }
}

/// Panel edge cases: empty entry sets, one-row panels, and panels taller
/// than the whole output block all stay exact under parallel drivers.
#[test]
fn panel_edge_cases_are_exact() {
    let k = 8;
    let pool = Pool::new(4);
    let layout = OneDimLayout::new(64, 16, 1, 16);
    let src = block_source(&layout, k, 3);

    // Empty panel: a no-op for every worker count.
    let mut c = vec![1.5; 4 * k];
    par_sync_panels(&pool, &[] as &[Triplet], &src, &mut c, k);
    assert_eq!(c, vec![1.5; 4 * k]);

    // Single-row panels: every row occupied, chunk boundaries between all.
    let single: Vec<Triplet> = (0..64).map(|r| Triplet::new(r, r % 16, 1.0 + r as f64)).collect();
    let mut serial = vec![0.0; 64 * k];
    sync_panel_kernel(&single, &src, &mut serial, k);
    let mut par = vec![0.0; 64 * k];
    par_sync_panels(&pool, &single, &src, &mut par, k);
    assert_eq!(par, serial);

    // "Panel height > rows": all entries in one output row — no row-aligned
    // split point exists, so one worker must take the whole slice.
    let one_row: Vec<Triplet> = (0..16).map(|c| Triplet::new(0, c, 0.5 * c as f64)).collect();
    let mut serial = vec![0.0; k];
    sync_panel_kernel(&one_row, &src, &mut serial, k);
    let mut par = vec![0.0; k];
    par_sync_panels(&pool, &one_row, &src, &mut par, k);
    assert_eq!(par, serial);
}

/// The chaos fixture: dense intra-host stripes plus sparse scatter, so both
/// lanes run.
fn fixture(n: usize, k: usize, p: usize, stripe: usize) -> Problem {
    let a = webcrawl(
        &WebcrawlConfig { n, hosts: n / 32, per_row: 6, intra_host: 0.7, ..Default::default() },
        31,
    );
    Problem::with_generated_b(Arc::new(a), k, p, stripe).expect("fixture is valid")
}

fn run_with_workers(
    algorithm: Algorithm,
    problem: &Problem,
    workers: usize,
    fault_plan: Option<FaultPlan>,
) -> (DenseMatrix, f64, Vec<f64>, u64) {
    let report = run_algorithm(
        algorithm,
        problem,
        &CostModel::delta_scaled(),
        &RunOptions { workers: Some(workers), fault_plan, ..Default::default() },
    )
    .expect("run succeeds");
    (
        report.output.expect("compute on by default"),
        report.seconds,
        report.rank_seconds,
        report.faults_injected,
    )
}

/// Full-run contract: Two-Face and Allgather produce bit-identical outputs
/// AND identical simulated timings for serial and parallel execution,
/// across K ∈ {8, 32, 128}.
#[test]
fn full_runs_bitwise_match_serial_across_k() {
    for k in [8usize, 32, 128] {
        let problem = fixture(512, k, 4, 32);
        for algorithm in [Algorithm::TwoFace, Algorithm::Allgather] {
            let (c1, s1, rs1, _) = run_with_workers(algorithm, &problem, 1, None);
            for workers in WORKER_SWEEP {
                let (c, s, rs, _) = run_with_workers(algorithm, &problem, workers, None);
                assert_eq!(c, c1, "{algorithm} K={k} workers={workers}: output differs");
                assert_eq!(s, s1, "{algorithm} K={k} workers={workers}: modeled time differs");
                assert_eq!(rs, rs1, "{algorithm} K={k} workers={workers}: rank times differ");
            }
        }
    }
}

/// The remaining baselines run through the same parallel kernels; one seed
/// each keeps the whole surface covered.
#[test]
fn baseline_runs_bitwise_match_serial() {
    let problem = fixture(512, 8, 4, 32);
    for algorithm in
        [Algorithm::AsyncCoarse, Algorithm::AsyncFine, Algorithm::DenseShifting { replication: 2 }]
    {
        let (c1, s1, _, _) = run_with_workers(algorithm, &problem, 1, None);
        let (c4, s4, _, _) = run_with_workers(algorithm, &problem, 4, None);
        assert_eq!(c4, c1, "{algorithm}: output differs at 4 workers");
        assert_eq!(s4, s1, "{algorithm}: modeled time differs at 4 workers");
    }
}

/// Fault injection composes with real workers: per-(rank, op) fault
/// decisions replay identically regardless of worker scheduling, so a
/// chaos-seeded run recovers to the same bits, the same modeled seconds,
/// and the same injected-fault count at any worker count.
#[test]
fn chaos_seeded_runs_are_worker_independent() {
    let problem = fixture(512, 8, 4, 32);
    for seed in [0xC4A05u64, 0xC4A0A] {
        for algorithm in [Algorithm::TwoFace, Algorithm::Allgather] {
            let plan = FaultPlan::heavy(seed);
            let (c1, s1, rs1, f1) = run_with_workers(algorithm, &problem, 1, Some(plan.clone()));
            for workers in [2usize, 4] {
                let (c, s, rs, f) =
                    run_with_workers(algorithm, &problem, workers, Some(plan.clone()));
                assert_eq!(c, c1, "{algorithm} seed={seed:#x} workers={workers}: output");
                assert_eq!(s, s1, "{algorithm} seed={seed:#x} workers={workers}: seconds");
                assert_eq!(rs, rs1, "{algorithm} seed={seed:#x} workers={workers}: rank times");
                assert_eq!(f, f1, "{algorithm} seed={seed:#x} workers={workers}: fault count");
            }
        }
    }
}

/// Parallel preprocessing: a prepared artifact — the plan and every rank's
/// structures, built across the pool and collected in rank order — is
/// identical for any worker count.
#[test]
fn prepared_artifacts_are_identical_across_workers() {
    let cost = CostModel::delta_scaled();
    let erdos = Arc::new(erdos_renyi(256, 256, 3000, 11));
    let erdos = Problem::with_generated_b(erdos, 8, 4, 16).expect("valid");
    for (name, problem) in [("webcrawl", fixture(512, 32, 4, 32)), ("erdos-renyi", erdos)] {
        let build = |workers| {
            let options = RunOptions { workers: Some(workers), ..Default::default() };
            PreparedMatrix::build(&problem, &cost, &options).expect("fixture fits")
        };
        let serial = build(1);
        for workers in WORKER_SWEEP {
            let par = build(workers);
            assert_eq!(par.plan(), serial.plan(), "{name}: plan differs at {workers} workers");
            assert_eq!(
                par.rank_matrices(),
                serial.rank_matrices(),
                "{name}: rank structures differ at {workers} workers"
            );
            assert_eq!(par.fingerprint(), serial.fingerprint(), "{name} at {workers} workers");
        }
    }
}

/// The parallel verification oracle is bitwise equal to its serial form.
#[test]
fn parallel_reference_matches_serial() {
    let a = erdos_renyi(500, 300, 20_000, 9);
    let b = DenseMatrix::from_fn(300, 32, |i, j| ((i * 31 + j * 7) % 23) as f64 * 0.5 - 5.0);
    let serial = reference_spmm_pooled(&a, &b, &Pool::SERIAL);
    for workers in WORKER_SWEEP {
        let par = reference_spmm_pooled(&a, &b, &Pool::new(workers));
        assert_eq!(par, serial, "reference differs at {workers} workers");
    }
}
