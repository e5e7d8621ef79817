//! Differential tests: the streamed (out-of-core) pipeline versus the
//! resident runner.
//!
//! The streamed pipeline's correctness contract is *bit-identity* at every
//! scale where the resident path also fits: same output `C` (exact `f64`
//! equality, not a tolerance), same simulated seconds, same per-lane
//! breakdowns, same communication volumes, same memory verdicts. These
//! tests enforce the contract across generator families, chunk sizes,
//! `K` widths, worker counts, classifications from all-sync to
//! all-async, and the row-major ablation.

use std::sync::Arc;
use twoface_core::{
    prepare_plan, run_algorithm, run_twoface_streamed, Algorithm, Problem, RunError, RunOptions,
    StreamOptions, TwoFaceConfig,
};
use twoface_matrix::gen::{assemble, ErdosChunks, HubChunks, RmatChunks, TripletSource};
use twoface_matrix::gen::{HubConfig, RmatConfig};
use twoface_net::{CostModel, Observability, OpKind};
use twoface_partition::{ModelCoefficients, StripeClass};

/// Runs the resident Two-Face path on the assembled source and the streamed
/// path on a fresh source, then checks the full bit-identity contract.
/// Returns the resident problem.
fn assert_streamed_matches_resident(
    make_source: impl Fn() -> Box<dyn TripletSource>,
    k: usize,
    p: usize,
    stripe_width: usize,
    stream_options: &StreamOptions,
) -> Problem {
    let cost = CostModel::delta_scaled();
    let a = Arc::new(assemble(&mut *make_source()));
    let problem = Problem::with_generated_b(Arc::clone(&a), k, p, stripe_width)
        .expect("test layouts are feasible");
    let resident_options = RunOptions {
        validate: true,
        config: stream_options.config,
        coefficients: stream_options.coefficients,
        classifier: stream_options.classifier,
        workers: stream_options.workers,
        ..Default::default()
    };
    let resident = run_algorithm(Algorithm::TwoFace, &problem, &cost, &resident_options)
        .expect("resident run fits");

    let streamed =
        run_twoface_streamed(&mut *make_source(), k, p, stripe_width, &cost, stream_options)
            .expect("streamed run fits");

    assert_eq!(streamed.realized_nnz, a.nnz(), "normalization must agree");
    let sr = &streamed.report;
    assert_eq!(sr.output, resident.output, "output C must be bit-identical");
    assert_eq!(sr.seconds, resident.seconds, "simulated seconds must be identical");
    assert_eq!(sr.critical_rank, resident.critical_rank);
    assert_eq!(sr.critical_breakdown, resident.critical_breakdown);
    assert_eq!(sr.rank_breakdowns, resident.rank_breakdowns);
    assert_eq!(sr.rank_seconds, resident.rank_seconds);
    assert_eq!(sr.elements_received, resident.elements_received);
    assert_eq!(sr.messages, resident.messages);
    assert_eq!(sr.mean_multicast_recipients, resident.mean_multicast_recipients);
    assert_eq!(sr.memory_peak_bytes, resident.memory_peak_bytes);
    problem
}

#[test]
fn rmat_streamed_is_bit_identical() {
    let config = RmatConfig { scale: 10, edge_factor: 8, ..Default::default() };
    assert_streamed_matches_resident(
        || Box::new(RmatChunks::new(&config, 17)),
        8,
        4,
        64,
        &StreamOptions::default(),
    );
}

#[test]
fn rmat_streamed_is_bit_identical_at_k32() {
    let config = RmatConfig { scale: 9, edge_factor: 8, ..Default::default() };
    assert_streamed_matches_resident(
        || Box::new(RmatChunks::new(&config, 3)),
        32,
        4,
        32,
        &StreamOptions::default(),
    );
}

#[test]
fn hub_streamed_is_bit_identical() {
    let config = HubConfig { n: 2048, nnz: 1 << 13, ..Default::default() };
    assert_streamed_matches_resident(
        || Box::new(HubChunks::new(&config, 11)),
        8,
        4,
        64,
        &StreamOptions::default(),
    );
}

#[test]
fn erdos_streamed_is_chunk_size_invariant() {
    // A deliberately tiny spill chunk forces many pass-1 iterations; the
    // result must not change.
    for chunk_nnz in [64usize, 1 << 20] {
        assert_streamed_matches_resident(
            || Box::new(ErdosChunks::new(1024, 1024, 20_000, 5)),
            8,
            8,
            32,
            &StreamOptions { chunk_nnz, ..Default::default() },
        );
    }
}

#[test]
fn row_major_ablation_streams_identically() {
    let config =
        TwoFaceConfig { async_layout: twoface_core::AsyncLayout::RowMajor, ..Default::default() };
    let rmat = RmatConfig { scale: 9, edge_factor: 8, ..Default::default() };
    assert_streamed_matches_resident(
        || Box::new(RmatChunks::new(&rmat, 29)),
        8,
        4,
        32,
        &StreamOptions { config, ..Default::default() },
    );
}

/// Deterministic default; override with `CHAOS_SEED_BASE=<n>` (decimal), as
/// for the chaos suite, to sweep new seeds.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE").ok().and_then(|s| s.parse().ok()).unwrap_or(0x57EA)
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

/// Coefficients under which a sync transfer costs a second and the async
/// lane is free, so nearly every remote stripe classifies async.
const ALL_ASYNC: ModelCoefficients = ModelCoefficients {
    beta_sync: 1.0,
    alpha_sync: 1.0,
    beta_async: 1e-15,
    alpha_async: 1e-15,
    gamma_async: 1e-15,
    kappa_async: 1e-15,
};

/// The reverse: every remote stripe classifies sync.
const ALL_SYNC: ModelCoefficients = ModelCoefficients {
    beta_sync: 1e-15,
    alpha_sync: 1e-15,
    beta_async: 1.0,
    alpha_async: 1.0,
    gamma_async: 1.0,
    kappa_async: 1.0,
};

/// A seeded sweep of the bit-identity contract: each case draws a generator
/// family, `p`, a stripe width, a spill chunk, `K` and a worker count, and
/// cycles through the model's coefficients, all-async ones and all-sync
/// ones. The all-async cases must really classify nearly every remote
/// stripe async, so the streamed executor's dropping of async entries from
/// the sync reads is exercised on every run.
#[test]
fn seeded_sweep_matches_resident_from_all_sync_to_all_async() {
    const CASES: u64 = 12;
    let base = seed_base();
    let cost = CostModel::delta_scaled();
    for case in 0..CASES {
        let mut rng = SplitMix(base.wrapping_add(case));
        let family = rng.between(0, 2);
        let (p, stripe_width) = (rng.between(2, 8), [16, 32, 64, 128][rng.between(0, 3)]);
        let chunk_nnz = [64, 1000, 1 << 20][rng.between(0, 2)];
        let (k, workers) = ([1, 8, 20, 32][rng.between(0, 3)], [1, 2, 4][rng.between(0, 2)]);
        let (scale, n, seed) = (rng.between(9, 11) as u32, 1 << rng.between(10, 12), rng.next());
        let (set, coefficients) =
            [("model", None), ("all-async", Some(ALL_ASYNC)), ("all-sync", Some(ALL_SYNC))]
                [case as usize % 3];
        let (name, make_source): (_, Box<dyn Fn() -> Box<dyn TripletSource>>) = match family {
            0 => ("R-MAT", {
                let config = RmatConfig { scale, edge_factor: 8, ..Default::default() };
                Box::new(move || Box::new(RmatChunks::new(&config, seed)))
            }),
            1 => ("hub", {
                let config = HubConfig { n, nnz: 4 * n, ..Default::default() };
                Box::new(move || Box::new(HubChunks::new(&config, seed)))
            }),
            _ => ("Erdos-Renyi", Box::new(move || Box::new(ErdosChunks::new(n, n, 6 * n, seed)))),
        };
        let at = format!(
            "case {case} (CHAOS_SEED_BASE={base}): {name} (scale {scale}, n {n}, seed {seed}) \
             p={p} W={stripe_width} chunk {chunk_nnz} K={k} workers {workers}, {set} coefficients"
        );
        println!("{at}");
        let options =
            StreamOptions { coefficients, workers: Some(workers), chunk_nnz, ..Default::default() };
        let problem = assert_streamed_matches_resident(make_source, k, p, stripe_width, &options);
        if let Some(coefficients) = coefficients.filter(|_| set == "all-async") {
            let plan = prepare_plan(&problem, &coefficients, &cost);
            let classes = (0..p).flat_map(|rank| plan.classification(rank).classes.iter());
            let remote: Vec<StripeClass> = classes
                .map(|&(_, class)| class)
                .filter(|&class| class != StripeClass::LocalInput)
                .collect();
            let asynchronous = remote.iter().filter(|&&class| class == StripeClass::Async).count();
            // The greedy prefix leaves at most one remote stripe per rank
            // sync.
            println!("  {asynchronous} of {} remote stripes async", remote.len());
            assert!(
                asynchronous > 0 && remote.len() - asynchronous <= p,
                "{at}: only {asynchronous} of {} remote stripes classify async",
                remote.len()
            );
        }
    }
}

#[test]
fn streamed_run_respects_a_generous_budget() {
    let mut source = ErdosChunks::new(1024, 1024, 20_000, 5);
    let run = run_twoface_streamed(
        &mut source,
        8,
        4,
        32,
        &CostModel::delta_scaled(),
        &StreamOptions { memory_budget: Some(1 << 30), ..Default::default() },
    )
    .expect("1 GiB is ample for 20k nonzeros");
    assert!(run.estimated_host_bytes <= 1 << 30);
    assert!(run.spilled_bytes > 0, "the pipeline actually spilled");
    assert!(run.peak_shard_bytes > 0);
    assert!(run.report.output.is_some());
}

#[test]
fn resident_runner_enforces_the_host_budget() {
    let a = Arc::new(assemble(&mut ErdosChunks::new(512, 512, 8_000, 2)));
    let problem = Problem::with_generated_b(a, 8, 4, 32).expect("feasible");
    let options = RunOptions { memory_budget: Some(1024), ..Default::default() };
    let err = run_algorithm(Algorithm::TwoFace, &problem, &CostModel::delta_scaled(), &options)
        .expect_err("1 KiB cannot stage a resident run");
    match err {
        RunError::HostBudgetExceeded { required, budget } => {
            assert_eq!(budget, 1024);
            assert!(required > budget);
        }
        other => panic!("expected HostBudgetExceeded, got {other:?}"),
    }
    // An ample budget must not change the run at all.
    let ample = RunOptions { memory_budget: Some(1 << 34), ..Default::default() };
    let gated = run_algorithm(Algorithm::TwoFace, &problem, &CostModel::delta_scaled(), &ample)
        .expect("ample budget passes");
    let ungated = run_algorithm(
        Algorithm::TwoFace,
        &problem,
        &CostModel::delta_scaled(),
        &RunOptions::default(),
    )
    .expect("no budget");
    assert_eq!(gated.output, ungated.output);
    assert_eq!(gated.seconds, ungated.seconds);
}

/// The streamed pipeline's telemetry contract (ISSUE 9): turning
/// observability on changes no gated result bit, the five host passes each
/// leave a span, spill counters reconcile with the bytes the pipeline put
/// on disk, and the high-water gauge respects the declared budget.
#[test]
fn streamed_telemetry_is_bit_identical_and_reconciles_with_disk() {
    let cost = CostModel::delta_scaled();
    let make = || ErdosChunks::new(1024, 1024, 20_000, 5);
    let budget = 1usize << 30;
    let base = StreamOptions { memory_budget: Some(budget), ..Default::default() };
    let off = run_twoface_streamed(&mut make(), 8, 4, 32, &cost, &base).expect("fits");
    let on = run_twoface_streamed(
        &mut make(),
        8,
        4,
        32,
        &cost,
        &StreamOptions { observability: Observability::full(), ..base },
    )
    .expect("fits");

    // Bit-identity: telemetry must not move a single gated field.
    assert_eq!(on.report.output, off.report.output);
    assert_eq!(on.report.seconds, off.report.seconds);
    assert_eq!(on.report.rank_breakdowns, off.report.rank_breakdowns);
    assert_eq!(on.report.elements_received, off.report.elements_received);
    assert_eq!(on.spilled_bytes, off.spilled_bytes);
    assert_eq!(on.estimated_host_bytes, off.estimated_host_bytes);
    assert!(off.report.rank_events.iter().all(Vec::is_empty), "off means off");
    assert_eq!(off.report.metrics.counter("stream.passes"), 0);

    // Pass spans: all five passes, in order, as sim-time-zero instants on
    // rank 0 (wall stamping is off, so the stream stays deterministic).
    let driver: Vec<_> = on.report.rank_events[0]
        .iter()
        .filter(|e| matches!(e.kind, OpKind::HostPass | OpKind::Spill | OpKind::Gauge))
        .collect();
    let passes: Vec<usize> =
        driver.iter().filter(|e| e.kind == OpKind::HostPass).map(|e| e.peers[0]).collect();
    assert_eq!(passes, vec![1, 2, 3, 4, 5], "every pass leaves exactly one span");
    for e in &driver {
        assert_eq!((e.start_seconds, e.end_seconds), (0.0, 0.0), "driver events are instants");
        assert_eq!(e.wall_nanos, None, "no wall stamps unless requested");
    }

    // Spill counters reconcile with the bytes actually written to disk
    // (every write event's `elements` is a fresh stat of the file).
    let written: u64 =
        driver.iter().filter(|e| e.kind == OpKind::Spill && e.initiator).map(|e| e.elements).sum();
    assert_eq!(written, on.spilled_bytes as u64, "spill-write events match bytes on disk");
    assert_eq!(on.report.metrics.counter("stream.spill_bytes_written"), written);
    assert_eq!(
        on.report.metrics.counter("stream.shards_written"),
        driver.iter().filter(|e| e.kind == OpKind::Spill && e.initiator).count() as u64
    );
    assert!(on.report.metrics.counter("stream.spill_bytes_read") > 0, "passes re-read shards");

    // The high-water gauge never exceeds the declared budget, and the
    // recorded headroom is exactly the remainder.
    let hwm = on.report.metrics.counter("stream.host_bytes_high_water");
    assert_eq!(hwm, on.estimated_host_bytes as u64);
    assert!(hwm <= budget as u64, "gauge {hwm} exceeds budget {budget}");
    let headroom = on
        .report
        .metrics
        .histogram("stream.budget_headroom_bytes")
        .expect("budget declared, so headroom is sampled");
    assert_eq!(headroom.count(), 1);
    assert_eq!(headroom.max(), Some(budget as u64 - hwm));
}

#[test]
fn structural_streamed_run_skips_values_but_keeps_clocks() {
    let cost = CostModel::delta_scaled();
    let make = || ErdosChunks::new(1024, 1024, 20_000, 5);
    let full = run_twoface_streamed(&mut make(), 8, 4, 32, &cost, &StreamOptions::default())
        .expect("fits");
    let structural = run_twoface_streamed(
        &mut make(),
        8,
        4,
        32,
        &cost,
        &StreamOptions { compute_values: false, ..Default::default() },
    )
    .expect("fits");
    assert!(structural.report.output.is_none());
    assert_eq!(structural.report.seconds, full.report.seconds);
    assert_eq!(structural.report.rank_breakdowns, full.report.rank_breakdowns);
    assert_eq!(structural.report.elements_received, full.report.elements_received);
}
