//! `streamed_rmat`: every op is one `run_twoface_streamed` call under a
//! declared host budget, replaying R-MAT draws from a file written during
//! input generation, so the generator stays out of the timed call.

use crate::inputs::{read_matrix, write_matrix, write_triplets, FileTriplets};
use crate::measure::{bitwise_eq, done, fingerprint_s, spawn_s, timed, NetCounts};
use crate::stats::{describe, median};
use crate::sys;
use crate::{BoxError, Ctx, Outcome};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use twoface_core::{
    prepare_plan, run_algorithm, run_algorithm_on, run_twoface_streamed, Algorithm, PreparedMatrix,
    Problem, RunOptions, StreamOptions, StreamedRun,
};
use twoface_matrix::gen::{RmatChunks, RmatConfig};
use twoface_matrix::{CooMatrix, DenseMatrix};
use twoface_net::{Cluster, CostModel, Observability, OpKind, TraceLevel};
use twoface_partition::ModelCoefficients;

const P: usize = 32;
const STRIPE_WIDTH: usize = 512;
const K: usize = 8;
const BUDGET_BYTES: usize = 256 << 20;
const SETUP_REPS: usize = 3;
const WARMUP_OPS: usize = 1;
const PASSES: usize = 5;

const MIB: f64 = (1u64 << 20) as f64;

pub fn run(ctx: &Ctx) -> Result<Outcome, BoxError> {
    let config = RmatConfig { scale: 18, edge_factor: 16, ..Default::default() };
    let raw = ctx.work.path("streamed_rmat.triplets");
    let resident_path = ctx.work.path("streamed_rmat.A.bin");
    let draws = write_triplets(&raw, &mut RmatChunks::new(&config, ctx.seed))?;
    let n = 1usize << config.scale;
    let draw_count = draws.len();
    write_matrix(&resident_path, &CooMatrix::from_triplet_vec(n, n, draws)?)?;
    let spill_dir = ctx.work.path("spill");
    std::fs::create_dir_all(&spill_dir)?;
    let cost = CostModel::delta();
    let options = StreamOptions {
        memory_budget: Some(BUDGET_BYTES),
        spill_dir: Some(spill_dir.clone()),
        ..StreamOptions::default()
    };

    // The first op runs before anything else, so its peak RSS is the
    // streamed path's own and not what the resident reference left behind.
    sys::reset_peak_rss()?;
    let first = streamed_op(&raw, &cost, &options);
    let peak_rss = sys::peak_rss_mb().ok_or("VmHWM unavailable")?;

    // Set-up, repeated: read the assembled matrix and run the resident
    // path on it for the C every streamed op must reproduce bitwise, then
    // open the input as a file-backed source.
    let mut outcome = Outcome::default();
    let (mut setup_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut resident = None;
    for _ in 0..SETUP_REPS {
        let (wall, usage, reference) = timed(|| -> Result<_, BoxError> {
            let reference = resident_reference(&resident_path, &cost)?;
            drop(FileTriplets::open(&raw)?);
            Ok(reference)
        });
        setup_s.push(wall);
        setup_cpu_s.push(usage.cpu_s);
        resident = Some(reference?);
    }
    let resident = resident.expect("at least one set-up repetition");
    println!(
        "input: R-MAT scale 18, edge factor 16: {draw_count} draws, {} nnz; p {P}, stripe width \
         {STRIPE_WIDTH}, K {K}, budget {} MiB",
        resident.nnz,
        BUDGET_BYTES >> 20
    );
    println!(
        "{}",
        describe("set-up wall (read_binary, resident run_algorithm, open the source)", &setup_s)
    );
    println!("{}", describe("setup_s (user + sys)", &setup_cpu_s));
    let check = OpCheck { c: resident.c, sim: resident.sim };
    outcome.op(check.failure(&first));
    drop(first);

    if ctx.trace {
        let layers = resident_layers(&resident_path, &cost)?;
        traced(ctx, &raw, &cost, &options, &check, &mut outcome, layers)?;
        return Ok(outcome);
    }

    let (mut solve_s, mut cpu_s) = (Vec::new(), Vec::new());
    let timed_start = Some(Instant::now());
    loop {
        let (wall, usage, result) = timed(|| streamed_op(&raw, &cost, &options));
        outcome.op(check.failure(&result));
        solve_s.push(wall);
        cpu_s.push(usage.cpu_s);
        if done(timed_start, ctx.seconds, solve_s.len()) {
            break;
        }
    }
    println!("{}", describe("solve_p50_s (wall)", &solve_s));
    println!("{}", describe("op_cpu_s (user + sys)", &cpu_s));
    println!(
        "peak_rss_mb: {peak_rss:.1} MiB in the first op, against a {} MiB budget",
        BUDGET_BYTES >> 20
    );
    println!("sim_s: {:?} s per op, identical across ops and to the resident path", check.sim);
    outcome.metric("setup_s", median(&setup_cpu_s));
    outcome.metric("op_cpu_s", median(&cpu_s));
    outcome.metric("peak_rss_mb", peak_rss);
    outcome.metric("sim_s", check.sim);
    Ok(outcome)
}

/// One streamed op on a fresh file-backed source; returns the run and the
/// seconds spent inside the source.
fn streamed_op(
    raw: &Path,
    cost: &CostModel,
    options: &StreamOptions,
) -> Result<(StreamedRun, f64), BoxError> {
    let mut source = FileTriplets::open(raw)?;
    let run = run_twoface_streamed(&mut source, K, P, STRIPE_WIDTH, cost, options)?;
    let input_s = source.input_s();
    source.finish()?;
    Ok((run, input_s))
}

/// Streamed C must equal the resident C bitwise, with the same simulated
/// seconds.
struct OpCheck {
    c: DenseMatrix,
    sim: f64,
}

impl OpCheck {
    fn failure(&self, result: &Result<(StreamedRun, f64), BoxError>) -> Option<String> {
        let run = match result {
            Ok((run, _)) => run,
            Err(e) => return Some(e.to_string()),
        };
        match &run.report.output {
            Some(c) if bitwise_eq(c, &self.c) => {}
            Some(_) => return Some("streamed C differs from the resident C".into()),
            None => return Some("no output".into()),
        }
        if run.report.seconds.to_bits() != self.sim.to_bits() {
            return Some(format!(
                "simulated seconds {} != resident {}",
                run.report.seconds, self.sim
            ));
        }
        None
    }
}

/// Resident-path layer times on the streamed workload's matrix.
struct ResidentLayers {
    read_s: f64,
    fingerprint_s: f64,
    plan_s: f64,
    build_s: f64,
    run_s: f64,
    batch_s: f64,
}

struct Resident {
    c: DenseMatrix,
    sim: f64,
    nnz: usize,
}

/// Reads the assembled matrix and runs the resident path on it.
fn resident_reference(path: &Path, cost: &CostModel) -> Result<Resident, BoxError> {
    let a = Arc::new(read_matrix(path)?);
    let nnz = a.nnz();
    let problem = Problem::with_generated_b(a, K, P, STRIPE_WIDTH)?;
    let report = run_algorithm(Algorithm::TwoFace, &problem, cost, &RunOptions::default())?;
    let c = report.output.ok_or("resident run computed no output")?;
    Ok(Resident { c, sim: report.seconds, nnz })
}

/// Times the resident path on the streamed workload's matrix one layer
/// down, as the one-shot workload's traced op does.
fn resident_layers(path: &Path, cost: &CostModel) -> Result<ResidentLayers, BoxError> {
    let start = Instant::now();
    let a = Arc::new(read_matrix(path)?);
    let read_s = start.elapsed().as_secs_f64();
    let problem = Problem::with_generated_b(Arc::clone(&a), K, P, STRIPE_WIDTH)?;
    let options = RunOptions::default();
    let effective = options.config.effective_cost(cost);
    let start = Instant::now();
    std::hint::black_box(prepare_plan(&problem, &ModelCoefficients::from(&effective), &effective));
    let plan_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let prepared = Arc::new(PreparedMatrix::build(&problem, cost, &options)?);
    let build_s = start.elapsed().as_secs_f64();
    let options = RunOptions { prepared: Some(prepared), ..options };
    let start = Instant::now();
    run_algorithm(Algorithm::TwoFace, &problem, cost, &options)?;
    let run_s = start.elapsed().as_secs_f64();
    // The second run on the warm cluster is the one timed.
    let warm = Cluster::new(P, effective);
    let mut batch_s = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        run_algorithm_on(&warm, Algorithm::TwoFace, &problem, cost, &options)?;
        batch_s = start.elapsed().as_secs_f64();
    }
    Ok(ResidentLayers { read_s, fingerprint_s: fingerprint_s(&a), plan_s, build_s, run_s, batch_s })
}

/// Per-layer run: untraced ops alternate with traced ops that record the
/// pipeline's own `HostPass` wall spans.
fn traced(
    ctx: &Ctx,
    raw: &Path,
    cost: &CostModel,
    options: &StreamOptions,
    check: &OpCheck,
    outcome: &mut Outcome,
    resident: ResidentLayers,
) -> Result<(), BoxError> {
    let traced_options = StreamOptions {
        observability: Observability { level: TraceLevel::Comm, sample_every: 1, wall_time: true },
        ..options.clone()
    };
    let spawn = spawn_s(P, &options.config.effective_cost(cost));
    let (mut untraced_s, mut cpu_s, mut switches) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_s, mut input_s, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_s: Vec<Vec<f64>> = vec![Vec::new(); PASSES];
    let mut last = None;
    let mut timed_start = None;
    for op in 0.. {
        if op == WARMUP_OPS {
            timed_start = Some(Instant::now());
        }
        let (wall, usage, result) = timed(|| streamed_op(raw, cost, options));
        outcome.op(check.failure(&result));
        let (traced_wall, _, result) = timed(|| streamed_op(raw, cost, &traced_options));
        outcome.op(check.failure(&result));
        let Ok((run, input)) = result else { continue };
        let passes = host_passes(&run);
        outcome.check(passes.iter().all(|p| p.is_some()), "every HostPass span was recorded");
        if op >= WARMUP_OPS {
            untraced_s.push(wall);
            cpu_s.push(usage.cpu_s);
            switches.push(usage.vol_ctx_switches as f64);
            traced_s.push(traced_wall);
            input_s.push(input);
            let passes: Vec<f64> = passes.iter().map(|p| p.unwrap_or(0.0)).collect();
            unattributed.push(traced_wall - passes.iter().sum::<f64>());
            for (series, s) in pass_s.iter_mut().zip(passes) {
                series.push(s);
            }
        }
        last = Some(run);
        if done(timed_start, ctx.seconds, untraced_s.len()) {
            break;
        }
    }
    let run = last.ok_or("no traced op succeeded")?;
    let net = NetCounts::of(&run.report);
    println!("{}", describe("untraced op", &untraced_s));
    println!("{}", describe("traced op", &traced_s));
    println!("{}", describe("stream.input_s (inside next_chunk; part of pass 1)", &input_s));
    for (i, series) in pass_s.iter().enumerate() {
        println!("{}", describe(&format!("stream.pass{}_s", i + 1), series));
    }
    println!("{}", describe("unattributed_s", &unattributed));
    println!(
        "resident path on the same matrix: read_binary {:.6} s, fingerprint {:.6} s, plan {:.6} s, \
         build {:.6} s, run {:.6} s, warm-cluster run {:.6} s",
        resident.read_s,
        resident.fingerprint_s,
        resident.plan_s,
        resident.build_s,
        resident.run_s,
        resident.batch_s
    );

    outcome.metric("matrix.read_binary_s", resident.read_s);
    outcome.metric("matrix.fingerprint_s", resident.fingerprint_s);
    outcome.metric("prepare.plan_s", resident.plan_s);
    outcome.metric("prepare.build_s", resident.build_s);
    outcome.metric("prepare.rank_build_s", resident.build_s - resident.plan_s);
    outcome.metric("execute.run_s", resident.run_s);
    outcome.metric("execute.batch_s", resident.batch_s);
    outcome.metric("execute.flops", (2 * run.realized_nnz * K) as f64);
    outcome.metric("execute.b_bytes", (run.report.elements_received * 8) as f64);
    outcome.metric("net.spawn_s", spawn);
    outcome.metric("net.meets", net.meets as f64);
    outcome.metric("net.messages", net.messages as f64);
    outcome.metric("net.one_sided_ops", net.one_sided_ops as f64);
    outcome.metric("net.vol_ctx_switches", median(&switches));
    outcome.metric("serve.cache_hit_ratio", 0.0);
    outcome.metric("serve.requests_per_batch", 1.0);
    outcome.metric("serve.fused_k_mean", K as f64);
    outcome.metric("frontend.deadline_hit_ratio", 0.0);
    outcome.metric("frontend.close.deadline_pressure", 0.0);
    outcome.metric("frontend.close.flush", 0.0);
    outcome.metric("frontend.rejected_frac", 0.0);
    outcome.metric("stream.spilled_mb", run.spilled_bytes as f64 / MIB);
    outcome.metric("stream.peak_shard_mb", run.peak_shard_bytes as f64 / MIB);
    outcome.metric("stream.estimated_host_mb", run.estimated_host_bytes as f64 / MIB);
    outcome.metric("host.cpu_s", median(&cpu_s));
    outcome.metric("unattributed_s", median(&unattributed));
    outcome.metric("host.trace_overhead", median(&traced_s) / median(&untraced_s) - 1.0);
    Ok(())
}

/// Wall seconds of passes 1–5 from the pipeline's `HostPass` spans.
fn host_passes(run: &StreamedRun) -> [Option<f64>; PASSES] {
    let mut passes = [None; PASSES];
    for event in run.report.rank_events.iter().flatten() {
        if event.kind != OpKind::HostPass {
            continue;
        }
        if let (Some(&number), Some(nanos)) = (event.peers.first(), event.wall_nanos) {
            if (1..=PASSES).contains(&number) {
                passes[number - 1] = Some(nanos as f64 * 1e-9);
            }
        }
    }
    passes
}
