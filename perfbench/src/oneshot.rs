//! `oneshot_web`: every op is one `run_algorithm(Algorithm::TwoFace, ..)`
//! call with no prepared artifact, so the caller pays preprocessing on
//! every call.

use crate::inputs::{panel, read_matrix, write_matrix};
use crate::measure::{bitwise_eq, done, fingerprint_s, spawn_s, timed, NetCounts};
use crate::stats::{describe, median};
use crate::sys;
use crate::{BoxError, Ctx, Outcome};
use std::sync::Arc;
use std::time::Instant;
use twoface_core::{
    prepare_plan, reference_spmm, run_algorithm, run_algorithm_on, Algorithm, ExecutionReport,
    PreparedMatrix, Problem, RunOptions,
};
use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
use twoface_matrix::DenseMatrix;
use twoface_net::{Cluster, CostModel};
use twoface_partition::ModelCoefficients;

const P: usize = 32;
const STRIPE_WIDTH: usize = 512;
const K: usize = 8;
const SETUP_REPS: usize = 7;
const WARMUP_OPS: usize = 1;

pub fn run(ctx: &Ctx) -> Result<Outcome, BoxError> {
    let config = WebcrawlConfig { n: 1 << 18, hosts: 2048, per_row: 20, ..Default::default() };
    let path = ctx.work.path("oneshot_web.A.bin");
    write_matrix(&path, &webcrawl(&config, ctx.seed))?;
    let b = Arc::new(panel(config.n, K, ctx.seed, 1));

    // Set-up: read A and build the problem, repeated; the last one is used.
    let (mut setup_s, mut setup_cpu_s, mut read_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut problem = None;
    for _ in 0..SETUP_REPS {
        let (wall, usage, built) = timed(|| -> Result<_, BoxError> {
            let start = Instant::now();
            let a = read_matrix(&path)?;
            read_s.push(start.elapsed().as_secs_f64());
            Ok(Problem::new(Arc::new(a), Arc::clone(&b), P, STRIPE_WIDTH)?)
        });
        setup_s.push(wall);
        setup_cpu_s.push(usage.cpu_s);
        problem = Some(built?);
    }
    let problem = problem.expect("at least one set-up repetition");
    let nnz = problem.a.nnz();
    println!(
        "input: webcrawl n {}, {nnz} nnz; p {P}, stripe width {STRIPE_WIDTH}, K {K}",
        config.n
    );
    println!("{}", describe("set-up wall (read_binary + Problem::new)", &setup_s));
    println!("{}", describe("setup_s (user + sys)", &setup_cpu_s));
    let reference = reference_spmm(&problem.a, &problem.b);
    let cost = CostModel::delta();
    let mut check = OpCheck { reference, first: None, sim: None };

    let mut outcome = Outcome::default();
    if ctx.trace {
        traced(ctx, &problem, &cost, &mut check, &mut outcome, &read_s)?;
        return Ok(outcome);
    }

    sys::reset_peak_rss()?;
    let mut peak_rss = None;
    let mut solve_s = Vec::new();
    let mut cpu_s = Vec::new();
    let mut timed_start = None;
    for op in 0.. {
        if op == WARMUP_OPS {
            timed_start = Some(Instant::now());
        }
        let (wall, usage, result) =
            timed(|| run_algorithm(Algorithm::TwoFace, &problem, &cost, &RunOptions::default()));
        if op == 0 {
            peak_rss = sys::peak_rss_mb();
        }
        outcome.op(check.failure(result.as_ref()));
        if op >= WARMUP_OPS {
            solve_s.push(wall);
            cpu_s.push(usage.cpu_s);
        }
        if done(timed_start, ctx.seconds, solve_s.len()) {
            break;
        }
    }
    println!("{}", describe("solve_p50_s (wall)", &solve_s));
    println!("{}", describe("op_cpu_s (user + sys)", &cpu_s));
    let sim = check.sim.unwrap_or(f64::NAN);
    println!("sim_s: {sim:?} s per op, identical across ops");
    outcome.metric("setup_s", median(&setup_cpu_s));
    outcome.metric("op_cpu_s", median(&cpu_s));
    outcome.metric("peak_rss_mb", peak_rss.ok_or("VmHWM unavailable")?);
    outcome.metric("sim_s", sim);
    Ok(outcome)
}

/// The per-op output check: C within `validate`'s 1e-9 of the serial
/// reference, bitwise equal to the first op's C, and the same simulated
/// seconds as the first op.
struct OpCheck {
    reference: DenseMatrix,
    first: Option<DenseMatrix>,
    sim: Option<f64>,
}

impl OpCheck {
    fn failure<E: std::fmt::Display>(
        &mut self,
        result: Result<&ExecutionReport, E>,
    ) -> Option<String> {
        let report = match result {
            Ok(report) => report,
            Err(e) => return Some(e.to_string()),
        };
        let Some(c) = report.output.as_ref() else {
            return Some("no output".into());
        };
        if !c.approx_eq(&self.reference, 1e-9) {
            return Some(format!(
                "C differs from the reference by {}",
                c.max_abs_diff(&self.reference)
            ));
        }
        let first = self.first.get_or_insert_with(|| c.clone());
        if !bitwise_eq(c, first) {
            return Some("C differs from the first op's bits".into());
        }
        let sim = *self.sim.get_or_insert(report.seconds);
        if sim.to_bits() != report.seconds.to_bits() {
            return Some(format!("simulated seconds {} != first op's {sim}", report.seconds));
        }
        None
    }
}

/// Per-layer run: untraced ops alternate with traced ops that make the
/// same call one layer down (`prepare_plan`, `PreparedMatrix::build`, then
/// `run_algorithm` with the artifact), plus a warm-cluster probe.
fn traced(
    ctx: &Ctx,
    problem: &Problem,
    cost: &CostModel,
    check: &mut OpCheck,
    outcome: &mut Outcome,
    read_s: &[f64],
) -> Result<(), BoxError> {
    let options = RunOptions::default();
    let effective = options.config.effective_cost(cost);
    let coefficients = ModelCoefficients::from(&effective);
    let warm = Cluster::new(P, effective);
    let spawn = spawn_s(P, &effective);
    let fingerprint = fingerprint_s(&problem.a);

    let (mut untraced_s, mut cpu_s, mut switches) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plan_s, mut build_s, mut run_s, mut batch_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counts = None;
    let mut timed_start = None;
    for op in 0.. {
        if op == WARMUP_OPS {
            timed_start = Some(Instant::now());
        }
        let (wall, usage, result) =
            timed(|| run_algorithm(Algorithm::TwoFace, problem, cost, &options));
        outcome.op(check.failure(result.as_ref()));

        let start = Instant::now();
        let plan = prepare_plan(problem, &coefficients, &effective);
        let planned = start.elapsed().as_secs_f64();
        std::hint::black_box(plan);
        let start = Instant::now();
        let prepared = Arc::new(PreparedMatrix::build(problem, cost, &options)?);
        let built = start.elapsed().as_secs_f64();
        let with_prepared = RunOptions { prepared: Some(prepared), ..options.clone() };
        let (ran, _, result) =
            timed(|| run_algorithm(Algorithm::TwoFace, problem, cost, &with_prepared));
        outcome.op(check.failure(result.as_ref()));
        if let Ok(report) = &result {
            counts = Some((NetCounts::of(report), report.elements_received));
        }
        let (batched, _, result) =
            timed(|| run_algorithm_on(&warm, Algorithm::TwoFace, problem, cost, &with_prepared));
        outcome.op(check.failure(result.as_ref()));

        if op >= WARMUP_OPS {
            untraced_s.push(wall);
            cpu_s.push(usage.cpu_s);
            switches.push(usage.vol_ctx_switches as f64);
            plan_s.push(planned);
            build_s.push(built);
            run_s.push(ran);
            batch_s.push(batched);
        }
        if done(timed_start, ctx.seconds, untraced_s.len()) {
            break;
        }
    }
    let (net, elements) = counts.ok_or("no traced op succeeded")?;
    let traced_s: Vec<f64> = build_s.iter().zip(&run_s).map(|(b, r)| b + r).collect();
    let unattributed: Vec<f64> = untraced_s.iter().zip(&traced_s).map(|(u, t)| u - t).collect();
    let overhead = median(&traced_s) / median(&untraced_s) - 1.0;
    let rank_build: Vec<f64> = build_s.iter().zip(&plan_s).map(|(b, p)| b - p).collect();
    println!("{}", describe("untraced op (run_algorithm, one-shot)", &untraced_s));
    println!(
        "{}",
        describe("traced op (PreparedMatrix::build + run_algorithm prepared)", &traced_s)
    );
    println!("{}", describe("prepare.plan_s", &plan_s));
    println!("{}", describe("prepare.build_s", &build_s));
    println!("{}", describe("execute.run_s", &run_s));
    println!("{}", describe("execute.batch_s (warm cluster)", &batch_s));
    println!("unattributed_s: p50 {:.6} s per op", median(&unattributed));

    outcome.metric("matrix.read_binary_s", median(read_s));
    outcome.metric("matrix.fingerprint_s", fingerprint);
    outcome.metric("prepare.plan_s", median(&plan_s));
    outcome.metric("prepare.build_s", median(&build_s));
    outcome.metric("prepare.rank_build_s", median(&rank_build));
    outcome.metric("execute.run_s", median(&run_s));
    outcome.metric("execute.batch_s", median(&batch_s));
    outcome.metric("execute.flops", (2 * problem.a.nnz() * K) as f64);
    outcome.metric("execute.b_bytes", (elements * 8) as f64);
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
    outcome.metric("stream.spilled_mb", 0.0);
    outcome.metric("stream.peak_shard_mb", 0.0);
    outcome.metric("stream.estimated_host_mb", 0.0);
    outcome.metric("host.cpu_s", median(&cpu_s));
    outcome.metric("unattributed_s", median(&unattributed));
    outcome.metric("host.trace_overhead", overhead);
    Ok(())
}
