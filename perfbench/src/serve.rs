//! `serve_gnn`: the shipped `gnn_training` traffic driven from one thread
//! through the inline `Frontend` over a warm `SpmmService`.
//!
//! Each round, tenant `training` submits two best-effort K = 64
//! aggregations (they fuse to K = 128) and tenant `inference` submits two
//! K = 4 queries under a simulated-time SLO tight enough that their batch
//! closes under deadline pressure. The client polls once, then drains, so
//! the queries are answered by the poll and the aggregations by the drain.

use crate::inputs::{panel, read_matrix, write_matrix};
use crate::measure::{bitwise_eq, done, fingerprint_s, spawn_s, timed, NetCounts};
use crate::stats::{describe, median};
use crate::sys;
use crate::{BoxError, Ctx, Outcome};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use twoface_core::gnn::normalize_adjacency;
use twoface_core::{
    prepare_plan, run_algorithm, run_algorithm_on, Algorithm, PreparedMatrix, Problem, RunOptions,
};
use twoface_frontend::{
    CloseReason, Frontend, FrontendConfig, FrontendPhase, FrontendRequest, FrontendResponse,
    TenantId, TenantQuota,
};
use twoface_matrix::gen::{rmat, RmatConfig};
use twoface_matrix::{CooMatrix, DenseMatrix};
use twoface_net::{Cluster, CostModel};
use twoface_partition::ModelCoefficients;
use twoface_serve::{CacheStats, MatrixHandle, ServeConfig, SpmmRequest, SpmmService};

const P: usize = 8;
const STRIPE_WIDTH: usize = 128;
const TRAIN_K: usize = 64;
const QUERY_K: usize = 4;
/// Distinct B panels per tenant; rounds cycle through them.
const PANELS: usize = 4;
/// The query SLO as a multiple of the cost model's predicted execution
/// time: below the front-end's 1.5x deadline safety, so the query batch
/// closes under deadline pressure at the first poll.
const SLO_FACTOR: f64 = 1.2;
const SETUP_REPS: usize = 7;
const WARMUP_ROUNDS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Train,
    Query,
}

/// The seeded inputs and each panel's solo output, the bits every
/// response must match.
struct Inputs {
    train: Vec<Arc<DenseMatrix>>,
    query: Vec<Arc<DenseMatrix>>,
    train_solo: Vec<DenseMatrix>,
    query_solo: Vec<DenseMatrix>,
}

impl Inputs {
    fn panel(&self, kind: Kind, i: usize) -> (&Arc<DenseMatrix>, &DenseMatrix) {
        match kind {
            Kind::Train => (&self.train[i], &self.train_solo[i]),
            Kind::Query => (&self.query[i], &self.query_solo[i]),
        }
    }
}

/// A warm session: the front-end over its service, ready for rounds.
struct Session {
    frontend: Frontend,
    handle: MatrixHandle,
    training: TenantId,
    inference: TenantId,
    slo: f64,
}

/// One round's client-side record.
#[derive(Default)]
struct Round {
    wall_s: f64,
    query_s: Vec<f64>,
    train_s: Vec<f64>,
    /// Per request, sorted: `(kind, bits of its batch's exec sim seconds)`.
    sims: Vec<(u8, u64)>,
    /// Session simulated seconds per request: each batch counted once.
    sim_per_request: f64,
    responses: Vec<FrontendResponse>,
    /// Wall seconds of each `submit`, and of each `poll`/`drain` with the
    /// timeline span of the events it appended.
    submit_s: f64,
    calls: Vec<(f64, std::ops::Range<usize>)>,
    /// `(job, kind, panel)` of every admitted request.
    jobs: Vec<(u64, Kind, usize)>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, BoxError> {
    let raw = rmat(&RmatConfig { scale: 14, edge_factor: 16, ..Default::default() }, ctx.seed);
    let path = ctx.work.path("serve_gnn.A.bin");
    write_matrix(&path, &normalize_adjacency(&raw.symmetrize()?))?;
    drop(raw);
    let cost = CostModel::delta_scaled();

    // Solo outputs on identically built artifacts: the front-end's contract
    // is that every response carries exactly these bits.
    let a = Arc::new(read_matrix(&path)?);
    let n = a.cols();
    let panels = |k: usize, salt: u64| -> Vec<Arc<DenseMatrix>> {
        (0..PANELS).map(|i| Arc::new(panel(n, k, ctx.seed, salt + i as u64))).collect()
    };
    let (train, query) = (panels(TRAIN_K, 100), panels(QUERY_K, 200));
    let solo = |bs: &[Arc<DenseMatrix>]| -> Result<Vec<DenseMatrix>, BoxError> {
        let prepared = prepared_for(&a, &bs[0], &cost)?;
        let options = RunOptions { prepared: Some(prepared), ..RunOptions::default() };
        bs.iter()
            .map(|b| {
                let problem = Problem::new(Arc::clone(&a), Arc::clone(b), P, STRIPE_WIDTH)?;
                let report = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)?;
                Ok(report.output.ok_or("solo run computed no output")?)
            })
            .collect()
    };
    let inputs = Inputs { train_solo: solo(&train)?, query_solo: solo(&query)?, train, query };
    println!(
        "input: GCN-normalized symmetrized R-MAT scale 14, edge factor 16: n {n}, {} nnz; \
         p {P}, stripe width {STRIPE_WIDTH}",
        a.nnz()
    );

    let mut outcome = Outcome::default();
    let (mut setup_s, mut setup_cpu_s, mut read_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let (wall, usage, result) = timed(|| set_up(&path, &cost, &inputs, &mut outcome));
        let (s, read) = result?;
        setup_s.push(wall);
        setup_cpu_s.push(usage.cpu_s);
        read_s.push(read);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up repetition");
    println!(
        "{}",
        describe(
            "set-up wall (read_binary, SpmmService, register, Frontend, tenants, 2 cold requests)",
            &setup_s
        )
    );
    println!("{}", describe("setup_s (user + sys)", &setup_cpu_s));
    let cache_before = session.frontend.service().cache_stats();

    if ctx.trace {
        traced(ctx, &a, &cost, &inputs, &mut session, &mut outcome, &read_s)?;
        return Ok(outcome);
    }

    sys::reset_peak_rss()?;
    let mut peak_rss = None;
    let (mut query_s, mut train_s, mut round_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_s = Vec::new();
    let mut sims = None;
    let mut sim = f64::NAN;
    let mut timed_start = None;
    let mut responses = Vec::new();
    for r in 0.. {
        if r == WARMUP_ROUNDS {
            timed_start = Some(Instant::now());
        }
        let (_, usage, round) = timed(|| play_round(&mut session, &inputs, r, &mut outcome));
        if r == 0 {
            peak_rss = sys::peak_rss_mb();
        }
        let first = sims.get_or_insert_with(|| round.sims.clone());
        outcome
            .check(*first == round.sims, "per-request simulated seconds identical across rounds");
        sim = round.sim_per_request;
        if r >= WARMUP_ROUNDS {
            query_s.extend(&round.query_s);
            train_s.extend(&round.train_s);
            round_s.push(round.wall_s);
            cpu_s.push(usage.cpu_s);
            responses.extend(round.responses);
        }
        if done(timed_start, ctx.seconds, round_s.len()) {
            break;
        }
    }
    let hits = hit_ratio(cache_before, session.frontend.service().cache_stats());
    println!("{}", describe("query_p50_s (submit to delivering poll/drain)", &query_s));
    println!("{}", describe("train_p50_s (submit to delivering poll/drain)", &train_s));
    println!("{}", describe("round wall", &round_s));
    println!("{}", describe("op_cpu_s (user + sys per round)", &cpu_s));
    println!("serve.cache_hit_ratio: {hits:.3} of plan lookups after set-up");
    print_response_mix(&responses, session.frontend.metrics());
    println!("sim_s: {sim:?} s per request (session simulated seconds / requests)");
    outcome.metric("setup_s", median(&setup_cpu_s));
    outcome.metric("op_cpu_s", median(&cpu_s));
    outcome.metric("peak_rss_mb", peak_rss.ok_or("VmHWM unavailable")?);
    outcome.metric("sim_s", sim);
    Ok(outcome)
}

/// Plan-cache hits per lookup between two snapshots.
fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    (after.hits - before.hits) as f64 / lookups.max(1) as f64
}

/// The artifact a service builds for requests shaped like `b`.
fn prepared_for(
    a: &Arc<CooMatrix>,
    b: &Arc<DenseMatrix>,
    cost: &CostModel,
) -> Result<Arc<PreparedMatrix>, BoxError> {
    let problem = Problem::new(Arc::clone(a), Arc::clone(b), P, STRIPE_WIDTH)?;
    Ok(Arc::new(PreparedMatrix::build(&problem, cost, &RunOptions::default())?))
}

/// The program's set-up: read A, start a service, register A, wrap it in a
/// front-end, register both tenants, and fill the plan cache with one cold
/// request per plan key. Returns the session and the `read_binary` time.
fn set_up(
    path: &std::path::Path,
    cost: &CostModel,
    inputs: &Inputs,
    outcome: &mut Outcome,
) -> Result<(Session, f64), BoxError> {
    let start = Instant::now();
    let a = Arc::new(read_matrix(path)?);
    let read = start.elapsed().as_secs_f64();
    let mut service = SpmmService::new(ServeConfig::new(P, *cost));
    let handle = service.register_matrix(a, STRIPE_WIDTH)?;
    let mut frontend = Frontend::new(service, FrontendConfig::default());
    let training = frontend.register_tenant("training", TenantQuota::unlimited())?;
    let inference = frontend
        .register_tenant("inference", TenantQuota { max_queued: 8, max_in_flight_k: 64 })?;
    let mut cold = HashMap::new();
    for (tenant, kind) in [(training, Kind::Train), (inference, Kind::Query)] {
        let (b, _) = inputs.panel(kind, 0);
        let job = frontend.submit(tenant, FrontendRequest::new(handle, Arc::clone(b)))?;
        cold.insert(job.id(), kind);
    }
    for response in frontend.drain() {
        let failure = match cold.remove(&response.job.id()) {
            Some(kind) => response_failure(&response, inputs.panel(kind, 0).1),
            None => Some(format!("unexpected response for job {}", response.job.id())),
        };
        outcome.op(failure);
    }
    for job in cold.keys() {
        outcome.op(Some(format!("cold job {job} was never answered")));
    }
    let slo =
        SLO_FACTOR * frontend.service().predicted_seconds(handle, Algorithm::TwoFace, QUERY_K)?;
    Ok((Session { frontend, handle, training, inference, slo }, read))
}

fn response_failure(response: &FrontendResponse, solo: &DenseMatrix) -> Option<String> {
    match &response.output {
        Ok(c) if bitwise_eq(c, solo) => None,
        Ok(_) => Some(format!("job {} differs from its solo run", response.job.id())),
        Err(e) => Some(format!("job {} failed: {e}", response.job.id())),
    }
}

/// Plays round `r`: two training aggregations, two queries, one poll, then
/// a drain if anything is still outstanding.
fn play_round(session: &mut Session, inputs: &Inputs, r: usize, outcome: &mut Outcome) -> Round {
    let mut round = Round::default();
    let mut submitted: HashMap<u64, (Kind, usize, Instant)> = HashMap::new();
    let started = Instant::now();
    let plan = [Kind::Train, Kind::Train, Kind::Query, Kind::Query];
    for (slot, kind) in plan.into_iter().enumerate() {
        let i = (2 * r + slot % 2) % PANELS;
        let (b, _) = inputs.panel(kind, i);
        let request = FrontendRequest::new(session.handle, Arc::clone(b));
        let (tenant, request) = match kind {
            Kind::Train => (session.training, request),
            Kind::Query => (session.inference, request.with_slo(session.slo)),
        };
        let at = Instant::now();
        let result = session.frontend.submit(tenant, request);
        round.submit_s += at.elapsed().as_secs_f64();
        match result {
            Ok(job) => {
                submitted.insert(job.id(), (kind, i, at));
                round.jobs.push((job.id(), kind, i));
            }
            Err(e) => outcome.op(Some(format!("submit rejected: {e}"))),
        }
    }
    for flush in [false, true] {
        if submitted.is_empty() {
            break;
        }
        let events = session.frontend.timeline().len();
        let at = Instant::now();
        let responses = if flush { session.frontend.drain() } else { session.frontend.poll() };
        let returned = Instant::now();
        round
            .calls
            .push(((returned - at).as_secs_f64(), events..session.frontend.timeline().len()));
        for response in responses {
            let Some((kind, i, at)) = submitted.remove(&response.job.id()) else {
                outcome.op(Some(format!("unexpected response for job {}", response.job.id())));
                continue;
            };
            let latency = (returned - at).as_secs_f64();
            match kind {
                Kind::Train => round.train_s.push(latency),
                Kind::Query => round.query_s.push(latency),
            }
            outcome.op(response_failure(&response, inputs.panel(kind, i).1));
            round.sims.push((kind as u8, response.exec_sim_seconds.to_bits()));
            round.sim_per_request += response.exec_sim_seconds / response.batch_size as f64;
            round.responses.push(response);
        }
    }
    round.wall_s = started.elapsed().as_secs_f64();
    for (job, ..) in submitted {
        outcome.op(Some(format!("job {job} was never answered")));
    }
    round.sims.sort_unstable();
    round.sim_per_request /= round.responses.len().max(1) as f64;
    round
}

struct Mix {
    requests_per_batch: f64,
    fused_k_mean: f64,
    deadline_hit_ratio: f64,
    deadline_pressure_per_round: f64,
    flush_per_round: f64,
    rejected_frac: f64,
}

fn response_mix(responses: &[FrontendResponse], metrics: &twoface_net::MetricsRegistry) -> Mix {
    let per_batch: Vec<f64> = responses.iter().map(|r| r.batch_size as f64).collect();
    let fused: Vec<f64> = responses
        .iter()
        .filter_map(|r| r.output.as_ref().ok().map(|c| (c.cols() * r.batch_size) as f64))
        .collect();
    let with_deadline: Vec<bool> = responses.iter().filter_map(|r| r.deadline_met()).collect();
    let rounds = (responses.len() / 4).max(1) as f64;
    let batches_with = |reason: CloseReason| {
        responses
            .iter()
            .filter(|r| r.close_reason == reason)
            .map(|r| 1.0 / r.batch_size as f64)
            .sum::<f64>()
            / rounds
    };
    let submitted = metrics.counter("frontend.submitted") + metrics.counter("frontend.rejected");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Mix {
        // Each batch weighted once: the harmonic mean over requests.
        requests_per_batch: responses.len() as f64
            / per_batch.iter().map(|s| 1.0 / s).sum::<f64>().max(1.0),
        fused_k_mean: mean(&fused),
        deadline_hit_ratio: with_deadline.iter().filter(|&&m| m).count() as f64
            / with_deadline.len().max(1) as f64,
        deadline_pressure_per_round: batches_with(CloseReason::DeadlinePressure),
        flush_per_round: batches_with(CloseReason::Flush),
        rejected_frac: metrics.counter("frontend.rejected") as f64 / submitted.max(1) as f64,
    }
}

fn print_response_mix(responses: &[FrontendResponse], metrics: &twoface_net::MetricsRegistry) {
    let mix = response_mix(responses, metrics);
    println!(
        "serve.requests_per_batch {:.3}, serve.fused_k_mean {:.1}, \
         frontend.deadline_hit_ratio {:.3}, frontend.rejected_frac {:.3}",
        mix.requests_per_batch, mix.fused_k_mean, mix.deadline_hit_ratio, mix.rejected_frac
    );
    println!(
        "frontend.close per round: deadline_pressure {:.2}, flush {:.2}, k_budget_full {}, aged {} \
         (session totals)",
        mix.deadline_pressure_per_round,
        mix.flush_per_round,
        metrics.counter("frontend.close.k_budget_full"),
        metrics.counter("frontend.close.aged"),
    );
}

/// A replica of the session one layer down: a twin service with the same
/// warm plan cache, and a twin warm cluster with identically built
/// artifacts for `run_algorithm_on`.
struct Twin {
    service: SpmmService,
    handle: MatrixHandle,
    cluster: Cluster,
    train_prepared: Arc<PreparedMatrix>,
    query_prepared: Arc<PreparedMatrix>,
}

/// Per-round layer times of one traced round, in seconds.
#[derive(Default)]
struct Layers {
    submit: f64,
    poll_self: f64,
    serve_self: f64,
    batch: f64,
    run: f64,
}

/// Per-layer run: untraced rounds alternate with traced rounds whose every
/// executed batch is then replayed through the twin service, through
/// `run_algorithm_on` on the twin warm cluster, and through `run_algorithm`.
fn traced(
    ctx: &Ctx,
    a: &Arc<CooMatrix>,
    cost: &CostModel,
    inputs: &Inputs,
    session: &mut Session,
    outcome: &mut Outcome,
    read_s: &[f64],
) -> Result<(), BoxError> {
    let cache_before = session.frontend.service().cache_stats();
    let effective = RunOptions::default().config.effective_cost(cost);
    let coefficients = ModelCoefficients::from(&effective);
    let (mut plan_s, mut build_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut plan, mut build) = (0.0, 0.0);
        for b in [&inputs.train[0], &inputs.query[0]] {
            let problem = Problem::new(Arc::clone(a), Arc::clone(b), P, STRIPE_WIDTH)?;
            let start = Instant::now();
            std::hint::black_box(prepare_plan(&problem, &coefficients, &effective));
            plan += start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::hint::black_box(PreparedMatrix::build(&problem, cost, &RunOptions::default())?);
            build += start.elapsed().as_secs_f64();
        }
        plan_s.push(plan);
        build_s.push(build);
    }
    let mut service = SpmmService::new(ServeConfig::new(P, *cost));
    let handle = service.register_matrix(Arc::clone(a), STRIPE_WIDTH)?;
    for b in [&inputs.train[0], &inputs.query[0]] {
        service.run_one(SpmmRequest::new(handle, Arc::clone(b)))?.output?;
    }
    let cluster = Cluster::new(P, effective);
    cluster.set_window_retention(true);
    let mut twin = Twin {
        service,
        handle,
        cluster,
        train_prepared: prepared_for(a, &inputs.train[0], cost)?,
        query_prepared: prepared_for(a, &inputs.query[0], cost)?,
    };
    let spawn = spawn_s(P, &effective);
    let fingerprint = fingerprint_s(a);

    let (mut untraced_s, mut cpu_s, mut switches) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_s = Vec::new();
    let mut layers = Vec::new();
    let mut counts = None;
    let mut responses = Vec::new();
    let mut timed_start = None;
    for r in 0.. {
        if r == WARMUP_ROUNDS {
            timed_start = Some(Instant::now());
        }
        let (_, usage, round) = timed(|| play_round(session, inputs, 2 * r, outcome));
        let traced_round = play_round(session, inputs, 2 * r + 1, outcome);
        let (layer, round_counts) =
            replay(&mut twin, a, cost, inputs, session, &traced_round, outcome)?;
        if r >= WARMUP_ROUNDS {
            untraced_s.push(round.wall_s);
            cpu_s.push(usage.cpu_s);
            switches.push(usage.vol_ctx_switches as f64);
            traced_s.push(traced_round.wall_s);
            layers.push(layer);
            counts = Some(round_counts);
            responses.extend(round.responses);
            responses.extend(traced_round.responses);
        }
        if done(timed_start, ctx.seconds, untraced_s.len()) {
            break;
        }
    }
    let (net, elements, flops) = counts.ok_or("no traced round")?;
    let of = |f: fn(&Layers) -> f64| layers.iter().map(f).collect::<Vec<f64>>();
    let unattributed: Vec<f64> = layers
        .iter()
        .zip(&traced_s)
        .map(|(l, wall)| wall - (l.submit + l.poll_self + l.serve_self + l.batch))
        .collect();
    let mix = response_mix(&responses, session.frontend.metrics());
    let stats = session.frontend.service().cache_stats();
    println!("{}", describe("untraced round", &untraced_s));
    println!("{}", describe("traced round", &traced_s));
    println!("{}", describe("frontend.submit_s (per round)", &of(|l| l.submit)));
    println!("{}", describe("frontend.poll_self_s (per round)", &of(|l| l.poll_self)));
    println!("{}", describe("serve.batch_self_s (per round)", &of(|l| l.serve_self)));
    println!("{}", describe("execute.batch_s (per round)", &of(|l| l.batch)));
    println!("{}", describe("execute.run_s (per round)", &of(|l| l.run)));
    println!("{}", describe("unattributed_s (per round)", &unattributed));
    print_response_mix(&responses, session.frontend.metrics());

    outcome.metric("matrix.read_binary_s", median(read_s));
    outcome.metric("matrix.fingerprint_s", fingerprint);
    outcome.metric("prepare.plan_s", median(&plan_s));
    outcome.metric("prepare.build_s", median(&build_s));
    let rank_build: Vec<f64> = build_s.iter().zip(&plan_s).map(|(b, p)| b - p).collect();
    outcome.metric("prepare.rank_build_s", median(&rank_build));
    outcome.metric("execute.run_s", median(&of(|l| l.run)));
    outcome.metric("execute.batch_s", median(&of(|l| l.batch)));
    outcome.metric("execute.flops", flops as f64);
    outcome.metric("execute.b_bytes", (elements * 8) as f64);
    outcome.metric("net.spawn_s", spawn);
    outcome.metric("net.meets", net.meets as f64);
    outcome.metric("net.messages", net.messages as f64);
    outcome.metric("net.one_sided_ops", net.one_sided_ops as f64);
    outcome.metric("net.vol_ctx_switches", median(&switches));
    outcome.metric("serve.cache_hit_ratio", hit_ratio(cache_before, stats));
    outcome.metric("serve.requests_per_batch", mix.requests_per_batch);
    outcome.metric("serve.fused_k_mean", mix.fused_k_mean);
    outcome.metric("frontend.deadline_hit_ratio", mix.deadline_hit_ratio);
    outcome.metric("frontend.close.deadline_pressure", mix.deadline_pressure_per_round);
    outcome.metric("frontend.close.flush", mix.flush_per_round);
    outcome.metric("frontend.rejected_frac", mix.rejected_frac);
    outcome.metric("stream.spilled_mb", 0.0);
    outcome.metric("stream.peak_shard_mb", 0.0);
    outcome.metric("stream.estimated_host_mb", 0.0);
    outcome.metric("host.cpu_s", median(&cpu_s));
    outcome.metric("unattributed_s", median(&unattributed));
    outcome.metric("host.trace_overhead", median(&traced_s) / median(&untraced_s) - 1.0);
    Ok(())
}

/// Replays every batch the traced round executed, one layer down, and
/// splits the round's wall time by layer. Batch membership comes from the
/// `Execute` events each `poll`/`drain` appended to the front-end timeline.
fn replay(
    twin: &mut Twin,
    a: &Arc<CooMatrix>,
    cost: &CostModel,
    inputs: &Inputs,
    session: &Session,
    round: &Round,
    outcome: &mut Outcome,
) -> Result<(Layers, (NetCounts, u64, u64)), BoxError> {
    let members: HashMap<u64, (Kind, usize)> =
        round.jobs.iter().map(|&(job, kind, i)| (job, (kind, i))).collect();
    let mut layers = Layers { submit: round.submit_s, ..Layers::default() };
    let mut counts = NetCounts { meets: 0, messages: 0, one_sided_ops: 0 };
    let (mut elements, mut flops) = (0u64, 0u64);
    for (call_s, events) in &round.calls {
        let mut service_s = 0.0;
        for event in &session.frontend.timeline()[events.clone()] {
            if event.phase != FrontendPhase::Execute {
                continue;
            }
            let batch: Vec<(Kind, usize)> = event
                .jobs
                .iter()
                .map(|job| members.get(job).copied().ok_or("batch member from another round"))
                .collect::<Result<_, _>>()?;
            let kind = batch[0].0;
            let bs: Vec<&Arc<DenseMatrix>> =
                batch.iter().map(|&(k, i)| inputs.panel(k, i).0).collect();

            let start = Instant::now();
            let ids: Vec<_> = bs
                .iter()
                .map(|b| twin.service.submit(SpmmRequest::new(twin.handle, Arc::clone(b))))
                .collect::<Result<_, _>>()?;
            let answered = twin.service.drain();
            let served = start.elapsed().as_secs_f64();
            for (id, &(k, i)) in ids.iter().zip(&batch) {
                let failure = match answered.iter().find(|r| r.request == *id).map(|r| &r.output) {
                    Some(Ok(c)) if bitwise_eq(c, inputs.panel(k, i).1) => None,
                    Some(Ok(_)) => Some("twin service response differs from solo".to_string()),
                    Some(Err(e)) => Some(format!("twin service failed: {e}")),
                    None => Some("twin service dropped a request".to_string()),
                };
                outcome.op(failure);
            }

            let fused = fuse(&bs);
            let problem = Problem::new(Arc::clone(a), Arc::new(fused), P, STRIPE_WIDTH)?;
            let prepared = match kind {
                Kind::Train => &twin.train_prepared,
                Kind::Query => &twin.query_prepared,
            };
            let options =
                RunOptions { prepared: Some(Arc::clone(prepared)), ..RunOptions::default() };
            let start = Instant::now();
            let report =
                run_algorithm_on(&twin.cluster, Algorithm::TwoFace, &problem, cost, &options)?;
            let batch_s = start.elapsed().as_secs_f64();
            twin.cluster.reset();
            let start = Instant::now();
            let cold = run_algorithm(Algorithm::TwoFace, &problem, cost, &options)?;
            let run_s = start.elapsed().as_secs_f64();
            outcome.check(
                match (&report.output, &cold.output) {
                    (Some(x), Some(y)) => bitwise_eq(x, y),
                    _ => false,
                },
                "warm and cold replays of a batch agree bitwise",
            );

            let c = NetCounts::of(&report);
            counts.meets += c.meets;
            counts.messages += c.messages;
            counts.one_sided_ops += c.one_sided_ops;
            elements += report.elements_received;
            flops += (2 * a.nnz() * problem.k()) as u64;
            service_s += served;
            layers.serve_self += served - batch_s;
            layers.batch += batch_s;
            layers.run += run_s;
        }
        layers.poll_self += call_s - service_s;
    }
    Ok((layers, (counts, elements, flops)))
}

/// Column-concatenates panels, left to right — the service's fusion.
fn fuse(bs: &[&Arc<DenseMatrix>]) -> DenseMatrix {
    let rows = bs[0].rows();
    let k: usize = bs.iter().map(|b| b.cols()).sum();
    let mut flat = Vec::with_capacity(rows * k);
    for row in 0..rows {
        for b in bs {
            flat.extend_from_slice(b.row(row));
        }
    }
    DenseMatrix::from_vec(rows, k, flat).expect("fused panels tile exactly")
}
