//! Serving throughput: what the persistent session buys over one-shot runs.
//!
//! Three experiments on one warm [`SpmmService`] session:
//!
//! 1. **Cache amortization** — per matrix: a cold request (plan-cache miss,
//!    preprocessing built and wall-timed) followed by a warm request (hit,
//!    preprocessing skipped). Simulated seconds are identical by
//!    construction; the delta is host wall time.
//! 2. **Batched vs solo scheduling** — the same request stream drained
//!    once (compatible requests fused) and one-at-a-time. Batching runs
//!    fewer, wider executions, which amortizes per-run fixed costs in
//!    *simulated* time — a delta host scheduling cannot fake.
//! 3. **Chaos resilience** — the stream replayed under a light fault plan:
//!    every request is still served, with retries/fallbacks counted.
//!
//! Writes `results/serve_throughput.json`.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twoface_bench::{banner, write_json};
use twoface_matrix::gen::{erdos_renyi, rmat, webcrawl, RmatConfig, WebcrawlConfig};
use twoface_matrix::{CooMatrix, DenseMatrix};
use twoface_net::{CostModel, FaultPlan};
use twoface_serve::{CacheStats, ServeConfig, SpmmRequest, SpmmService};

const P: usize = 8;
const K: usize = 16;
const REQUESTS_PER_MATRIX: usize = 8;

fn suite() -> Vec<(&'static str, usize, Arc<CooMatrix>)> {
    vec![
        (
            "webcrawl-8k",
            64,
            Arc::new(webcrawl(
                &WebcrawlConfig { n: 8192, hosts: 128, per_row: 10, ..Default::default() },
                5,
            )),
        ),
        (
            "rmat-s12",
            64,
            Arc::new(rmat(&RmatConfig { scale: 12, edge_factor: 12, ..Default::default() }, 9)),
        ),
        ("uniform-4k", 32, Arc::new(erdos_renyi(4096, 4096, 60_000, 3))),
    ]
}

fn dense(rows: usize, k: usize, seed: u64) -> Arc<DenseMatrix> {
    Arc::new(DenseMatrix::from_fn(rows, k, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(seed.wrapping_mul(2) | 1));
        let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8FEB86659FD93);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[derive(Serialize)]
struct CacheRow {
    matrix: String,
    cold_prep_wall_ms: f64,
    warm_prep_wall_ms: f64,
    cold_wall_ms: f64,
    warm_wall_ms: f64,
    sim_seconds_identical: bool,
}

#[derive(Serialize)]
struct StreamSummary {
    requests: usize,
    executions: u64,
    wall_seconds: f64,
    requests_per_second_wall: f64,
    sim_makespan_seconds: f64,
    sim_latency_p50_ms: f64,
    sim_latency_p99_ms: f64,
}

#[derive(Serialize)]
struct ChaosSummary {
    requests: usize,
    served: usize,
    retries: u64,
    fallbacks: u64,
    faults_seeded: bool,
}

#[derive(Serialize)]
struct Results {
    description: String,
    host_note: String,
    p: usize,
    k: usize,
    cache: Vec<CacheRow>,
    batched: StreamSummary,
    solo: StreamSummary,
    sim_makespan_batched_over_solo: f64,
    chaos: ChaosSummary,
    cache_stats: CacheStats,
    timeline_events: usize,
}

/// Runs a request stream through a fresh warm service. `batch` controls
/// whether the stream drains once (fused) or request-by-request (solo).
fn run_stream(
    matrices: &[(&'static str, usize, Arc<CooMatrix>)],
    fault_plan: Option<FaultPlan>,
    batch: bool,
) -> (StreamSummary, SpmmService, usize) {
    let mut config = ServeConfig::new(P, CostModel::delta_scaled());
    config.fault_plan = fault_plan;
    let mut service = SpmmService::new(config);
    let handles: Vec<_> = matrices
        .iter()
        .map(|(_, stripe, a)| service.register_matrix(Arc::clone(a), *stripe).unwrap())
        .collect();

    let wall = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut served = 0usize;
    let mut requests = 0usize;
    if batch {
        for (i, (handle, (_, _, a))) in handles.iter().zip(matrices).enumerate() {
            for r in 0..REQUESTS_PER_MATRIX {
                let b = dense(a.cols(), K, (i * REQUESTS_PER_MATRIX + r) as u64);
                service.submit(SpmmRequest::new(*handle, b)).unwrap();
                requests += 1;
            }
        }
        for response in service.drain() {
            latencies.push(response.sim_seconds);
            served += usize::from(response.output.is_ok());
        }
    } else {
        for (i, (handle, (_, _, a))) in handles.iter().zip(matrices).enumerate() {
            for r in 0..REQUESTS_PER_MATRIX {
                let b = dense(a.cols(), K, (i * REQUESTS_PER_MATRIX + r) as u64);
                let response = service.run_one(SpmmRequest::new(*handle, b)).unwrap();
                latencies.push(response.sim_seconds);
                served += usize::from(response.output.is_ok());
                requests += 1;
            }
        }
    }
    let wall_seconds = wall.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let summary = StreamSummary {
        requests,
        executions: service.metrics().counter("serve.batches"),
        wall_seconds,
        requests_per_second_wall: requests as f64 / wall_seconds,
        sim_makespan_seconds: service.sim_seconds(),
        sim_latency_p50_ms: percentile(&latencies, 0.50) * 1e3,
        sim_latency_p99_ms: percentile(&latencies, 0.99) * 1e3,
    };
    (summary, service, served)
}

fn main() {
    banner(
        "serve_throughput: persistent-session serving",
        &format!("{P} ranks, K = {K}, {REQUESTS_PER_MATRIX} requests per matrix"),
    );
    let matrices = suite();

    // ---- 1. Cache amortization: cold vs warm per matrix. -----------------
    let mut config = ServeConfig::new(P, CostModel::delta_scaled());
    config.max_k_per_batch = K; // one request per execution here
    let mut service = SpmmService::new(config);
    let mut cache_rows = Vec::new();
    println!("\ncold vs warm (plan cache):");
    println!(
        "  {:<14} {:>14} {:>14} {:>12} {:>12}",
        "matrix", "cold prep ms", "warm prep ms", "cold wall", "warm wall"
    );
    for (name, stripe, a) in &matrices {
        let handle = service.register_matrix(Arc::clone(a), *stripe).unwrap();
        let b = dense(a.cols(), K, 1);

        let wall = Instant::now();
        let cold = service.run_one(SpmmRequest::new(handle, Arc::clone(&b))).unwrap();
        let cold_wall = wall.elapsed().as_secs_f64();

        let wall = Instant::now();
        let warm = service.run_one(SpmmRequest::new(handle, b)).unwrap();
        let warm_wall = wall.elapsed().as_secs_f64();

        assert_eq!(cold.cache_hit, Some(false));
        assert_eq!(warm.cache_hit, Some(true));
        let row = CacheRow {
            matrix: name.to_string(),
            cold_prep_wall_ms: cold.prep_wall_nanos as f64 / 1e6,
            warm_prep_wall_ms: warm.prep_wall_nanos as f64 / 1e6,
            cold_wall_ms: cold_wall * 1e3,
            warm_wall_ms: warm_wall * 1e3,
            sim_seconds_identical: cold.sim_seconds == warm.sim_seconds,
        };
        println!(
            "  {:<14} {:>14.2} {:>14.2} {:>10.1}ms {:>10.1}ms",
            row.matrix,
            row.cold_prep_wall_ms,
            row.warm_prep_wall_ms,
            row.cold_wall_ms,
            row.warm_wall_ms
        );
        assert!(row.sim_seconds_identical, "the cache must not change simulated time");
        cache_rows.push(row);
    }

    // ---- 2. Batched vs solo scheduling. ----------------------------------
    let (batched, batched_service, _) = run_stream(&matrices, None, true);
    let (solo, _, _) = run_stream(&matrices, None, false);
    let makespan_ratio = batched.sim_makespan_seconds / solo.sim_makespan_seconds;
    println!("\nbatched vs solo ({} requests):", batched.requests);
    for (label, s) in [("batched", &batched), ("solo", &solo)] {
        println!(
            "  {label:<8} {} executions; {:.2} req/s wall; sim makespan {:.3}ms; \
             sim latency p50 {:.3}ms p99 {:.3}ms",
            s.executions,
            s.requests_per_second_wall,
            s.sim_makespan_seconds * 1e3,
            s.sim_latency_p50_ms,
            s.sim_latency_p99_ms
        );
    }
    println!("  simulated makespan, batched / solo: {makespan_ratio:.3}");

    // ---- 3. Chaos resilience. --------------------------------------------
    let (_, chaos_service, served) = run_stream(&matrices, Some(FaultPlan::light(77)), true);
    let chaos = ChaosSummary {
        requests: matrices.len() * REQUESTS_PER_MATRIX,
        served,
        retries: chaos_service.metrics().counter("serve.retries"),
        fallbacks: chaos_service.metrics().counter("serve.fallbacks"),
        faults_seeded: true,
    };
    println!(
        "\nchaos (light faults): {}/{} served, {} scheduler retries, {} fallbacks",
        chaos.served, chaos.requests, chaos.retries, chaos.fallbacks
    );
    assert_eq!(chaos.served, chaos.requests, "light faults must be absorbed");

    let results = Results {
        description: "Persistent SpMM serving: plan-cache amortization (cold vs warm), \
                      batched vs solo scheduling, and fault resilience on a warm session"
            .into(),
        host_note: "Wall-clock numbers are informational; the load-bearing deltas are the \
                    simulated-time ratio (host-independent) and the warm-path preprocessing \
                    wall time dropping to zero."
            .into(),
        p: P,
        k: K,
        cache: cache_rows,
        batched,
        solo,
        sim_makespan_batched_over_solo: makespan_ratio,
        chaos,
        cache_stats: batched_service.cache_stats(),
        timeline_events: batched_service.timeline().len(),
    };
    write_json("serve_throughput", &results);
}
