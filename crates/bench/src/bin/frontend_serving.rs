//! Multi-tenant serving under load: the front-end's scheduling quality
//! across tenants × deadlines × fault severities.
//!
//! A deterministic scripted workload drives the inline [`Frontend`] (the
//! replayable mode): a best-effort training tenant with wide panels, an
//! interactive tenant under a tight simulated-latency SLO, and a bursty
//! tenant that overruns its queue quota. The script replays once per fault
//! severity (none, light). Reported per scenario:
//!
//! * admission outcomes (admitted / typed rejections) and the close-reason
//!   mix (K-budget, deadline pressure, aged, flush) — gated, deterministic;
//! * simulated makespan, per-nonzero throughput on the simulated clock, and
//!   per-tenant simulated latency quantiles — gated;
//! * deadline hit rates per tenant — gated;
//! * wall time and queue-depth quantiles — informational (host noise and
//!   sketch vocabulary).
//!
//! Every admitted response is verified bit-identical to a solo run of the
//! same request on an identically configured service, and the whole
//! scripted schedule is worker-count independent — the bit-identity
//! contract extended to the front-end.
//!
//! Writes `results/frontend_serving.json`.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twoface_bench::{banner, write_json};
use twoface_frontend::{
    CloseReason, Frontend, FrontendConfig, FrontendError, FrontendRequest, FrontendResponse,
    TenantQuota,
};
use twoface_matrix::gen::{erdos_renyi, rmat, RmatConfig};
use twoface_matrix::{CooMatrix, DenseMatrix};
use twoface_net::{CostModel, FaultPlan};
use twoface_serve::{MatrixHandle, ServeConfig, SpmmRequest, SpmmService};

const P: usize = 8;
const MAX_K_PER_BATCH: usize = 64;
const ROUNDS: usize = 6;
const TRAIN_K: usize = 16;
const QUERY_K: usize = 8;
/// The interactive tenant's SLO on the simulated clock.
const QUERY_SLO_SIM_SECONDS: f64 = 0.000_1;

fn suite() -> Vec<(&'static str, usize, Arc<CooMatrix>)> {
    vec![
        ("uniform-4k", 32, Arc::new(erdos_renyi(4096, 4096, 60_000, 3))),
        (
            "rmat-s11",
            64,
            Arc::new(rmat(&RmatConfig { scale: 11, edge_factor: 10, ..Default::default() }, 9)),
        ),
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
struct TenantRow {
    tenant: String,
    submitted: u64,
    completed: u64,
    rejected: u64,
    deadline_hits: u64,
    deadline_misses: u64,
    sim_latency_p50_ms: f64,
    sim_latency_p95_ms: f64,
}

#[derive(Serialize)]
struct ScenarioResult {
    fault: String,
    requests_offered: usize,
    admitted: usize,
    rejected_tenant_queue: u64,
    rejected_total: u64,
    executions: u64,
    close_k_budget_full: u64,
    close_deadline_pressure: u64,
    close_aged: u64,
    close_flush: u64,
    sim_makespan_seconds: f64,
    sim_nonzeros_per_second: f64,
    retries: u64,
    fallbacks: u64,
    bit_identical_to_solo: bool,
    tenants: Vec<TenantRow>,
    // Informational: host wall time and the submit-time queue-depth sketch.
    wall_seconds: f64,
    queue_depth_p95: f64,
    timeline_events: usize,
}

/// One deterministic request: who submits what, when.
struct Spec {
    tenant: usize,
    matrix: usize,
    k: usize,
    seed: u64,
    slo: Option<f64>,
}

/// The scripted workload: per round, the trainer offers two wide panels
/// (alternating matrices), the interactive tenant one tight query, and the
/// bursty tenant three requests against a 6-deep queue quota.
fn script() -> Vec<Vec<Spec>> {
    (0..ROUNDS)
        .map(|r| {
            let r64 = r as u64;
            let mut wave = vec![
                Spec { tenant: 0, matrix: r % 2, k: TRAIN_K, seed: 100 + 2 * r64, slo: None },
                Spec { tenant: 0, matrix: (r + 1) % 2, k: TRAIN_K, seed: 101 + 2 * r64, slo: None },
                Spec {
                    tenant: 1,
                    matrix: r % 2,
                    k: QUERY_K,
                    seed: 200 + r64,
                    slo: Some(QUERY_SLO_SIM_SECONDS),
                },
            ];
            for burst in 0..3u64 {
                wave.push(Spec {
                    tenant: 2,
                    matrix: 0,
                    k: QUERY_K,
                    seed: 300 + 3 * r64 + burst,
                    slo: None,
                });
            }
            if r == 1 {
                // A lone extra-wide panel: its group can never fill a
                // chunk before the age bound, so it exercises `Aged`.
                wave.push(Spec { tenant: 0, matrix: 1, k: 32, seed: 400, slo: None });
            }
            wave
        })
        .collect()
}

fn service_config(fault: Option<FaultPlan>) -> ServeConfig {
    let mut config = ServeConfig::new(P, CostModel::delta_scaled());
    config.max_k_per_batch = MAX_K_PER_BATCH;
    config.fault_plan = fault;
    config
}

fn run_scenario(fault_name: &str, fault: Option<FaultPlan>) -> ScenarioResult {
    let matrices = suite();
    let mut service = SpmmService::new(service_config(fault.clone()));
    let handles: Vec<MatrixHandle> = matrices
        .iter()
        .map(|(_, stripe, a)| service.register_matrix(Arc::clone(a), *stripe).unwrap())
        .collect();

    let mut frontend = Frontend::new(
        service,
        FrontendConfig {
            max_queue_depth: 24,
            quantum_k: 16,
            deadline_safety: 1.5,
            max_group_age_polls: Some(4),
            cache_pressure: 2.0, // admission pressure is not under test here
        },
    );
    let tenants = [
        frontend.register_tenant("train", TenantQuota::unlimited()).unwrap(),
        frontend.register_tenant("interactive", TenantQuota::default()).unwrap(),
        frontend
            .register_tenant("burst", TenantQuota { max_queued: 6, max_in_flight_k: 4096 })
            .unwrap(),
    ];

    let wall = Instant::now();
    let mut offered = 0usize;
    let mut admitted: Vec<(u64, Spec)> = Vec::new();
    let mut responses: Vec<FrontendResponse> = Vec::new();
    for wave in script() {
        for spec in wave {
            offered += 1;
            let mut request = FrontendRequest::new(
                handles[spec.matrix],
                dense(matrices[spec.matrix].2.cols(), spec.k, spec.seed),
            );
            if let Some(slo) = spec.slo {
                request = request.with_slo(slo);
            }
            match frontend.submit(tenants[spec.tenant], request) {
                Ok(job) => admitted.push((job.id(), spec)),
                Err(FrontendError::Rejected { .. }) => {}
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        responses.extend(frontend.poll());
    }
    responses.extend(frontend.drain());
    let wall_seconds = wall.elapsed().as_secs_f64();
    assert_eq!(responses.len(), admitted.len(), "every admitted request is answered");

    // Bit-identity vs solo: replay each admitted request alone on an
    // identically configured service.
    let mut solo = SpmmService::new(service_config(fault));
    let solo_handles: Vec<MatrixHandle> = matrices
        .iter()
        .map(|(_, stripe, a)| solo.register_matrix(Arc::clone(a), *stripe).unwrap())
        .collect();
    let mut bit_identical = true;
    let mut total_nonzeros = 0u64;
    for (job, spec) in &admitted {
        let reference = solo
            .run_one(SpmmRequest::new(
                solo_handles[spec.matrix],
                dense(matrices[spec.matrix].2.cols(), spec.k, spec.seed),
            ))
            .unwrap()
            .output
            .unwrap();
        let response = responses.iter().find(|r| r.job.id() == *job).unwrap();
        bit_identical &= response.output.as_ref().unwrap().as_slice() == reference.as_slice();
        total_nonzeros += matrices[spec.matrix].2.nnz() as u64;
    }
    assert!(bit_identical, "front-end scheduling must never change output bits");

    let close_count = |reason: CloseReason| {
        frontend.metrics().counter(&format!("frontend.close.{}", reason.label()))
    };
    let sim_makespan = frontend.service().sim_seconds();
    let tenant_rows = frontend
        .tenants()
        .into_iter()
        .map(|name| {
            let digest = frontend.tenant_digest(&name).unwrap();
            let mut latencies: Vec<f64> = responses
                .iter()
                .filter(|r| r.tenant == name)
                .map(|r| r.latency_sim_seconds())
                .collect();
            latencies.sort_by(f64::total_cmp);
            TenantRow {
                tenant: name,
                submitted: digest.submitted,
                completed: digest.completed,
                rejected: digest.rejected,
                deadline_hits: digest.deadline_hits,
                deadline_misses: digest.deadline_misses,
                sim_latency_p50_ms: percentile(&latencies, 0.50) * 1e3,
                sim_latency_p95_ms: percentile(&latencies, 0.95) * 1e3,
            }
        })
        .collect();

    ScenarioResult {
        fault: fault_name.to_string(),
        requests_offered: offered,
        admitted: admitted.len(),
        rejected_tenant_queue: frontend.metrics().counter("frontend.rejected.tenant_queue"),
        rejected_total: frontend.metrics().counter("frontend.rejected"),
        executions: frontend.metrics().counter("frontend.executions"),
        close_k_budget_full: close_count(CloseReason::KBudgetFull),
        close_deadline_pressure: close_count(CloseReason::DeadlinePressure),
        close_aged: close_count(CloseReason::Aged),
        close_flush: close_count(CloseReason::Flush),
        sim_makespan_seconds: sim_makespan,
        sim_nonzeros_per_second: total_nonzeros as f64 / sim_makespan,
        retries: frontend.service().metrics().counter("serve.retries"),
        fallbacks: frontend.service().metrics().counter("serve.fallbacks"),
        bit_identical_to_solo: bit_identical,
        tenants: tenant_rows,
        wall_seconds,
        queue_depth_p95: frontend
            .metrics()
            .histogram("frontend.queue_depth")
            .and_then(|h| h.quantile(0.95))
            .unwrap_or(0.0),
        timeline_events: frontend.timeline().len(),
    }
}

#[derive(Serialize)]
struct Results {
    description: String,
    host_note: String,
    p: usize,
    max_k_per_batch: usize,
    rounds: usize,
    query_slo_sim_seconds: f64,
    scenarios: Vec<ScenarioResult>,
}

fn main() {
    banner(
        "frontend_serving: multi-tenant deadline-aware serving",
        &format!("{P} ranks, {ROUNDS} rounds, 3 tenants, fault severities none/light"),
    );

    let mut scenarios = Vec::new();
    for (name, fault) in [("none", None), ("light", Some(FaultPlan::light(77)))] {
        let scenario = run_scenario(name, fault);
        println!(
            "\nfaults {:<6} {} offered, {} admitted, {} rejected; \
             closes: {} k-budget / {} deadline / {} aged / {} flush; \
             sim makespan {:.3}ms ({:.2e} nnz/s); {} retries, {} fallbacks",
            scenario.fault,
            scenario.requests_offered,
            scenario.admitted,
            scenario.rejected_total,
            scenario.close_k_budget_full,
            scenario.close_deadline_pressure,
            scenario.close_aged,
            scenario.close_flush,
            scenario.sim_makespan_seconds * 1e3,
            scenario.sim_nonzeros_per_second,
            scenario.retries,
            scenario.fallbacks,
        );
        for t in &scenario.tenants {
            println!(
                "  {:<12} {:>2} completed / {:>2} submitted ({} rejected); \
                 sim latency p50 {:.3}ms p95 {:.3}ms; deadlines {}/{}",
                t.tenant,
                t.completed,
                t.submitted,
                t.rejected,
                t.sim_latency_p50_ms,
                t.sim_latency_p95_ms,
                t.deadline_hits,
                t.deadline_hits + t.deadline_misses,
            );
        }
        scenarios.push(scenario);
    }

    let results = Results {
        description: "Multi-tenant front-end serving: admission outcomes, close-reason mix, \
                      deadline hit rates, and simulated throughput across fault severities, \
                      with every response verified bit-identical to a solo run"
            .into(),
        host_note: "Wall seconds and queue-depth quantiles are informational; everything else \
                    derives from the simulated clock and the deterministic inline scheduler, \
                    so it is host-independent and gated."
            .into(),
        p: P,
        max_k_per_batch: MAX_K_PER_BATCH,
        rounds: ROUNDS,
        query_slo_sim_seconds: QUERY_SLO_SIM_SECONDS,
        scenarios,
    };
    write_json("frontend_serving", &results);
}
