//! Integration tests of the multi-tenant serving front-end: the admission
//! ladder's typed rejections, deadline-aware batch formation, deficit-
//! round-robin fairness, the threaded scheduler, and the chaos acceptance
//! scenario (bit-identity vs solo runs, deterministic across worker
//! counts).

use std::error::Error;
use std::sync::Arc;

use twoface_core::Algorithm;
use twoface_frontend::{
    AsyncFrontend, CloseReason, Frontend, FrontendConfig, FrontendError, FrontendPhase,
    FrontendRequest, FrontendResponse, RejectReason, TenantQuota,
};
use twoface_matrix::gen::erdos_renyi;
use twoface_matrix::DenseMatrix;
use twoface_net::{CostModel, FaultPlan, PhaseClass};
use twoface_serve::{
    MatrixHandle, ServeConfig, ServeError, SessionPhase, SpmmRequest, SpmmService,
};

const N: usize = 256;
const P: usize = 4;
const STRIPE: usize = 16;

fn matrix(seed: u64) -> Arc<twoface_matrix::CooMatrix> {
    Arc::new(erdos_renyi(N, N, 6_000, seed))
}

fn dense(k: usize, seed: u64) -> Arc<DenseMatrix> {
    Arc::new(DenseMatrix::from_fn(N, k, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(seed.wrapping_mul(2) | 1));
        let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8FEB86659FD93);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }))
}

fn config() -> ServeConfig {
    ServeConfig::new(P, CostModel::delta_scaled())
}

/// A service with one registered matrix and a `max_k_per_batch` of
/// `max_k`, plus the handle.
fn service_with(max_k: usize, seed: u64) -> (SpmmService, MatrixHandle) {
    let mut cfg = config();
    cfg.max_k_per_batch = max_k;
    let mut service = SpmmService::new(cfg);
    let a = service.register_matrix(matrix(seed), STRIPE).unwrap();
    (service, a)
}

// ---------------------------------------------------------------------------
// Admission ladder: every rung rejects with its typed reason.
// ---------------------------------------------------------------------------

#[test]
fn global_queue_depth_rejections_are_typed() {
    let (service, a) = service_with(512, 1);
    let mut fe =
        Frontend::new(service, FrontendConfig { max_queue_depth: 4, ..FrontendConfig::default() });
    let t = fe.register_tenant("alpha", TenantQuota::unlimited()).unwrap();

    for seed in 0..4 {
        fe.submit(t, FrontendRequest::new(a, dense(8, seed))).unwrap();
    }
    let err = fe.submit(t, FrontendRequest::new(a, dense(8, 9))).unwrap_err();
    match err {
        FrontendError::Rejected { tenant, reason: RejectReason::QueueDepth { depth, limit } } => {
            assert_eq!((tenant.as_str(), depth, limit), ("alpha", 4, 4));
        }
        other => panic!("expected a QueueDepth rejection, got {other:?}"),
    }
    assert_eq!(fe.metrics().counter("frontend.rejected.queue_depth"), 1);
    assert!(
        fe.timeline()
            .iter()
            .any(|e| e.phase == FrontendPhase::Reject && e.class == PhaseClass::Recovery),
        "rejections join the timeline tagged as Recovery"
    );

    // The queue drains, so the same submission is admissible again.
    assert_eq!(fe.drain().len(), 4);
    fe.submit(t, FrontendRequest::new(a, dense(8, 9))).unwrap();
}

#[test]
fn tenant_queue_cap_rejections_are_typed_and_per_tenant() {
    let (service, a) = service_with(512, 1);
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let capped = fe
        .register_tenant("capped", TenantQuota { max_queued: 2, max_in_flight_k: usize::MAX })
        .unwrap();
    let roomy = fe.register_tenant("roomy", TenantQuota::default()).unwrap();

    fe.submit(capped, FrontendRequest::new(a, dense(8, 0))).unwrap();
    fe.submit(capped, FrontendRequest::new(a, dense(8, 1))).unwrap();
    let err = fe.submit(capped, FrontendRequest::new(a, dense(8, 2))).unwrap_err();
    assert!(
        matches!(
            err,
            FrontendError::Rejected {
                reason: RejectReason::TenantQueue { queued: 2, limit: 2 },
                ..
            }
        ),
        "got {err:?}"
    );
    // The cap is the tenant's own: another tenant is unaffected.
    fe.submit(roomy, FrontendRequest::new(a, dense(8, 3))).unwrap();

    assert_eq!(fe.metrics().counter_labeled("frontend.rejected", ("tenant", "capped")), 1);
    assert_eq!(fe.metrics().counter_labeled("frontend.rejected", ("tenant", "roomy")), 0);

    // Draining frees the quota.
    fe.drain();
    fe.submit(capped, FrontendRequest::new(a, dense(8, 2))).unwrap();
}

#[test]
fn tenant_k_budget_rejections_recover_after_completion() {
    let (service, a) = service_with(512, 1);
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let t = fe
        .register_tenant("alpha", TenantQuota { max_queued: usize::MAX, max_in_flight_k: 16 })
        .unwrap();

    fe.submit(t, FrontendRequest::new(a, dense(8, 0))).unwrap();
    fe.submit(t, FrontendRequest::new(a, dense(8, 1))).unwrap();
    let err = fe.submit(t, FrontendRequest::new(a, dense(8, 2))).unwrap_err();
    match err {
        FrontendError::Rejected {
            reason: RejectReason::TenantKBudget { in_flight_k, requested_k, limit },
            ..
        } => assert_eq!((in_flight_k, requested_k, limit), (16, 8, 16)),
        other => panic!("expected a TenantKBudget rejection, got {other:?}"),
    }

    // Completion releases the columns; admission succeeds again.
    assert_eq!(fe.drain().len(), 2);
    fe.submit(t, FrontendRequest::new(a, dense(8, 2))).unwrap();
}

#[test]
fn plan_cache_pressure_spares_already_served_keys() {
    let (service, a) = service_with(512, 1);
    let budget = service.config().cache_budget_bytes;
    // A vanishingly small watermark: pressure engages as soon as any
    // artifact is resident, so the rung's behavior is observable without
    // hand-tuning artifact sizes.
    let mut fe = Frontend::new(
        service,
        FrontendConfig { cache_pressure: 1e-12, ..FrontendConfig::default() },
    );
    let t = fe.register_tenant("alpha", TenantQuota::unlimited()).unwrap();

    // Empty cache: below the watermark, a plan-building request admits.
    fe.submit(t, FrontendRequest::new(a, dense(16, 0))).unwrap();
    assert_eq!(fe.drain().len(), 1);
    assert!(fe.service().cache_stats().bytes > 0, "the artifact is resident");

    // Same key again: pressured, but the artifact already exists.
    fe.submit(t, FrontendRequest::new(a, dense(16, 1))).unwrap();

    // A novel plan-building key is refused with the typed reason...
    let err = fe.submit(t, FrontendRequest::new(a, dense(8, 2))).unwrap_err();
    match err {
        FrontendError::Rejected {
            reason: RejectReason::PlanCachePressure { cache_bytes, budget_bytes },
            ..
        } => {
            assert!(cache_bytes > 0);
            assert_eq!(budget_bytes, budget);
        }
        other => panic!("expected a PlanCachePressure rejection, got {other:?}"),
    }
    // ...and Auto counts as plan-building (it may resolve to a planned
    // algorithm), while a plan-less algorithm sails through.
    let auto = fe
        .submit(t, FrontendRequest::new(a, dense(8, 3)).with_algorithm(Algorithm::Auto))
        .unwrap_err();
    assert!(matches!(
        auto,
        FrontendError::Rejected { reason: RejectReason::PlanCachePressure { .. }, .. }
    ));
    fe.submit(t, FrontendRequest::new(a, dense(8, 4)).with_algorithm(Algorithm::Allgather))
        .unwrap();
}

#[test]
fn begin_drain_rejects_new_work_but_completes_queued() {
    let (service, a) = service_with(512, 1);
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let t = fe.register_tenant("alpha", TenantQuota::default()).unwrap();

    fe.submit(t, FrontendRequest::new(a, dense(8, 0))).unwrap();
    fe.begin_drain();
    let err = fe.submit(t, FrontendRequest::new(a, dense(8, 1))).unwrap_err();
    assert!(
        matches!(err, FrontendError::Rejected { reason: RejectReason::Draining, .. }),
        "got {err:?}"
    );

    let responses = fe.drain();
    assert_eq!(responses.len(), 1, "queued work still completes during the drain");
    assert!(responses[0].output.is_ok());
}

#[test]
fn invalid_requests_are_errors_not_backpressure() {
    let (service, a) = service_with(512, 1);

    // A handle from a different service (with more matrices) is unknown
    // here.
    let mut other = SpmmService::new(config());
    other.register_matrix(matrix(2), STRIPE).unwrap();
    let foreign = other.register_matrix(matrix(3), STRIPE).unwrap();

    let mut fe = Frontend::new(service, FrontendConfig::default());
    let t = fe.register_tenant("alpha", TenantQuota::default()).unwrap();

    let err = fe.submit(t, FrontendRequest::new(foreign, dense(8, 0))).unwrap_err();
    match &err {
        FrontendError::Invalid { source: ServeError::UnknownMatrix { handle } } => {
            assert_eq!(*handle, foreign.id());
        }
        other => panic!("expected Invalid(UnknownMatrix), got {other:?}"),
    }
    assert!(err.source().is_some(), "Invalid chains to the serving error");

    let wrong_rows = Arc::new(DenseMatrix::from_fn(N / 2, 8, |i, j| (i + j) as f64));
    let err = fe.submit(t, FrontendRequest::new(a, wrong_rows)).unwrap_err();
    assert!(
        matches!(&err, FrontendError::Invalid { source: ServeError::Shape { .. } }),
        "got {err:?}"
    );

    // Neither malformed request consumed quota or counted as a rejection.
    assert_eq!(fe.metrics().counter("frontend.rejected"), 0);
    assert_eq!(fe.pending(), 0);
}

/// SLOs that name no deadline: NaN, negative, and both infinities.
const BAD_SLOS: [f64; 4] = [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY];

fn assert_invalid_slo(err: Option<FrontendError>, slo: f64) {
    match err {
        Some(FrontendError::InvalidSlo { slo_sim_seconds }) => {
            assert_eq!(slo_sim_seconds.to_bits(), slo.to_bits());
        }
        other => panic!("SLO {slo}: expected InvalidSlo, got {other:?}"),
    }
}

#[test]
fn non_finite_or_negative_slos_are_typed_errors() {
    let (service, a) = service_with(512, 1);
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let t = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    for slo in BAD_SLOS {
        let request = FrontendRequest::new(a, dense(8, 0)).with_slo(slo);
        assert_invalid_slo(fe.submit(t, request).err(), slo);
        // Nothing was queued, counted, or charged to the tenant.
        assert_eq!(fe.pending(), 0);
        assert_eq!(fe.metrics().counter("frontend.submitted"), 0);
        assert_eq!(fe.metrics().counter("frontend.rejected"), 0);
    }

    let (service, a) = service_with(512, 1);
    let fe = AsyncFrontend::spawn(service, FrontendConfig::default());
    let handle = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    for slo in BAD_SLOS {
        let request = FrontendRequest::new(a, dense(8, 0)).with_slo(slo);
        assert_invalid_slo(handle.submit(request).err(), slo);
    }
    let drained = fe.shutdown();
    assert_eq!(drained.pending(), 0);
    assert_eq!(drained.metrics().counter("frontend.submitted"), 0);
}

// ---------------------------------------------------------------------------
// Error type coverage (Display + source), RunError-precedent style.
// ---------------------------------------------------------------------------

#[test]
fn frontend_error_display_and_source_cover_every_variant() {
    let reasons: Vec<(RejectReason, &str)> = vec![
        (RejectReason::QueueDepth { depth: 4, limit: 4 }, "queue_depth"),
        (RejectReason::TenantQueue { queued: 2, limit: 2 }, "tenant_queue"),
        (
            RejectReason::TenantKBudget { in_flight_k: 16, requested_k: 8, limit: 16 },
            "tenant_k_budget",
        ),
        (
            RejectReason::PlanCachePressure { cache_bytes: 10, budget_bytes: 100 },
            "plan_cache_pressure",
        ),
        (RejectReason::Draining, "draining"),
    ];
    for (reason, label) in reasons {
        assert_eq!(reason.label(), label);
        assert!(!reason.to_string().is_empty());
        let err = FrontendError::Rejected { tenant: "alpha".into(), reason };
        let text = err.to_string();
        assert!(text.contains("alpha") && text.contains("rejected"), "{text}");
        assert!(err.source().is_none(), "backpressure has no source chain");
    }

    let err = FrontendError::UnknownTenant { name: "ghost".into() };
    assert!(err.to_string().contains("ghost"));
    assert!(err.source().is_none());

    let err = FrontendError::TenantExists { name: "alpha".into() };
    assert!(err.to_string().contains("already registered"));
    assert!(err.source().is_none());

    let err = FrontendError::Invalid { source: ServeError::UnknownMatrix { handle: 7 } };
    assert!(err.to_string().contains("invalid request"));
    let source = err.source().expect("Invalid exposes its ServeError");
    assert!(source.to_string().contains("handle 7"));

    let err = FrontendError::InvalidSlo { slo_sim_seconds: -1.0 };
    let text = err.to_string();
    assert!(text.contains("invalid request") && text.contains("SLO -1"), "{text}");
    assert!(err.source().is_none());

    let err = FrontendError::Disconnected;
    assert!(err.to_string().contains("scheduler"));
    assert!(err.source().is_none());
}

// ---------------------------------------------------------------------------
// Batch formation: deadlines, aging, K budget, fairness.
// ---------------------------------------------------------------------------

#[test]
fn deadline_pressure_closes_a_group_early() {
    let (service, a) = service_with(512, 1); // per_batch = 64 at k = 8
    let mut fe = Frontend::new(
        service,
        FrontendConfig { max_group_age_polls: None, ..FrontendConfig::default() },
    );
    let batch_tenant = fe.register_tenant("batch", TenantQuota::default()).unwrap();
    let urgent = fe.register_tenant("urgent", TenantQuota::default()).unwrap();

    for seed in 0..3 {
        fe.submit(batch_tenant, FrontendRequest::new(a, dense(8, seed))).unwrap();
    }
    assert!(fe.poll().is_empty(), "a quarter-full, deadline-less group keeps waiting");

    // One urgent member puts the whole group under deadline pressure.
    fe.submit(urgent, FrontendRequest::new(a, dense(8, 9)).with_slo(0.0)).unwrap();
    let responses = fe.poll();
    assert_eq!(responses.len(), 4, "the early close takes the whole group");
    for r in &responses {
        assert_eq!(r.close_reason, CloseReason::DeadlinePressure);
        assert_eq!(r.batch_size, 4);
        assert!(r.output.is_ok());
    }
    assert!(
        responses.iter().all(|r| r.batch_size * 8 < 512),
        "the batch closed well short of the K budget"
    );
    let close = fe
        .timeline()
        .iter()
        .find(|e| e.phase == FrontendPhase::Close)
        .expect("the close is on the timeline");
    assert!(
        close.detail.starts_with("deadline_pressure"),
        "close detail names the reason: {}",
        close.detail
    );
    assert_eq!(fe.metrics().counter("frontend.close.deadline_pressure"), 1);
}

#[test]
fn deadline_less_groups_wait_for_the_flush() {
    let (service, a) = service_with(512, 1);
    let mut fe = Frontend::new(
        service,
        FrontendConfig { max_group_age_polls: None, ..FrontendConfig::default() },
    );
    let t = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    for seed in 0..3 {
        fe.submit(t, FrontendRequest::new(a, dense(8, seed))).unwrap();
    }

    for _ in 0..5 {
        assert!(fe.poll().is_empty(), "best-effort groups never close early");
    }
    assert_eq!(fe.pending(), 3);

    let responses = fe.drain();
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(|r| r.close_reason == CloseReason::Flush));
    assert!(
        fe.timeline()
            .iter()
            .all(|e| e.phase != FrontendPhase::Close || e.detail.starts_with("flush")),
        "the only close is the flush"
    );
}

#[test]
fn aged_groups_close_after_the_configured_polls() {
    let (service, a) = service_with(512, 1);
    let mut fe = Frontend::new(
        service,
        FrontendConfig { max_group_age_polls: Some(3), ..FrontendConfig::default() },
    );
    let t = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    fe.submit(t, FrontendRequest::new(a, dense(8, 0))).unwrap();

    assert!(fe.poll().is_empty());
    assert!(fe.poll().is_empty());
    let responses = fe.poll();
    assert_eq!(responses.len(), 1, "the lone request ages out on the third poll");
    assert_eq!(responses[0].close_reason, CloseReason::Aged);
    assert_eq!(responses[0].batch_size, 1);
    assert_eq!(fe.metrics().counter("frontend.close.aged"), 1);
}

#[test]
fn k_budget_full_emits_only_full_chunks() {
    let (service, a) = service_with(32, 1); // per_batch = 4 at k = 8
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let t = fe.register_tenant("alpha", TenantQuota::unlimited()).unwrap();
    let jobs: Vec<u64> =
        (0..6).map(|s| fe.submit(t, FrontendRequest::new(a, dense(8, s))).unwrap().id()).collect();

    let responses = fe.poll();
    assert_eq!(responses.len(), 4, "only the full chunk executes");
    assert!(responses
        .iter()
        .all(|r| r.close_reason == CloseReason::KBudgetFull && r.batch_size == 4));
    let served: Vec<u64> = responses.iter().map(|r| r.job.id()).collect();
    assert_eq!(served, jobs[..4], "a single tenant's DRR order is FIFO");
    assert_eq!(fe.pending(), 2, "the partial tail re-queues");

    let tail = fe.drain();
    assert_eq!(tail.len(), 2);
    assert!(tail.iter().all(|r| r.close_reason == CloseReason::Flush));
    let tail_jobs: Vec<u64> = tail.iter().map(|r| r.job.id()).collect();
    assert_eq!(tail_jobs, jobs[4..]);
}

#[test]
fn drr_gives_a_lone_tenant_a_slot_in_the_first_batch() {
    let (service, a) = service_with(32, 1); // per_batch = 4 at k = 8
    let mut fe =
        Frontend::new(service, FrontendConfig { quantum_k: 8, ..FrontendConfig::default() });
    let flooder = fe.register_tenant("flooder", TenantQuota::unlimited()).unwrap();
    let quiet = fe.register_tenant("quiet", TenantQuota::default()).unwrap();

    for seed in 0..7 {
        fe.submit(flooder, FrontendRequest::new(a, dense(8, seed))).unwrap();
    }
    // The quiet tenant arrives last, behind seven queued requests.
    let quiet_job = fe.submit(quiet, FrontendRequest::new(a, dense(8, 70))).unwrap();

    let responses = fe.poll();
    assert_eq!(responses.len(), 8, "two full chunks leave together");
    let first_close = fe
        .timeline()
        .iter()
        .find(|e| e.phase == FrontendPhase::Close)
        .expect("closes are on the timeline");
    assert!(
        first_close.jobs.contains(&quiet_job.id()),
        "deficit round robin seats the quiet tenant in the FIRST chunk \
         despite arriving last (chunk jobs: {:?})",
        first_close.jobs
    );
    let quiet_response = responses.iter().find(|r| r.job == quiet_job).unwrap();
    assert_eq!(quiet_response.tenant, "quiet");
    assert_eq!(quiet_response.batch_size, 4);
}

/// A batch that fails records no service Execute event, so its front-end
/// Execute event is tagged Recovery — not with the class of whichever
/// batch executed before it.
#[test]
fn a_failed_batch_is_tagged_recovery_on_the_timeline() {
    let mut cfg = config();
    // Allgather issues no one-sided gets, so it completes; Async Fine is
    // all gets and, with no retry and no fallback, fails.
    cfg.fault_plan = Some(FaultPlan::seeded(3).with_get_failure_rate(1.0));
    cfg.retry_budget = 0;
    cfg.fallback = false;
    let mut service = SpmmService::new(cfg);
    let a = service.register_matrix(matrix(1), STRIPE).unwrap();
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let t = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    let execute_class = |fe: &Frontend| {
        let execute = fe.timeline().iter().rfind(|e| e.phase == FrontendPhase::Execute);
        execute.expect("the batch executed").class
    };

    let request = FrontendRequest::new(a, dense(8, 0)).with_algorithm(Algorithm::Allgather);
    fe.submit(t, request).unwrap();
    assert!(fe.drain()[0].output.is_ok());
    let served = fe.service().timeline().iter().rfind(|e| e.phase == SessionPhase::Execute);
    let served_class = served.expect("the service executed the batch").class;
    assert_ne!(served_class, PhaseClass::Recovery);
    assert_eq!(execute_class(&fe), served_class);

    let request = FrontendRequest::new(a, dense(8, 1)).with_algorithm(Algorithm::AsyncFine);
    fe.submit(t, request).unwrap();
    let failed = fe.drain();
    assert!(matches!(failed[0].output, Err(ServeError::Run { .. })), "{:?}", failed[0].output);
    assert_eq!(execute_class(&fe), PhaseClass::Recovery);
}

// ---------------------------------------------------------------------------
// Threaded mode: producers on caller threads, graceful shutdown.
// ---------------------------------------------------------------------------

#[test]
fn threaded_frontend_resolves_every_ticket_bit_identically() {
    const PER_TENANT: u64 = 8;

    // Solo reference outputs, one request at a time on a plain service.
    let mut solo = SpmmService::new(config());
    let sh = solo.register_matrix(matrix(5), STRIPE).unwrap();
    let mut expected = std::collections::HashMap::new();
    for seed in 0..(2 * PER_TENANT) {
        let out = solo.run_one(SpmmRequest::new(sh, dense(8, 100 + seed))).unwrap().output.unwrap();
        expected.insert(100 + seed, out);
    }

    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(5), STRIPE).unwrap();
    let fe = AsyncFrontend::spawn(service, FrontendConfig::default());
    let train = fe.register_tenant("train", TenantQuota::default()).unwrap();
    let infer = fe.register_tenant("infer", TenantQuota::default()).unwrap();

    let producers: Vec<_> = [(train, 100u64), (infer, 100 + PER_TENANT)]
        .into_iter()
        .map(|(handle, base)| {
            std::thread::spawn(move || {
                (0..PER_TENANT)
                    .map(|i| {
                        let seed = base + i;
                        let request = FrontendRequest::new(a, dense(8, seed)).with_slo(10.0);
                        (seed, handle.submit(request).expect("admitted"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let tickets: Vec<_> =
        producers.into_iter().flat_map(|p| p.join().expect("producer thread")).collect();

    // Shut down with tickets outstanding: the drain completes every queued
    // batch and resolves every ticket before the scheduler exits.
    let drained = fe.shutdown();
    for (seed, ticket) in tickets {
        let response = ticket.wait().expect("graceful shutdown answers every ticket");
        assert_eq!(
            response.output.unwrap().as_slice(),
            expected[&seed].as_slice(),
            "threaded response must match the solo run bitwise (seed {seed})"
        );
    }

    let train_digest = drained.tenant_digest("train").unwrap();
    let infer_digest = drained.tenant_digest("infer").unwrap();
    assert_eq!(train_digest.completed, PER_TENANT);
    assert_eq!(infer_digest.completed, PER_TENANT);
    assert_eq!(drained.metrics().counter("frontend.completed"), 2 * PER_TENANT);
    assert_eq!(drained.pending(), 0);
}

#[test]
fn handles_outlive_shutdown_as_disconnected() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(5), STRIPE).unwrap();
    let fe = AsyncFrontend::spawn(service, FrontendConfig::default());
    let handle = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    let spare = handle.clone();

    handle.run(FrontendRequest::new(a, dense(8, 0))).unwrap().output.unwrap();
    let _drained = fe.shutdown();

    match spare.submit(FrontendRequest::new(a, dense(8, 1))) {
        Err(FrontendError::Disconnected) => {}
        Err(other) => panic!("expected Disconnected, got {other:?}"),
        Ok(_) => panic!("a handle must not submit past shutdown"),
    }
}

// ---------------------------------------------------------------------------
// The acceptance scenario: >= 4 tenants, mixed deadlines, chaos faults,
// quota backpressure — bit-identical to solo, deterministic across worker
// counts.
// ---------------------------------------------------------------------------

/// Everything observable about one scenario run, for cross-worker-count
/// equality.
struct ScenarioOutcome {
    /// `(job, tenant, close reason, batch size, output bits)` per response,
    /// in completion order.
    responses: Vec<(u64, String, &'static str, usize, Vec<u64>)>,
    rejections: Vec<String>,
    timeline: String,
    counters: Vec<(String, u64)>,
    /// Executions the service ran (`serve.batches`).
    serve_batches: u64,
    /// Batches the timeline shows closing early under deadline pressure.
    deadline_closes: usize,
}

fn chaos_scenario(workers: usize) -> ScenarioOutcome {
    let mut cfg = config();
    cfg.max_k_per_batch = 64; // per_batch = 8 at k = 8
    cfg.fault_plan = Some(FaultPlan::light(99));
    cfg.workers = Some(workers);
    let mut service = SpmmService::new(cfg);
    let m1 = service.register_matrix(matrix(21), STRIPE).unwrap();
    let m2 = service.register_matrix(matrix(22), STRIPE).unwrap();

    let mut fe = Frontend::new(
        service,
        FrontendConfig {
            max_queue_depth: 16,
            quantum_k: 8,
            deadline_safety: 1.5,
            max_group_age_polls: Some(4),
            // Never pressure-reject here; the rung has its own test.
            cache_pressure: 2.0,
        },
    );
    let alpha = fe.register_tenant("alpha", TenantQuota::default()).unwrap(); // tight SLOs
    let bravo = fe.register_tenant("bravo", TenantQuota::default()).unwrap(); // loose SLOs
    let charlie = fe.register_tenant("charlie", TenantQuota::default()).unwrap(); // best effort
    let delta =
        fe // flooder with a tiny queue quota
            .register_tenant("delta", TenantQuota { max_queued: 2, max_in_flight_k: 4096 })
            .unwrap();

    let mut responses: Vec<FrontendResponse> = Vec::new();
    let mut rejections: Vec<String> = Vec::new();

    // Wave 1: a slow-building best-effort/loose group — nothing closes.
    fe.submit(charlie, FrontendRequest::new(m1, dense(8, 10))).unwrap();
    fe.submit(charlie, FrontendRequest::new(m1, dense(8, 11))).unwrap();
    fe.submit(bravo, FrontendRequest::new(m1, dense(8, 12)).with_slo(50.0)).unwrap();
    responses.extend(fe.poll());

    // Wave 2: the flooder overruns its queue quota — typed backpressure.
    for seed in [20, 21, 22, 23] {
        match fe.submit(delta, FrontendRequest::new(m2, dense(8, seed))) {
            Ok(_) => {}
            Err(e @ FrontendError::Rejected { .. }) => rejections.push(e.to_string()),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    // Wave 3: urgent arrivals put both groups under deadline pressure.
    fe.submit(alpha, FrontendRequest::new(m1, dense(8, 30)).with_slo(0.0)).unwrap();
    responses.extend(fe.poll());
    fe.submit(alpha, FrontendRequest::new(m2, dense(8, 31)).with_slo(0.0)).unwrap();
    responses.extend(fe.poll());

    // Wave 4: a lone best-effort pair ages out.
    fe.submit(charlie, FrontendRequest::new(m1, dense(16, 40))).unwrap();
    fe.submit(charlie, FrontendRequest::new(m1, dense(16, 41))).unwrap();
    for _ in 0..5 {
        responses.extend(fe.poll());
    }

    // Wave 5: the loose tenant fills a whole chunk — K-budget close.
    for seed in 50..58 {
        fe.submit(bravo, FrontendRequest::new(m1, dense(8, seed)).with_slo(50.0)).unwrap();
    }
    responses.extend(fe.poll());

    // Wave 6: one straggler rides the shutdown flush. After `begin_drain`,
    // fresh submissions bounce with the Draining reason.
    fe.submit(charlie, FrontendRequest::new(m2, dense(16, 60))).unwrap();
    fe.begin_drain();
    match fe.submit(charlie, FrontendRequest::new(m2, dense(16, 61))) {
        Err(e @ FrontendError::Rejected { reason: RejectReason::Draining, .. }) => {
            rejections.push(e.to_string());
        }
        other => panic!("expected a Draining rejection, got {other:?}"),
    }
    responses.extend(fe.drain());
    assert_eq!(fe.pending(), 0);

    let mut counters: Vec<(String, u64)> =
        fe.metrics().counters().map(|(k, v)| (k.to_string(), v)).collect();
    counters.sort();
    let deadline_closes = fe
        .timeline()
        .iter()
        .filter(|e| e.phase == FrontendPhase::Close && e.detail.starts_with("deadline_pressure"))
        .count();
    ScenarioOutcome {
        responses: responses
            .iter()
            .map(|r| {
                (
                    r.job.id(),
                    r.tenant.clone(),
                    r.close_reason.label(),
                    r.batch_size,
                    r.output
                        .as_ref()
                        .expect("chaos recovers every admitted request")
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect(),
                )
            })
            .collect(),
        rejections,
        timeline: fe.timeline_jsonl(),
        counters,
        serve_batches: fe.service().metrics().counter("serve.batches"),
        deadline_closes,
    }
}

#[test]
fn chaos_multi_tenant_scenario_meets_the_acceptance_contract() {
    let outcome = chaos_scenario(1);

    // Solo reference: the same requests, one at a time, on a service with
    // the same configuration (same fault plan) — the frontend's responses
    // must be bitwise equal for every admitted request.
    let mut cfg = config();
    cfg.max_k_per_batch = 64;
    cfg.fault_plan = Some(FaultPlan::light(99));
    cfg.workers = Some(1);
    let mut solo = SpmmService::new(cfg);
    let m1 = solo.register_matrix(matrix(21), STRIPE).unwrap();
    let m2 = solo.register_matrix(matrix(22), STRIPE).unwrap();
    let request_of = |seed: u64| -> (MatrixHandle, usize) {
        match seed {
            10 | 11 | 12 | 30 => (m1, 8),
            20 | 21 | 31 => (m2, 8), // delta's admitted pair + alpha's m2 probe
            40 | 41 => (m1, 16),
            50..=57 => (m1, 8),
            60 => (m2, 16),
            _ => unreachable!("unknown scenario seed {seed}"),
        }
    };
    // Job ids are dense in admission order; rebuild the admission sequence
    // of seeds (rejected submissions get no job id).
    let admitted: Vec<u64> =
        vec![10, 11, 12, 20, 21, 30, 31, 40, 41, 50, 51, 52, 53, 54, 55, 56, 57, 60];
    assert_eq!(outcome.responses.len(), admitted.len(), "every admitted request answered");
    for (job, seed) in admitted.iter().enumerate() {
        let (handle, k) = request_of(*seed);
        let reference =
            solo.run_one(SpmmRequest::new(handle, dense(k, *seed))).unwrap().output.unwrap();
        let (_, tenant, _, _, bits) = outcome
            .responses
            .iter()
            .find(|(j, ..)| *j == job as u64)
            .expect("response for every job");
        let reference_bits: Vec<u64> = reference.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, &reference_bits,
            "job {job} (tenant {tenant}, seed {seed}) must match its solo run bitwise"
        );
    }

    // One service execution per closed batch: the service runs each batch
    // as the front-end formed it.
    let executions = outcome.counters.iter().find(|(k, _)| k == "frontend.executions");
    assert_eq!(executions.map(|(_, v)| *v), Some(outcome.serve_batches));

    // At least one batch demonstrably closed early under deadline pressure,
    // asserted from the timeline (and the whole timeline stays valid JSONL).
    assert!(
        outcome.deadline_closes >= 2,
        "both urgent waves closed early (saw {})",
        outcome.deadline_closes
    );
    for line in outcome.timeline.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("timeline line parses");
        assert!(v.get("seq").is_some() && v.get("detail").is_some());
    }

    // Typed backpressure fired: the flooder's quota and the drain.
    assert!(
        outcome.rejections.iter().any(|r| r.contains("delta") && r.contains("queued")),
        "the flooder was turned away by its queue quota: {:?}",
        outcome.rejections
    );
    assert!(outcome.rejections.iter().any(|r| r.contains("draining")));

    // Every close reason appeared.
    let reasons: std::collections::HashSet<&str> =
        outcome.responses.iter().map(|(_, _, reason, _, _)| *reason).collect();
    for reason in ["deadline_pressure", "aged", "k_budget_full", "flush"] {
        assert!(reasons.contains(reason), "missing close reason {reason}: {reasons:?}");
    }
}

#[test]
fn chaos_scenario_is_deterministic_across_worker_counts() {
    let one = chaos_scenario(1);
    let four = chaos_scenario(4);

    assert_eq!(one.timeline, four.timeline, "identical timelines at 1 and 4 workers");
    assert_eq!(one.rejections, four.rejections);
    assert_eq!(one.counters, four.counters);
    assert_eq!(one.responses.len(), four.responses.len());
    for (a, b) in one.responses.iter().zip(&four.responses) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
        assert_eq!(a.4, b.4, "job {} output must be worker-count independent", a.0);
    }
}

#[test]
fn per_tenant_observability_is_consistent() {
    let (service, a) = service_with(64, 1);
    let mut fe = Frontend::new(service, FrontendConfig::default());
    let alpha = fe.register_tenant("alpha", TenantQuota::default()).unwrap();
    let bravo = fe.register_tenant("bravo", TenantQuota::default()).unwrap();

    fe.submit(alpha, FrontendRequest::new(a, dense(8, 0)).with_slo(100.0)).unwrap();
    fe.submit(alpha, FrontendRequest::new(a, dense(8, 1))).unwrap();
    fe.submit(bravo, FrontendRequest::new(a, dense(8, 2))).unwrap();
    let responses = fe.drain();
    assert_eq!(responses.len(), 3);

    let alpha_digest = fe.tenant_digest("alpha").unwrap();
    assert_eq!(alpha_digest.submitted, 2);
    assert_eq!(alpha_digest.completed, 2);
    assert_eq!(
        alpha_digest.deadline_hits + alpha_digest.deadline_misses,
        alpha_digest.completed,
        "hits plus misses covers every completion (best effort counts as a hit)"
    );
    assert!(alpha_digest.latency_ns_p95 >= alpha_digest.latency_ns_p50);
    assert_eq!(fe.tenant_digest("bravo").unwrap().completed, 1);
    assert!(fe.tenant_digest("ghost").is_none());

    // Labeled metrics agree with the digests and sum to the global series.
    let m = fe.metrics();
    assert_eq!(m.counter_labeled("frontend.completed", ("tenant", "alpha")), 2);
    assert_eq!(m.counter_labeled("frontend.completed", ("tenant", "bravo")), 1);
    assert_eq!(m.counter("frontend.completed"), 3);

    // The per-tenant timeline slice carries only the tenant's own events
    // plus shared events covering its jobs, and stays valid JSONL.
    let slice = fe.tenant_timeline_jsonl("bravo").unwrap();
    assert!(!slice.is_empty());
    for line in slice.lines() {
        let v: serde::Value = serde_json::from_str(line).unwrap();
        let tenant = v.get("tenant").and_then(|t| t.as_str()).unwrap();
        assert!(tenant == "bravo" || tenant.is_empty(), "foreign event in the slice: {line}");
    }
    let merged = fe.timeline_jsonl();
    assert!(merged.lines().count() > slice.lines().count());
    assert!(fe.tenant_timeline_jsonl("ghost").is_none());
}
