//! Integration tests of the persistent SpMM service: plan-cache behavior,
//! batching bit-identity (including under injected faults), retry/fallback
//! degradation, and the session timeline.

use std::sync::Arc;
use twoface_core::{Algorithm, PreparedMatrix, Problem, RunError, RunOptions};
use twoface_matrix::gen::erdos_renyi;
use twoface_matrix::DenseMatrix;
use twoface_net::{CostModel, FaultPlan};
use twoface_serve::{
    timeline_jsonl, ServeConfig, ServeError, SessionPhase, SpmmRequest, SpmmResponse, SpmmService,
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

#[test]
fn cache_hit_skips_preprocessing_bit_identically() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(1), STRIPE).unwrap();
    let b = dense(16, 3);

    let miss = service.run_one(SpmmRequest::new(a, Arc::clone(&b))).unwrap();
    assert_eq!(miss.cache_hit, Some(false));
    assert!(miss.prep_wall_nanos > 0, "a miss pays for preprocessing");

    let hit = service.run_one(SpmmRequest::new(a, b)).unwrap();
    assert_eq!(hit.cache_hit, Some(true));
    assert_eq!(hit.prep_wall_nanos, 0, "a hit skips preprocessing entirely");

    // Bit-identical outputs: the cached artifact is the same plan and rank
    // structures the miss built.
    assert_eq!(
        miss.output.unwrap().as_slice(),
        hit.output.unwrap().as_slice(),
        "hit and miss outputs must match bitwise"
    );

    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(service.metrics().counter("serve.cache.hits"), 1);
    assert_eq!(service.metrics().counter("serve.cache.misses"), 1);
}

#[test]
fn fingerprints_are_stable_across_worker_counts() {
    let a = matrix(5);
    let problem = Problem::new(Arc::clone(&a), dense(8, 1), P, STRIPE).unwrap();
    let cost = CostModel::delta_scaled();
    let one = PreparedMatrix::build(
        &problem,
        &cost,
        &RunOptions { workers: Some(1), ..Default::default() },
    )
    .unwrap();
    let three = PreparedMatrix::build(
        &problem,
        &cost,
        &RunOptions { workers: Some(3), ..Default::default() },
    )
    .unwrap();
    assert_eq!(one.fingerprint(), three.fingerprint());
    assert_eq!(one.approx_bytes(), three.approx_bytes());

    // Cache keys likewise ignore worker counts: two services differing only
    // in `workers` agree on every key.
    let mut one_worker = config();
    one_worker.workers = Some(1);
    let mut many_workers = config();
    many_workers.workers = Some(3);
    let mut s1 = SpmmService::new(one_worker);
    let mut s2 = SpmmService::new(many_workers);
    let h1 = s1.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    let h2 = s2.register_matrix(a, STRIPE).unwrap();
    assert_eq!(
        s1.plan_cache_key(h1, Algorithm::TwoFace, 16).unwrap(),
        s2.plan_cache_key(h2, Algorithm::TwoFace, 16).unwrap(),
    );
}

#[test]
fn differing_exec_opts_produce_distinct_cache_keys() {
    let a = matrix(6);
    let base = SpmmService::new(config());
    // Sharing a matrix between services keeps the content fingerprint fixed
    // so only the execution options vary.
    let mut variants: Vec<SpmmService> = Vec::new();
    let mut taller_panels = config();
    taller_panels.exec.row_panel_height *= 2;
    variants.push(SpmmService::new(taller_panels));
    let mut coalesce_off = config();
    coalesce_off.exec.coalesce_distance_override = Some(0);
    variants.push(SpmmService::new(coalesce_off));
    let mut fanout = config();
    fanout.classifier = twoface_partition::ClassifierKind::FanoutAware { penalty: 0.5 };
    variants.push(SpmmService::new(fanout));
    let mut other_cost = config();
    other_cost.cost = CostModel::delta();
    variants.push(SpmmService::new(other_cost));

    let mut base = base;
    let handle = base.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    let reference = base.plan_cache_key(handle, Algorithm::TwoFace, 16).unwrap();

    // Identical configuration reproduces the key (stability).
    let mut twin = SpmmService::new(config());
    let twin_handle = twin.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    assert_eq!(twin.plan_cache_key(twin_handle, Algorithm::TwoFace, 16).unwrap(), reference);

    // Any differing execution option must change the key.
    for mut service in variants {
        let h = service.register_matrix(Arc::clone(&a), STRIPE).unwrap();
        assert_ne!(
            service.plan_cache_key(h, Algorithm::TwoFace, 16).unwrap(),
            reference,
            "differing options must key differently"
        );
    }

    // K, the algorithm's plan flavor, and the matrix itself key too.
    assert_ne!(base.plan_cache_key(handle, Algorithm::TwoFace, 32).unwrap(), reference);
    assert_ne!(base.plan_cache_key(handle, Algorithm::AsyncFine, 16).unwrap(), reference);
    let other = base.register_matrix(matrix(7), STRIPE).unwrap();
    assert_ne!(base.plan_cache_key(other, Algorithm::TwoFace, 16).unwrap(), reference);
}

#[test]
fn batched_requests_are_bit_identical_to_solo_runs() {
    let a = matrix(11);
    let panels: Vec<_> = (0..3).map(|i| dense(8, 20 + i)).collect();

    // Solo: one request per drain, nothing to fuse with.
    let mut solo = SpmmService::new(config());
    let sh = solo.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    let solo_outputs: Vec<DenseMatrix> = panels
        .iter()
        .map(|b| solo.run_one(SpmmRequest::new(sh, Arc::clone(b))).unwrap().output.unwrap())
        .collect();

    // Batched: all three queued, drained together.
    let mut batched = SpmmService::new(config());
    let bh = batched.register_matrix(a, STRIPE).unwrap();
    let ids: Vec<_> = panels
        .iter()
        .map(|b| batched.submit(SpmmRequest::new(bh, Arc::clone(b))).unwrap())
        .collect();
    let responses = batched.drain();
    assert_eq!(responses.len(), 3);

    for ((response, id), solo_output) in responses.iter().zip(&ids).zip(&solo_outputs) {
        assert_eq!(response.request, *id, "responses come back in submission order");
        assert_eq!(response.batch_size, 3, "all three requests fused into one execution");
        assert_eq!(
            response.output.as_ref().unwrap().as_slice(),
            solo_output.as_slice(),
            "batched output must match the solo run bitwise"
        );
    }
    assert_eq!(batched.metrics().counter("serve.batches"), 1);
    // One plan build serves the whole batch (and the solo service paid one
    // build plus two hits for the same traffic).
    assert_eq!(batched.cache_stats().misses, 1);
    assert_eq!(solo.cache_stats().hits, 2);
}

/// The request-level sketches (ISSUE 9): per-request simulated latency and
/// submit-time queue depth feed mergeable histograms, readable as quantiles
/// through [`SessionDigest`] — all derived from simulated time, so the
/// digest is deterministic.
#[test]
fn latency_and_queue_depth_sketches_summarize_the_session() {
    let mut service = SpmmService::new(config());
    let h = service.register_matrix(matrix(17), STRIPE).unwrap();
    assert!(service.latency_sketch().is_none(), "no requests, no sketch");
    assert_eq!(service.session_digest().requests, 0);

    let panels: Vec<_> = (0..4).map(|i| dense(8, 60 + i)).collect();
    for b in &panels {
        service.submit(SpmmRequest::new(h, Arc::clone(b))).unwrap();
    }
    service.drain();

    let latency = service.latency_sketch().expect("completed requests recorded latency");
    assert_eq!(latency.count(), 4);
    let depth = service.queue_depth_sketch().expect("each submit sampled the queue");
    assert_eq!(depth.count(), 4);
    assert_eq!(depth.max(), Some(4), "the queue reached all four waiting requests");

    let digest = service.session_digest();
    assert_eq!(digest.requests, 4);
    assert!(digest.latency_ns_p50 > 0.0);
    assert!(digest.latency_ns_p50 <= digest.latency_ns_p95);
    assert!(digest.latency_ns_p95 <= digest.latency_ns_p99);
    assert_eq!(digest.queue_depth_max, 4);

    // Determinism: an identical session produces the identical digest.
    let mut replay = SpmmService::new(config());
    let rh = replay.register_matrix(matrix(17), STRIPE).unwrap();
    for b in &panels {
        replay.submit(SpmmRequest::new(rh, Arc::clone(b))).unwrap();
    }
    replay.drain();
    assert_eq!(replay.session_digest(), digest);
}

#[test]
fn batched_bit_identity_holds_under_chaos() {
    let a = matrix(13);
    let panels: Vec<_> = (0..3).map(|i| dense(8, 40 + i)).collect();
    let chaos = Some(FaultPlan::light(99));

    let mut solo_config = config();
    solo_config.fault_plan = chaos.clone();
    let mut solo = SpmmService::new(solo_config);
    let sh = solo.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    let solo_outputs: Vec<DenseMatrix> = panels
        .iter()
        .map(|b| solo.run_one(SpmmRequest::new(sh, Arc::clone(b))).unwrap().output.unwrap())
        .collect();

    let mut batched_config = config();
    batched_config.fault_plan = chaos;
    let mut batched = SpmmService::new(batched_config);
    let bh = batched.register_matrix(a, STRIPE).unwrap();
    for b in &panels {
        batched.submit(SpmmRequest::new(bh, Arc::clone(b))).unwrap();
    }
    for (response, solo_output) in batched.drain().iter().zip(&solo_outputs) {
        assert_eq!(
            response.output.as_ref().unwrap().as_slice(),
            solo_output.as_slice(),
            "recovered faulted runs stay bit-identical, batched or not"
        );
    }
}

#[test]
fn requests_with_different_widths_do_not_fuse_and_budgets_split_batches() {
    let mut narrow_budget = config();
    narrow_budget.max_k_per_batch = 16;
    let mut service = SpmmService::new(narrow_budget);
    let a = service.register_matrix(matrix(17), STRIPE).unwrap();

    // Three K=8 requests under a 16-column budget: two fuse, one spills.
    for i in 0..3 {
        service.submit(SpmmRequest::new(a, dense(8, 60 + i))).unwrap();
    }
    // A K=4 request never fuses with the K=8s (different width).
    service.submit(SpmmRequest::new(a, dense(4, 70))).unwrap();

    let responses = service.drain();
    let sizes: Vec<usize> = responses.iter().map(|r| r.batch_size).collect();
    assert_eq!(sizes, vec![2, 2, 1, 1]);
    assert_eq!(service.metrics().counter("serve.batches"), 3);
    // Same matrix, same options, same K=8: the spilled batch reuses the
    // fused batch's artifact.
    assert_eq!(service.cache_stats().hits, 1);
    assert_eq!(service.cache_stats().misses, 2);
}

#[test]
fn lru_eviction_is_driven_by_the_byte_budget() {
    // Size one artifact first so the real budget holds one entry.
    let mut probe = SpmmService::new(config());
    let h = probe.register_matrix(matrix(21), STRIPE).unwrap();
    probe.run_one(SpmmRequest::new(h, dense(8, 1))).unwrap();
    let one_artifact = probe.cache_stats().bytes;
    assert!(one_artifact > 0);

    let mut tight = config();
    tight.cache_budget_bytes = one_artifact + one_artifact / 2;
    let mut service = SpmmService::new(tight);
    let first = service.register_matrix(matrix(21), STRIPE).unwrap();
    let second = service.register_matrix(matrix(22), STRIPE).unwrap();

    service.run_one(SpmmRequest::new(first, dense(8, 1))).unwrap();
    // Similar matrix, similar artifact size: inserting it evicts `first`.
    service.run_one(SpmmRequest::new(second, dense(8, 2))).unwrap();
    let evicted = service.cache_stats().evictions;
    assert!(evicted >= 1, "the second artifact must push out the first");
    assert_eq!(service.metrics().counter("serve.cache.evictions"), evicted);

    // Re-requesting the first matrix misses again.
    let again = service.run_one(SpmmRequest::new(first, dense(8, 1))).unwrap();
    assert_eq!(again.cache_hit, Some(false));
    assert!(service.cache_stats().bytes <= service.cache_stats().budget_bytes);
}

#[test]
fn fallback_degrades_to_allgather_after_transfer_timeouts() {
    let mut degraded = config();
    // Every one-sided attempt fails: Two-Face can never finish, and every
    // reseeded retry fails the same way. Allgather uses no one-sided gets.
    degraded.fault_plan = Some(FaultPlan::seeded(3).with_get_failure_rate(1.0));
    degraded.retry_budget = 1;
    let mut service = SpmmService::new(degraded);
    let a = service.register_matrix(matrix(31), STRIPE).unwrap();

    // Async Fine is all one-sided gets, so a 100% get-failure network can
    // never complete it.
    let response = service
        .run_one(SpmmRequest { matrix: a, b: dense(8, 5), algorithm: Algorithm::AsyncFine })
        .unwrap();
    assert!(response.fell_back, "the planned algorithm kept timing out");
    assert_eq!(response.algorithm, Algorithm::Allgather);
    assert!(response.output.is_ok(), "the fallback serves the request");
    assert!(response.attempts >= 3, "original + retry + fallback, got {}", response.attempts);
    assert_eq!(service.metrics().counter("serve.fallbacks"), 1);
    assert!(service.metrics().counter("serve.retries") >= 1);

    let phases: Vec<SessionPhase> = service.timeline().iter().map(|e| e.phase).collect();
    assert!(phases.contains(&SessionPhase::Retry));
    assert!(phases.contains(&SessionPhase::Fallback));
    assert!(phases.contains(&SessionPhase::Execute));
}

#[test]
fn exhausted_retries_surface_typed_errors_when_fallback_is_off() {
    let mut degraded = config();
    degraded.fault_plan = Some(FaultPlan::seeded(3).with_get_failure_rate(1.0));
    degraded.retry_budget = 1;
    degraded.fallback = false;
    let mut service = SpmmService::new(degraded);
    let a = service.register_matrix(matrix(31), STRIPE).unwrap();

    let response = service
        .run_one(SpmmRequest { matrix: a, b: dense(8, 5), algorithm: Algorithm::AsyncFine })
        .unwrap();
    assert!(!response.fell_back);
    match response.output {
        Err(ServeError::Run { attempts, source: RunError::TransferTimeout { .. }, .. }) => {
            assert_eq!(attempts, 2, "one original attempt plus one retry");
        }
        other => panic!("expected a typed transfer-timeout failure, got {other:?}"),
    }
    assert_eq!(service.metrics().counter("serve.requests_failed"), 1);
}

#[test]
fn submit_validates_handles_and_shapes() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(41), STRIPE).unwrap();

    service
        .submit(SpmmRequest { matrix: a, b: dense(8, 1), algorithm: Algorithm::TwoFace })
        .expect("a valid request is accepted");

    // Wrong B height.
    let short = Arc::new(DenseMatrix::from_fn(N / 2, 8, |_, _| 1.0));
    match service.submit(SpmmRequest { matrix: a, b: short, algorithm: Algorithm::TwoFace }) {
        Err(ServeError::Shape { context }) => assert!(context.contains("but B is"), "{context}"),
        other => panic!("expected a shape error, got {other:?}"),
    }

    // Unknown handle: a handle from a different service.
    let mut fresh = SpmmService::new(config());
    match fresh.submit(SpmmRequest { matrix: a, b: dense(8, 1), algorithm: Algorithm::TwoFace }) {
        Err(ServeError::UnknownMatrix { handle }) => assert_eq!(handle, a.id()),
        other => panic!("expected an unknown-matrix error, got {other:?}"),
    }

    // Infeasible registration: more ranks than rows.
    let tiny = Arc::new(erdos_renyi(2, 2, 2, 1));
    match fresh.register_matrix(tiny, 1) {
        Err(ServeError::Shape { .. }) => {}
        other => panic!("expected a shape error at registration, got {other:?}"),
    }
}

#[test]
fn the_session_timeline_narrates_the_run_and_exports_jsonl() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(51), STRIPE).unwrap();
    service.run_one(SpmmRequest::new(a, dense(8, 1))).unwrap();
    service.run_one(SpmmRequest::new(a, dense(8, 2))).unwrap();

    let phases: Vec<SessionPhase> = service.timeline().iter().map(|e| e.phase).collect();
    for expected in [
        SessionPhase::Register,
        SessionPhase::Prepare,
        SessionPhase::CacheHit,
        SessionPhase::Execute,
        SessionPhase::Reset,
    ] {
        assert!(phases.contains(&expected), "missing {expected:?} in {phases:?}");
    }

    // Execute events span simulated time; the session clock is cumulative.
    let executes: Vec<_> =
        service.timeline().iter().filter(|e| e.phase == SessionPhase::Execute).collect();
    assert_eq!(executes.len(), 2);
    assert!(executes[0].sim_end_seconds > executes[0].sim_start_seconds);
    assert!(executes[1].sim_start_seconds >= executes[0].sim_end_seconds);
    assert!((service.sim_seconds() - executes[1].sim_end_seconds).abs() < 1e-12);

    // Every line of the export is a standalone JSON object.
    let jsonl = timeline_jsonl(service.timeline());
    assert_eq!(jsonl.lines().count(), service.timeline().len());
    for line in jsonl.lines() {
        let value: serde::Value = serde_json::from_str(line).unwrap();
        let entries = value.as_object().expect("each line is a JSON object");
        for field in ["phase", "seq", "sim_start_seconds", "detail"] {
            assert!(entries.iter().any(|(k, _)| k == field), "missing {field} in {line}");
        }
    }

    // Sequence numbers are the timeline order.
    let seqs: Vec<u64> = service.timeline().iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
}

#[test]
fn reset_session_drops_cached_plans_but_keeps_history() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(61), STRIPE).unwrap();
    service.run_one(SpmmRequest::new(a, dense(8, 1))).unwrap();
    assert_eq!(service.cache_stats().entries, 1);

    service.reset_session();
    assert_eq!(service.cache_stats().entries, 0);
    assert_eq!(service.cache_stats().misses, 1, "history survives the reset");

    // The service keeps working afterwards — cold again, so a miss.
    let after = service.run_one(SpmmRequest::new(a, dense(8, 2))).unwrap();
    assert_eq!(after.cache_hit, Some(false));
}

/// A service whose coalescing distance is zero: concrete algorithms pass
/// it through to the runner, which rejects it.
fn zero_coalescing_service() -> (SpmmService, twoface_serve::MatrixHandle) {
    let mut config = config();
    config.exec.coalesce_distance_override = Some(0);
    let mut service = SpmmService::new(config);
    let handle = service.register_matrix(matrix(5), STRIPE).unwrap();
    (service, handle)
}

fn assert_config_error(outcome: &Result<impl std::fmt::Debug, ServeError>) {
    match outcome {
        Err(ServeError::Config { source: RunError::InvalidConfig { context } })
        | Err(ServeError::Run {
            source: RunError::InvalidConfig { context }, attempts: 0, ..
        }) => {
            assert!(context.contains("coalesce_distance_override"), "{context}")
        }
        other => panic!("expected the invalid coalescing distance, got {other:?}"),
    }
}

#[test]
fn predicted_seconds_under_an_invalid_config_is_a_typed_error() {
    let (service, handle) = zero_coalescing_service();
    for algorithm in [Algorithm::Auto, Algorithm::TwoFace] {
        assert_config_error(&service.predicted_seconds(handle, algorithm, 8));
    }
    assert_config_error(&service.plan_cache_key(handle, Algorithm::Auto, 8));
    assert_config_error(&service.plan_resident(handle, Algorithm::Auto, 8));
}

#[test]
fn auto_batch_under_an_invalid_config_is_a_typed_error() {
    let (mut service, handle) = zero_coalescing_service();
    let request = SpmmRequest { matrix: handle, b: dense(8, 3), algorithm: Algorithm::Auto };
    let responses = service.execute(vec![request.clone(), request]);
    assert_eq!(responses.len(), 2);
    for response in &responses {
        assert_config_error(&response.output);
    }
}

#[test]
fn non_plan_algorithms_batch_but_bypass_the_cache() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(71), STRIPE).unwrap();
    for i in 0..2 {
        service
            .submit(SpmmRequest { matrix: a, b: dense(8, 80 + i), algorithm: Algorithm::Allgather })
            .unwrap();
    }
    let responses = service.drain();
    assert_eq!(responses.len(), 2);
    for r in &responses {
        assert_eq!(r.cache_hit, None, "no plan, no cache");
        assert_eq!(r.batch_size, 2);
        assert!(r.output.is_ok());
    }
    assert_eq!(service.cache_stats().misses, 0);
}

/// ISSUE 10, satellite: batch formation must not be sensitive to arrival
/// interleaving. Under the default key-grouped policy, any permutation of
/// the same request set produces the same number of executions and —
/// like every policy — outputs bitwise equal to solo runs.
#[test]
fn batch_formation_is_arrival_order_insensitive() {
    let a1 = matrix(81);
    let a2 = matrix(82);
    // Three fusion keys: (a1, k=8) x3, (a2, k=8) x2, (a1, k=16) x2.
    let specs: Vec<(usize, usize, u64)> =
        vec![(0, 8, 90), (0, 8, 91), (0, 8, 92), (1, 8, 93), (1, 8, 94), (0, 16, 95), (0, 16, 96)];
    let orders: Vec<Vec<usize>> = vec![
        (0..specs.len()).collect(),
        (0..specs.len()).rev().collect(),
        vec![3, 0, 5, 1, 4, 6, 2], // fully interleaved across keys
    ];

    let tight = || {
        let mut cfg = config();
        cfg.max_k_per_batch = 32; // chunks: 4 at k=8, 2 at k=16
        cfg
    };

    // Solo reference bits per spec.
    let mut solo = SpmmService::new(tight());
    let handles = [
        solo.register_matrix(Arc::clone(&a1), STRIPE).unwrap(),
        solo.register_matrix(Arc::clone(&a2), STRIPE).unwrap(),
    ];
    let reference: Vec<DenseMatrix> = specs
        .iter()
        .map(|&(m, k, seed)| {
            solo.run_one(SpmmRequest::new(handles[m], dense(k, seed))).unwrap().output.unwrap()
        })
        .collect();

    let mut batch_counts = Vec::new();
    for order in &orders {
        let mut service = SpmmService::new(tight());
        let h = [
            service.register_matrix(Arc::clone(&a1), STRIPE).unwrap(),
            service.register_matrix(Arc::clone(&a2), STRIPE).unwrap(),
        ];
        let ids: Vec<_> = order
            .iter()
            .map(|&at| {
                let (m, k, seed) = specs[at];
                (at, service.submit(SpmmRequest::new(h[m], dense(k, seed))).unwrap())
            })
            .collect();
        let responses = service.drain();
        assert_eq!(responses.len(), specs.len());
        for (at, id) in ids {
            let response = responses.iter().find(|r| r.request == id).unwrap();
            assert_eq!(
                response.output.as_ref().unwrap().as_slice(),
                reference[at].as_slice(),
                "order {order:?}, spec {at}: batched output must match solo bitwise"
            );
        }
        batch_counts.push(service.metrics().counter("serve.batches"));
    }
    assert!(
        batch_counts.windows(2).all(|w| w[0] == w[1]),
        "key-grouped formation fuses identically under every arrival order: {batch_counts:?}"
    );
}

/// `run_one` runs its request alone: a request queued earlier neither fuses
/// into that run nor loses its answer, and the next drain serves it with
/// the same bits as a solo run.
#[test]
fn run_one_leaves_queued_requests_for_the_next_drain() {
    let a = matrix(91);
    let (x, y) = (dense(8, 1), dense(8, 2));
    let mut solo = SpmmService::new(config());
    let sh = solo.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    let x_solo = solo.run_one(SpmmRequest::new(sh, Arc::clone(&x))).unwrap().output.unwrap();

    let mut service = SpmmService::new(config());
    let h = service.register_matrix(a, STRIPE).unwrap();
    let x_id = service.submit(SpmmRequest::new(h, x)).unwrap();
    let y_response = service.run_one(SpmmRequest::new(h, y)).unwrap();
    assert_eq!(y_response.batch_size, 1, "run_one must not fuse the queued request");
    assert_ne!(y_response.request, x_id);

    let drained = service.drain();
    assert_eq!(drained.len(), 1, "the queued request is still there");
    assert_eq!(drained[0].request, x_id);
    assert_eq!(drained[0].batch_size, 1);
    assert_eq!(drained[0].output.as_ref().unwrap().as_slice(), x_solo.as_slice());
    assert!(service.drain().is_empty());
}

/// `execute` and `submit` + `drain` are two ways into one execution: the
/// same batch answers with the same bits, the same simulated seconds and
/// the same session timeline either way.
fn execute_matches_submit_and_drain_under(
    fault_plan: Option<FaultPlan>,
    algorithm: Algorithm,
) -> Vec<SpmmResponse> {
    let a = matrix(93);
    let panels: Vec<_> = (0..3).map(|i| dense(8, 110 + i)).collect();
    let mut cfg = config();
    cfg.fault_plan = fault_plan;

    let mut direct = SpmmService::new(cfg.clone());
    let dh = direct.register_matrix(Arc::clone(&a), STRIPE).unwrap();
    let request =
        |matrix, b: &Arc<DenseMatrix>| SpmmRequest { matrix, b: Arc::clone(b), algorithm };
    let executed = direct.execute(panels.iter().map(|b| request(dh, b)).collect());

    let mut queued = SpmmService::new(cfg);
    let qh = queued.register_matrix(a, STRIPE).unwrap();
    for b in &panels {
        queued.submit(request(qh, b)).unwrap();
    }
    let drained = queued.drain();

    assert_eq!(executed.len(), panels.len());
    assert_eq!(drained.len(), panels.len());
    for (e, d) in executed.iter().zip(&drained) {
        assert_eq!(e.request, d.request, "both ways assign ids from one counter");
        assert_eq!(e.output.as_ref().unwrap().as_slice(), d.output.as_ref().unwrap().as_slice());
        assert_eq!(e.sim_seconds.to_bits(), d.sim_seconds.to_bits());
        assert_eq!(e.cache_hit, d.cache_hit);
        assert_eq!((e.attempts, e.fell_back), (d.attempts, d.fell_back));
        assert_eq!(e.batch_size, panels.len());
        assert_eq!(e.batch_size, d.batch_size);
    }
    let narrate = |s: &SpmmService| -> Vec<String> {
        let e = s.timeline().iter();
        e.map(|e| format!("{:?} {:?} {:?} {}", e.phase, e.class, e.requests, e.detail)).collect()
    };
    assert_eq!(narrate(&direct), narrate(&queued));
    assert_eq!(direct.sim_seconds().to_bits(), queued.sim_seconds().to_bits());
    for counter in ["serve.requests_submitted", "serve.batches", "serve.retries", "serve.fallbacks"]
    {
        assert_eq!(direct.metrics().counter(counter), queued.metrics().counter(counter));
    }
    executed
}

#[test]
fn execute_matches_submit_and_drain() {
    let responses = execute_matches_submit_and_drain_under(None, Algorithm::TwoFace);
    assert!(responses.iter().all(|r| r.attempts == 1 && r.cache_hit == Some(false)));
}

#[test]
fn execute_matches_submit_and_drain_under_chaos() {
    execute_matches_submit_and_drain_under(Some(FaultPlan::light(99)), Algorithm::TwoFace);
    // Every one-sided get fails: both ways retry, then fall back.
    let degraded = FaultPlan::seeded(3).with_get_failure_rate(1.0);
    let responses = execute_matches_submit_and_drain_under(Some(degraded), Algorithm::AsyncFine);
    assert!(responses.iter().all(|r| r.fell_back && r.output.is_ok()));
}

#[test]
fn execute_rejects_invalid_batches_with_typed_errors() {
    let mut service = SpmmService::new(config());
    let a = service.register_matrix(matrix(95), STRIPE).unwrap();
    let b = service.register_matrix(matrix(96), STRIPE).unwrap();
    let request = |matrix, k, algorithm| SpmmRequest { matrix, b: dense(k, 5), algorithm };
    let two_face = Algorithm::TwoFace;
    // Nothing runs: every request is answered with the batch's one error.
    let mut rejected = |requests: Vec<SpmmRequest>| -> ServeError {
        let n = requests.len();
        let responses = service.execute(requests);
        assert_eq!(responses.len(), n, "every request is answered");
        let first = responses[0].output.clone().expect_err("nothing may run");
        for r in &responses {
            assert_eq!(r.output.as_ref().expect_err("nothing may run"), &first);
            assert_eq!(r.attempts, 0);
        }
        first
    };

    let mut other = SpmmService::new(config());
    for _ in 0..3 {
        other.register_matrix(matrix(97), STRIPE).unwrap();
    }
    let foreign = other.matrix_handles()[2];
    let error = rejected(vec![request(a, 8, two_face), request(foreign, 8, two_face)]);
    assert!(matches!(error, ServeError::UnknownMatrix { handle: 2 }), "{error:?}");

    let short = Arc::new(DenseMatrix::from_fn(N / 2, 8, |_, _| 1.0));
    let wrong_rows = SpmmRequest { matrix: a, b: short, algorithm: two_face };
    match rejected(vec![request(a, 8, two_face), wrong_rows]) {
        ServeError::Shape { context } => assert!(context.contains("but B is"), "{context}"),
        other => panic!("expected a shape error, got {other:?}"),
    }

    // Mixed matrix, algorithm or K: the first request that differs.
    for (mixed, index) in [
        (vec![request(a, 8, two_face), request(b, 8, two_face)], 1),
        (vec![request(a, 8, two_face), request(a, 8, Algorithm::Allgather)], 1),
        (vec![request(a, 8, two_face), request(a, 8, two_face), request(a, 4, two_face)], 2),
    ] {
        assert_eq!(rejected(mixed), ServeError::MixedBatch { index });
    }

    assert!(service.execute(Vec::new()).is_empty(), "an empty batch answers nothing");
    assert_eq!(service.metrics().counter("serve.batches"), 0);
    assert!(service.timeline().iter().all(|e| e.phase == SessionPhase::Register));
    assert_eq!(service.sim_seconds(), 0.0);
}
