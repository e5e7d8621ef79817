//! The deterministic front-end core: admission, fairness, and batch
//! formation as a pure state machine.
//!
//! The core forms every batch; the service runs each one as formed
//! ([`SpmmService::execute`]), so no batch is formed twice.
//!
//! Every decision here derives from explicit inputs — the submission
//! sequence, the serving session's *simulated* clock, and the calibrated
//! cost model's predictions — never from host wall time or thread timing.
//! The inline [`Frontend`](crate::Frontend) drives the machine directly
//! (fully deterministic, the mode the acceptance tests and the bench use);
//! the threaded [`AsyncFrontend`](crate::AsyncFrontend) drives the same
//! machine from a scheduler thread.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::error::{FrontendError, RejectReason};
use crate::tenant::{TenantDigest, TenantId, TenantQuota, TenantState};
use crate::timeline::{FrontendEvent, FrontendPhase};
use twoface_core::Algorithm;
use twoface_matrix::DenseMatrix;
use twoface_net::{Histogram, MetricsRegistry, PhaseClass};
use twoface_serve::{
    check_operand, requests_per_batch, MatrixHandle, ServeError, SessionPhase, SpmmRequest,
    SpmmResponse, SpmmService,
};

/// Static configuration of the front-end scheduler.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Global pending-queue depth cap, across all tenants (the first rung
    /// of the backpressure ladder).
    pub max_queue_depth: usize,
    /// Deficit-round-robin quantum, in dense columns credited to each
    /// tenant per round of batch formation.
    pub quantum_k: usize,
    /// Safety factor on predicted execution time for the deadline test: a
    /// group closes early once `deadline − now ≤ predicted × safety` for
    /// its earliest member deadline. Values above 1 leave headroom for
    /// fusion widening and queueing ahead of the batch.
    pub deadline_safety: f64,
    /// Polls a non-full, deadline-less group may survive before it closes
    /// anyway (`Aged`), bounding the latency of lone requests. `None`
    /// disables aging: such groups close only at a drain.
    pub max_group_age_polls: Option<u64>,
    /// Plan-cache pressure watermark as a fraction of the cache's byte
    /// budget. Above it, requests that would build a *new* preprocessing
    /// artifact are rejected (`PlanCachePressure`); requests whose
    /// artifact this session already built stay admissible.
    pub cache_pressure: f64,
}

impl Default for FrontendConfig {
    /// 256 queued requests, a 32-column quantum, 1.5× deadline safety,
    /// aging after 8 polls, and a 90 % cache-pressure watermark.
    fn default() -> FrontendConfig {
        FrontendConfig {
            max_queue_depth: 256,
            quantum_k: 32,
            deadline_safety: 1.5,
            max_group_age_polls: Some(8),
            cache_pressure: 0.9,
        }
    }
}

/// Opaque id of an admitted front-end request (dense, in admission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw job id.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One tenant request: `C = A × B` with an optional latency SLO.
#[derive(Debug, Clone)]
pub struct FrontendRequest {
    /// Which registered matrix to multiply.
    pub matrix: MatrixHandle,
    /// The dense operand.
    pub b: Arc<DenseMatrix>,
    /// The algorithm to schedule.
    pub algorithm: Algorithm,
    /// Latency objective in *simulated* seconds from admission: the
    /// request's deadline is the session clock at admission plus this.
    /// `None` = best effort (never forces an early batch close).
    pub slo_sim_seconds: Option<f64>,
}

impl FrontendRequest {
    /// A best-effort Two-Face request.
    pub fn new(matrix: MatrixHandle, b: Arc<DenseMatrix>) -> FrontendRequest {
        FrontendRequest { matrix, b, algorithm: Algorithm::TwoFace, slo_sim_seconds: None }
    }

    /// Selects the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> FrontendRequest {
        self.algorithm = algorithm;
        self
    }

    /// Attaches a latency SLO in simulated seconds.
    pub fn with_slo(mut self, slo_sim_seconds: f64) -> FrontendRequest {
        self.slo_sim_seconds = Some(slo_sim_seconds);
        self
    }
}

/// Why a batch left the queue for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The group could fill the service's `max_k_per_batch` column budget.
    KBudgetFull,
    /// The earliest member deadline, minus the cost model's predicted
    /// execution time (times the safety factor), had run out of headroom.
    DeadlinePressure,
    /// The group survived `max_group_age_polls` polls without filling.
    Aged,
    /// A drain or shutdown flushed every queued group.
    Flush,
}

impl CloseReason {
    /// Stable machine-readable tag: `k_budget_full`, `deadline_pressure`,
    /// `aged`, or `flush`.
    pub fn label(self) -> &'static str {
        match self {
            CloseReason::KBudgetFull => "k_budget_full",
            CloseReason::DeadlinePressure => "deadline_pressure",
            CloseReason::Aged => "aged",
            CloseReason::Flush => "flush",
        }
    }
}

/// The outcome of one admitted request.
#[derive(Debug, Clone)]
pub struct FrontendResponse {
    /// The job this answers.
    pub job: JobId,
    /// The submitting tenant's name.
    pub tenant: String,
    /// The output `C` — bit-identical to a solo run of the same request —
    /// or why execution failed (admitted requests fail only in execution;
    /// admission failures never produce a response).
    pub output: Result<DenseMatrix, ServeError>,
    /// The algorithm that produced the output (after any fallback).
    pub algorithm: Algorithm,
    /// Why the batch serving this request closed.
    pub close_reason: CloseReason,
    /// Requests fused into the same execution (1 = solo).
    pub batch_size: usize,
    /// Simulated seconds of the execution itself.
    pub exec_sim_seconds: f64,
    /// Session clock at admission.
    pub arrival_sim_seconds: f64,
    /// Session clock when the batch completed.
    pub completion_sim_seconds: f64,
    /// The admission-time deadline, if the request carried an SLO.
    pub deadline_sim_seconds: Option<f64>,
    /// Plan-cache outcome of the batch (`None` for plan-less algorithms).
    pub cache_hit: Option<bool>,
    /// Execution attempts (1 on the happy path).
    pub attempts: u32,
    /// Whether the batch fell back to the dense allgather baseline.
    pub fell_back: bool,
}

impl FrontendResponse {
    /// Simulated queue-to-completion latency: queue wait plus execution.
    pub fn latency_sim_seconds(&self) -> f64 {
        self.completion_sim_seconds - self.arrival_sim_seconds
    }

    /// Whether the deadline was met (`None` for best-effort requests).
    pub fn deadline_met(&self) -> Option<bool> {
        self.deadline_sim_seconds.map(|d| self.completion_sim_seconds <= d)
    }
}

/// An admitted request waiting in the queue.
pub(crate) struct Queued {
    job: u64,
    tenant: usize,
    request: SpmmRequest,
    key: GroupKey,
    arrival_sim: f64,
    deadline_sim: Option<f64>,
}

/// A closed batch, members in deficit-round-robin order, ready to execute.
pub(crate) struct ReadyBatch {
    pub(crate) reason: CloseReason,
    pub(crate) members: Vec<Queued>,
}

type GroupKey = (MatrixHandle, Algorithm, usize);

impl ReadyBatch {
    /// The members as service requests, in batch order.
    pub(crate) fn requests(&self) -> Vec<SpmmRequest> {
        self.members.iter().map(|q| q.request.clone()).collect()
    }
}

/// The front-end state machine. See the module docs.
pub(crate) struct FrontendCore {
    config: FrontendConfig,
    /// Snapshots of the backing service's limits and matrix shapes, so
    /// admission never needs the service itself (the threaded shell keeps
    /// the service off the caller threads entirely).
    max_k_per_batch: usize,
    cache_budget_bytes: usize,
    matrix_cols: HashMap<MatrixHandle, usize>,
    tenants: Vec<TenantState>,
    /// Jobs each tenant ever admitted (for per-tenant timeline slices).
    tenant_jobs: Vec<Vec<u64>>,
    queue: Vec<Queued>,
    /// Poll at which each live group first gained a member (for aging).
    group_birth: HashMap<GroupKey, u64>,
    /// Memoized cost-model predictions, per group key.
    predicted: HashMap<GroupKey, f64>,
    /// Plan-using keys this session has already served (their artifact is
    /// built; re-requests stay admissible under cache pressure).
    served_plans: HashMap<GroupKey, ()>,
    cache_bytes: usize,
    sim_now: f64,
    polls: u64,
    rr_cursor: usize,
    next_job: u64,
    next_seq: u64,
    events: Vec<FrontendEvent>,
    metrics: MetricsRegistry,
    draining: bool,
}

impl FrontendCore {
    pub(crate) fn new(service: &SpmmService, config: FrontendConfig) -> FrontendCore {
        let matrix_cols = service
            .matrix_handles()
            .into_iter()
            .map(|h| {
                let (_, cols, _) = service.matrix_shape(h).expect("enumerated handle exists");
                (h, cols)
            })
            .collect();
        FrontendCore {
            max_k_per_batch: service.config().max_k_per_batch,
            cache_budget_bytes: service.config().cache_budget_bytes,
            matrix_cols,
            config,
            tenants: Vec::new(),
            tenant_jobs: Vec::new(),
            queue: Vec::new(),
            group_birth: HashMap::new(),
            predicted: HashMap::new(),
            served_plans: HashMap::new(),
            cache_bytes: service.cache_stats().bytes,
            sim_now: service.sim_seconds(),
            polls: 0,
            rr_cursor: 0,
            next_job: 0,
            next_seq: 0,
            events: Vec::new(),
            metrics: MetricsRegistry::new(),
            draining: false,
        }
    }

    pub(crate) fn register_tenant(
        &mut self,
        name: &str,
        quota: TenantQuota,
    ) -> Result<TenantId, FrontendError> {
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(FrontendError::TenantExists { name: name.to_string() });
        }
        let id = TenantId(self.tenants.len());
        self.tenants.push(TenantState::new(name.to_string(), quota));
        self.tenant_jobs.push(Vec::new());
        self.metrics.inc("frontend.tenants_registered", 1);
        self.record(
            FrontendPhase::Tenant,
            PhaseClass::Other,
            name.to_string(),
            Vec::new(),
            format!(
                "registered (max_queued {}, max_in_flight_k {})",
                quota.max_queued, quota.max_in_flight_k
            ),
        );
        Ok(id)
    }

    pub(crate) fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.tenants.iter().position(|t| t.name == name).map(TenantId)
    }

    /// Admission: validity first (malformed requests are errors, not
    /// backpressure), then the ladder — draining, global queue depth,
    /// tenant queued cap, tenant K budget, plan-cache pressure.
    pub(crate) fn submit(
        &mut self,
        tenant: TenantId,
        request: FrontendRequest,
    ) -> Result<JobId, FrontendError> {
        if self.tenants.get(tenant.0).is_none() {
            return Err(FrontendError::UnknownTenant { name: format!("#{}", tenant.0) });
        }
        let FrontendRequest { matrix, b, algorithm, slo_sim_seconds } = request;
        let cols = self.matrix_cols.get(&matrix).copied();
        check_operand(matrix, cols, &b).map_err(|source| FrontendError::Invalid { source })?;
        let k = b.cols();
        if self.draining {
            return self.reject(tenant, RejectReason::Draining);
        }
        if self.queue.len() >= self.config.max_queue_depth {
            let reason = RejectReason::QueueDepth {
                depth: self.queue.len(),
                limit: self.config.max_queue_depth,
            };
            return self.reject(tenant, reason);
        }
        let state = &self.tenants[tenant.0];
        if state.queued >= state.quota.max_queued {
            let reason =
                RejectReason::TenantQueue { queued: state.queued, limit: state.quota.max_queued };
            return self.reject(tenant, reason);
        }
        if state.in_flight_k.saturating_add(k) > state.quota.max_in_flight_k {
            let reason = RejectReason::TenantKBudget {
                in_flight_k: state.in_flight_k,
                requested_k: k,
                limit: state.quota.max_in_flight_k,
            };
            return self.reject(tenant, reason);
        }
        let key: GroupKey = (matrix, algorithm, k);
        let plan_like = matches!(algorithm, Algorithm::Auto) || algorithm.uses_plan();
        let pressured =
            self.cache_bytes as f64 >= self.config.cache_pressure * self.cache_budget_bytes as f64;
        if plan_like && pressured && !self.served_plans.contains_key(&key) {
            let reason = RejectReason::PlanCachePressure {
                cache_bytes: self.cache_bytes,
                budget_bytes: self.cache_budget_bytes,
            };
            return self.reject(tenant, reason);
        }

        let job = JobId(self.next_job);
        self.next_job += 1;
        let deadline_sim = slo_sim_seconds.map(|slo| self.sim_now + slo);
        self.group_birth.entry(key).or_insert(self.polls);
        self.queue.push(Queued {
            job: job.0,
            tenant: tenant.0,
            request: SpmmRequest { matrix, b, algorithm },
            key,
            arrival_sim: self.sim_now,
            deadline_sim,
        });
        let state = &mut self.tenants[tenant.0];
        state.queued += 1;
        state.in_flight_k += k;
        state.submitted += 1;
        let name = state.name.clone();
        let tenant_depth = state.queued as u64;
        self.tenant_jobs[tenant.0].push(job.0);
        self.metrics.inc("frontend.submitted", 1);
        self.metrics.inc_labeled("frontend.submitted", ("tenant", &name), 1);
        self.metrics.observe("frontend.queue_depth", self.queue.len() as u64);
        self.metrics.observe_labeled("frontend.queue_depth", ("tenant", &name), tenant_depth);
        let detail = match deadline_sim {
            Some(d) => format!("{} k={k} deadline={d:.6}s", algorithm.name()),
            None => format!("{} k={k} best-effort", algorithm.name()),
        };
        self.record(FrontendPhase::Submit, PhaseClass::Other, name, vec![job.0], detail);
        Ok(job)
    }

    fn reject(&mut self, tenant: TenantId, reason: RejectReason) -> Result<JobId, FrontendError> {
        let state = &mut self.tenants[tenant.0];
        state.rejected += 1;
        let name = state.name.clone();
        self.metrics.inc("frontend.rejected", 1);
        self.metrics.inc_labeled("frontend.rejected", ("tenant", &name), 1);
        self.metrics.inc(&format!("frontend.rejected.{}", reason.label()), 1);
        self.record(
            FrontendPhase::Reject,
            PhaseClass::Recovery,
            name.clone(),
            Vec::new(),
            format!("{}: {reason}", reason.label()),
        );
        Err(FrontendError::Rejected { tenant: name, reason })
    }

    /// One scheduling pass: refreshes the service snapshots, evaluates
    /// every queued group against the close conditions, and extracts the
    /// closeable ones as batches (members in deficit-round-robin order,
    /// chunked at the service's K budget). With `flush`, everything closes.
    pub(crate) fn poll(&mut self, service: &SpmmService, flush: bool) -> Vec<ReadyBatch> {
        self.polls += 1;
        self.refresh(service);
        if self.queue.is_empty() {
            return Vec::new();
        }
        if flush {
            let jobs: Vec<u64> = self.queue.iter().map(|q| q.job).collect();
            let detail = format!("flushing {} queued requests", jobs.len());
            self.record(FrontendPhase::Drain, PhaseClass::Other, String::new(), jobs, detail);
        }
        let mut keys: Vec<GroupKey> = Vec::new();
        for q in &self.queue {
            if !keys.contains(&q.key) {
                keys.push(q.key);
            }
        }
        let mut batches = Vec::new();
        for key in keys {
            let predicted = self.predicted_for(service, key);
            let per_batch = requests_per_batch(self.max_k_per_batch, key.2);
            let members: Vec<&Queued> = self.queue.iter().filter(|q| q.key == key).collect();
            let earliest_deadline =
                members.iter().filter_map(|q| q.deadline_sim).fold(f64::INFINITY, f64::min);
            let birth = *self.group_birth.get(&key).expect("live group has a birth poll");
            let reason = if flush {
                CloseReason::Flush
            } else if members.len() >= per_batch {
                CloseReason::KBudgetFull
            } else if earliest_deadline.is_finite()
                && earliest_deadline - self.sim_now <= predicted * self.config.deadline_safety
            {
                CloseReason::DeadlinePressure
            } else if self
                .config
                .max_group_age_polls
                .is_some_and(|age| self.polls.saturating_sub(birth) >= age)
            {
                CloseReason::Aged
            } else {
                continue;
            };
            self.close_group(key, reason, per_batch, predicted, earliest_deadline, &mut batches);
        }
        self.reset_idle_deficits();
        batches
    }

    /// Extracts a closing group from the queue into DRR-ordered,
    /// budget-chunked batches. On a `KBudgetFull` close only full chunks
    /// leave; the remainder re-queues (its aging restarts).
    fn close_group(
        &mut self,
        key: GroupKey,
        reason: CloseReason,
        per_batch: usize,
        predicted: f64,
        earliest_deadline: f64,
        batches: &mut Vec<ReadyBatch>,
    ) {
        let mut members = Vec::new();
        let mut remaining = Vec::new();
        for q in std::mem::take(&mut self.queue) {
            if q.key == key {
                members.push(q);
            } else {
                remaining.push(q);
            }
        }
        let mut ordered = self.drr_order(members);
        let emit = if reason == CloseReason::KBudgetFull {
            (ordered.len() / per_batch) * per_batch
        } else {
            ordered.len()
        };
        let tail: Vec<Queued> = ordered.split_off(emit);
        if tail.is_empty() {
            self.group_birth.remove(&key);
        } else {
            // The remainder is a fresh partial group: age from now.
            self.group_birth.insert(key, self.polls);
        }
        for q in &ordered {
            self.tenants[q.tenant].queued -= 1;
        }
        remaining.extend(tail);
        self.queue = remaining;

        let mut ordered = ordered.into_iter();
        loop {
            let chunk: Vec<Queued> = ordered.by_ref().take(per_batch).collect();
            if chunk.is_empty() {
                break;
            }
            let jobs: Vec<u64> = chunk.iter().map(|q| q.job).collect();
            let fused_k = key.2 * chunk.len();
            let headroom = if earliest_deadline.is_finite() {
                format!(", deadline headroom {:.6}s", earliest_deadline - self.sim_now)
            } else {
                String::new()
            };
            self.metrics.inc("frontend.batches_closed", 1);
            self.metrics.inc(&format!("frontend.close.{}", reason.label()), 1);
            self.record(
                FrontendPhase::Close,
                PhaseClass::Other,
                String::new(),
                jobs,
                format!(
                    "{}: {} x{} (fused K = {fused_k}, predicted {predicted:.6}s{headroom})",
                    reason.label(),
                    key.1.name(),
                    chunk.len(),
                ),
            );
            batches.push(ReadyBatch { reason, members: chunk });
        }
    }

    /// Deficit round robin over one group's members: tenants take turns in
    /// index order (rotated by a per-close cursor); each turn credits the
    /// tenant `quantum_k` columns and moves its queued members, FIFO, while
    /// the deficit covers them. A tenant with one small request therefore
    /// places it within the first round even while another tenant floods.
    fn drr_order(&mut self, members: Vec<Queued>) -> Vec<Queued> {
        if members.len() <= 1 {
            return members;
        }
        let mut tenant_ids: Vec<usize> = Vec::new();
        for m in &members {
            if !tenant_ids.contains(&m.tenant) {
                tenant_ids.push(m.tenant);
            }
        }
        tenant_ids.sort_unstable();
        let mut per_tenant: Vec<VecDeque<Queued>> =
            tenant_ids.iter().map(|_| VecDeque::new()).collect();
        let total = members.len();
        for m in members {
            let at = tenant_ids.iter().position(|&t| t == m.tenant).expect("indexed above");
            per_tenant[at].push_back(m);
        }
        let quantum = self.config.quantum_k.max(1);
        let start = self.rr_cursor % tenant_ids.len();
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let mut ordered = Vec::with_capacity(total);
        while ordered.len() < total {
            for offset in 0..tenant_ids.len() {
                let at = (start + offset) % tenant_ids.len();
                if per_tenant[at].is_empty() {
                    continue;
                }
                let tenant = tenant_ids[at];
                self.tenants[tenant].deficit += quantum;
                while let Some(front) = per_tenant[at].front() {
                    if self.tenants[tenant].deficit >= front.key.2 {
                        self.tenants[tenant].deficit -= front.key.2;
                        ordered.push(per_tenant[at].pop_front().expect("front exists"));
                    } else {
                        break;
                    }
                }
            }
        }
        ordered
    }

    /// Books a batch's outcomes — `served` holds the service's responses in
    /// member order: accounting, metrics, timeline, responses.
    pub(crate) fn complete(
        &mut self,
        batch: ReadyBatch,
        served: Vec<SpmmResponse>,
        service: &SpmmService,
    ) -> Vec<FrontendResponse> {
        self.refresh(service);
        let completion = self.sim_now;
        let jobs: Vec<u64> = batch.members.iter().map(|q| q.job).collect();
        // Tag the Execute event with the dominant class of this batch's
        // execution: the service's latest Execute event, if it served these
        // requests. A batch that failed recorded none.
        let ids: Vec<u64> = served.iter().map(|r| r.request.id()).collect();
        let class = service
            .timeline()
            .iter()
            .rfind(|e| e.phase == SessionPhase::Execute)
            .filter(|e| e.requests == ids)
            .map_or(PhaseClass::Recovery, |e| e.class);
        let batch_size = batch.members.len();
        self.metrics.inc("frontend.executions", 1);

        let exec_detail = served.first().map_or_else(
            || "empty batch".to_string(),
            |r| {
                format!(
                    "{}: {} x{batch_size} in {:.6}s (attempts {}{})",
                    batch.reason.label(),
                    r.algorithm.name(),
                    r.sim_seconds,
                    r.attempts,
                    if r.fell_back { ", fell back" } else { "" },
                )
            },
        );
        let mut responses = Vec::with_capacity(batch_size);
        for (member, reply) in batch.members.into_iter().zip(served) {
            let state = &mut self.tenants[member.tenant];
            state.in_flight_k -= member.key.2;
            state.completed += 1;
            let name = state.name.clone();
            if reply.output.is_ok() {
                self.served_plans.insert(member.key, ());
            }
            let response = FrontendResponse {
                job: JobId(member.job),
                tenant: name.clone(),
                output: reply.output,
                algorithm: reply.algorithm,
                close_reason: batch.reason,
                batch_size,
                exec_sim_seconds: reply.sim_seconds,
                arrival_sim_seconds: member.arrival_sim,
                completion_sim_seconds: completion,
                deadline_sim_seconds: member.deadline_sim,
                cache_hit: reply.cache_hit,
                attempts: reply.attempts,
                fell_back: reply.fell_back,
            };
            let latency_ns = (response.latency_sim_seconds() * 1e9).round().max(0.0) as u64;
            self.metrics.inc("frontend.completed", 1);
            self.metrics.inc_labeled("frontend.completed", ("tenant", &name), 1);
            self.metrics.observe("frontend.latency_sim_ns", latency_ns);
            self.metrics.observe_labeled("frontend.latency_sim_ns", ("tenant", &name), latency_ns);
            let deadline_note = match response.deadline_met() {
                Some(true) => {
                    self.tenants[member.tenant].deadline_hits += 1;
                    self.metrics.inc("frontend.deadline.hits", 1);
                    self.metrics.inc_labeled("frontend.deadline.hits", ("tenant", &name), 1);
                    ", deadline met"
                }
                Some(false) => {
                    self.tenants[member.tenant].deadline_misses += 1;
                    self.metrics.inc("frontend.deadline.misses", 1);
                    self.metrics.inc_labeled("frontend.deadline.misses", ("tenant", &name), 1);
                    ", deadline MISSED"
                }
                None => "",
            };
            self.record(
                FrontendPhase::Complete,
                PhaseClass::Other,
                name,
                vec![response.job.0],
                format!(
                    "latency {:.6}s over batch of {batch_size}{deadline_note}",
                    response.latency_sim_seconds()
                ),
            );
            responses.push(response);
        }
        self.record(FrontendPhase::Execute, class, String::new(), jobs, exec_detail);
        self.reset_idle_deficits();
        responses
    }

    fn predicted_for(&mut self, service: &SpmmService, key: GroupKey) -> f64 {
        if let Some(&p) = self.predicted.get(&key) {
            return p;
        }
        let p = service.predicted_seconds(key.0, key.1, key.2).unwrap_or(0.0);
        self.predicted.insert(key, p);
        p
    }

    fn refresh(&mut self, service: &SpmmService) {
        self.sim_now = service.sim_seconds();
        self.cache_bytes = service.cache_stats().bytes;
    }

    /// Standard DRR hygiene: a tenant with nothing queued anywhere loses
    /// its accumulated credit (otherwise an idle tenant could hoard deficit
    /// and later burst past its fair share).
    fn reset_idle_deficits(&mut self) {
        for t in &mut self.tenants {
            if t.queued == 0 {
                t.deficit = 0;
            }
        }
    }

    fn record(
        &mut self,
        phase: FrontendPhase,
        class: PhaseClass,
        tenant: String,
        jobs: Vec<u64>,
        detail: String,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(FrontendEvent {
            seq,
            phase,
            class,
            tenant,
            jobs,
            sim_seconds: self.sim_now,
            detail,
        });
    }

    pub(crate) fn set_draining(&mut self, draining: bool) {
        self.draining = draining;
    }

    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn events(&self) -> &[FrontendEvent] {
        &self.events
    }

    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub(crate) fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    pub(crate) fn jobs_of(&self, tenant: &str) -> Option<&[u64]> {
        let at = self.tenants.iter().position(|t| t.name == tenant)?;
        Some(&self.tenant_jobs[at])
    }

    pub(crate) fn tenant_digest(&self, name: &str) -> Option<TenantDigest> {
        let state = self.tenants.iter().find(|t| t.name == name)?;
        let latency = self.metrics.histogram_labeled("frontend.latency_sim_ns", ("tenant", name));
        let q = |h: Option<&Histogram>, at: f64| h.and_then(|h| h.quantile(at)).unwrap_or(0.0);
        Some(TenantDigest {
            tenant: state.name.clone(),
            submitted: state.submitted,
            rejected: state.rejected,
            completed: state.completed,
            latency_ns_p50: q(latency, 0.50),
            latency_ns_p95: q(latency, 0.95),
            deadline_hits: state.deadline_hits + {
                // Best-effort completions count as hits (they had no
                // deadline to miss); keep the counter pure and add them
                // here so hit + miss always equals completed.
                state.completed - state.deadline_hits - state.deadline_misses
            },
            deadline_misses: state.deadline_misses,
        })
    }
}
