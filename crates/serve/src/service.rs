//! The persistent SpMM service.

use crate::cache::{CacheStats, PlanCache};
use crate::error::ServeError;
use crate::former::{form_batches, Batch, Pending};
use crate::timeline::{dominant_class, SessionEvent, SessionPhase};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twoface_core::{
    predict_latency, resolve_auto, run_algorithm_on, Algorithm, AsyncLayout, ExecutionReport,
    PreparedMatrix, Problem, RunError, RunOptions, TwoFaceConfig,
};
use twoface_matrix::{CooMatrix, DenseMatrix, Fingerprint};
use twoface_net::{
    Cluster, CostModel, FaultPlan, Histogram, MetricsRegistry, Observability, PhaseClass,
};
use twoface_partition::{ClassifierKind, ModelCoefficients, OneDimLayout, PartitionPlan};

/// Static configuration of an [`SpmmService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Rank count of the persistent cluster.
    pub p: usize,
    /// The machine model. The cluster is built once with the effective cost
    /// (thread split folded in per [`TwoFaceConfig::effective_cost`]).
    pub cost: CostModel,
    /// Table-2 runtime knobs applied to every run.
    pub exec: TwoFaceConfig,
    /// Stripe classifier for plan construction.
    pub classifier: ClassifierKind,
    /// Model-coefficient override for plan construction (`None` derives
    /// them from the effective cost, a perfectly calibrated regression).
    pub coefficients: Option<ModelCoefficients>,
    /// Maximum fused dense-column count per batched execution. Requests are
    /// fused while their combined `K` stays within this bound; a single
    /// request wider than the bound still runs (solo).
    pub max_k_per_batch: usize,
    /// Byte budget of the plan cache.
    pub cache_budget_bytes: usize,
    /// Transient-failure retries per algorithm attempt: a request may
    /// execute up to `1 + retry_budget` times before the scheduler gives up
    /// (or falls back). Each retry reseeds the fault plan — identical seeds
    /// would deterministically replay the identical failure.
    pub retry_budget: u32,
    /// Whether plan-based algorithms fall back to the dense allgather
    /// baseline (which uses no one-sided transfers) after exhausting their
    /// retry budget on `TransferTimeout`s.
    pub fallback: bool,
    /// Fault plan installed for every execution (`None` = perfect network).
    pub fault_plan: Option<FaultPlan>,
    /// Per-operation observability for the underlying runs.
    pub observability: Observability,
    /// Real worker threads for kernels and preprocessing (`None` resolves
    /// `TWOFACE_THREADS`, then host parallelism).
    pub workers: Option<usize>,
}

impl ServeConfig {
    /// A service over `p` ranks of `cost` with the defaults: Two-Face
    /// config and greedy classifier, 512-column batches, a 256 MiB plan
    /// cache, 2 retries, and fallback enabled.
    pub fn new(p: usize, cost: CostModel) -> ServeConfig {
        ServeConfig {
            p,
            cost,
            exec: TwoFaceConfig::default(),
            classifier: ClassifierKind::Greedy,
            coefficients: None,
            max_k_per_batch: 512,
            cache_budget_bytes: 256 << 20,
            retry_budget: 2,
            fallback: true,
            fault_plan: None,
            observability: Observability::off(),
            workers: None,
        }
    }
}

/// Opaque handle to a matrix registered with
/// [`SpmmService::register_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixHandle(u64);

impl MatrixHandle {
    /// The raw handle id.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Opaque id of a submitted request; responses carry it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw request id.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One SpMM request: `C = A × B` for a registered `A`.
#[derive(Debug, Clone)]
pub struct SpmmRequest {
    /// Which registered matrix to multiply.
    pub matrix: MatrixHandle,
    /// The dense operand (`A.cols()` rows; its column count is the
    /// request's `K`).
    pub b: Arc<DenseMatrix>,
    /// The algorithm to schedule (plan caching applies to the Two-Face
    /// family; others run uncached but still batch).
    pub algorithm: Algorithm,
}

impl SpmmRequest {
    /// A Two-Face request.
    pub fn new(matrix: MatrixHandle, b: Arc<DenseMatrix>) -> SpmmRequest {
        SpmmRequest { matrix, b, algorithm: Algorithm::TwoFace }
    }
}

/// The outcome of one request.
#[derive(Debug, Clone)]
pub struct SpmmResponse {
    /// The request this answers.
    pub request: RequestId,
    /// The output `C`, or why execution failed.
    pub output: Result<DenseMatrix, ServeError>,
    /// The algorithm that actually produced the output (differs from the
    /// requested one after a fallback).
    pub algorithm: Algorithm,
    /// Simulated seconds of the execution that served this request (shared
    /// by every request fused into the same batch).
    pub sim_seconds: f64,
    /// Host wall nanoseconds spent building preprocessing artifacts for
    /// this request's batch; zero on a plan-cache hit.
    pub prep_wall_nanos: u64,
    /// Plan-cache outcome: `Some(true)` hit, `Some(false)` miss, `None`
    /// for algorithms that use no plan.
    pub cache_hit: Option<bool>,
    /// How many requests shared the fused execution (1 = solo).
    pub batch_size: usize,
    /// Execution attempts made (1 on the happy path; more after retries
    /// and fallback).
    pub attempts: u32,
    /// Whether the scheduler fell back to the dense allgather baseline.
    pub fell_back: bool,
}

struct Registered {
    a: Arc<CooMatrix>,
    stripe_width: usize,
    fingerprint: u64,
}

impl Registered {
    fn layout(&self, p: usize) -> OneDimLayout {
        OneDimLayout::new(self.a.rows(), self.a.cols(), p, self.stripe_width)
    }
}

/// A long-lived SpMM serving session.
///
/// Owns a persistent [`Cluster`] in window-retention ("warm") mode, a
/// fingerprint-keyed [`PlanCache`] of preprocessing artifacts, and a request
/// queue. [`SpmmService::execute`] runs a batch its caller formed as given;
/// [`SpmmService::drain`] forms batches from the queue: compatible requests
/// (same matrix, algorithm, and `K`) are fused into one execution up to
/// [`ServeConfig::max_k_per_batch`] columns, preprocessing is served from
/// the cache when the fingerprint matches, and failures are retried under
/// reseeded fault plans before optionally falling back to the dense
/// allgather baseline.
///
/// # Bit-identity contract
///
/// A batched execution produces each request's `C` bit-identically to a solo
/// run of the same request through the same service. Both paths use the same
/// cached [`PartitionPlan`] (classification fixes the floating-point
/// accumulation order), and fusing `B` panels only appends columns: SpMM
/// accumulates every output element along its row's nonzeros independently
/// of neighboring columns, so splitting the fused output recovers exactly
/// the solo bits.
pub struct SpmmService {
    config: ServeConfig,
    cluster: Cluster,
    matrices: Vec<Registered>,
    cache: PlanCache,
    queue: Vec<Pending>,
    metrics: MetricsRegistry,
    timeline: Vec<SessionEvent>,
    next_request: u64,
    next_seq: u64,
    sim_now: f64,
}

impl SpmmService {
    /// Creates a service: builds the persistent cluster (in window-retention
    /// mode) and an empty plan cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.p == 0`, or if a thread count in `config.exec` is
    /// zero: the effective cost the cluster is built with divides by each.
    /// [`TwoFaceConfig::check`] reports any zero field of `config.exec` as a
    /// typed error instead.
    pub fn new(config: ServeConfig) -> SpmmService {
        let cluster = Cluster::new(config.p, config.exec.effective_cost(&config.cost));
        cluster.set_window_retention(true);
        let cache = PlanCache::new(config.cache_budget_bytes);
        SpmmService {
            cluster,
            cache,
            config,
            matrices: Vec::new(),
            queue: Vec::new(),
            metrics: MetricsRegistry::new(),
            timeline: Vec::new(),
            next_request: 0,
            next_seq: 0,
            sim_now: 0.0,
        }
    }

    /// Registers a sparse matrix for serving: validates the layout, takes a
    /// content fingerprint, and returns a handle for requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shape`] when `a` cannot be laid out over the service's
    /// `p` ranks with `stripe_width`.
    pub fn register_matrix(
        &mut self,
        a: Arc<CooMatrix>,
        stripe_width: usize,
    ) -> Result<MatrixHandle, ServeError> {
        let p = self.config.p;
        if stripe_width == 0 || p > a.rows().max(1) || p > a.cols().max(1) {
            return Err(ServeError::Shape {
                context: format!(
                    "cannot lay out a {}x{} matrix over {p} nodes with stripe width {stripe_width}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let start = Instant::now();
        let fingerprint = a.fingerprint();
        let handle = MatrixHandle(self.matrices.len() as u64);
        let detail = format!(
            "matrix {} ({}x{}, {} nnz, stripe width {stripe_width})",
            handle.0,
            a.rows(),
            a.cols(),
            a.nnz()
        );
        self.matrices.push(Registered { a, stripe_width, fingerprint });
        self.metrics.inc("serve.matrices_registered", 1);
        self.record(
            SessionPhase::Register,
            PhaseClass::Other,
            Vec::new(),
            0.0,
            start.elapsed().as_nanos() as u64,
            detail,
        );
        Ok(handle)
    }

    /// Queues a request; execution happens at the next [`SpmmService::drain`].
    ///
    /// # Errors
    ///
    /// [`check_operand`]'s errors: [`ServeError::UnknownMatrix`] for a
    /// foreign handle and [`ServeError::Shape`] when `B`'s row count differs
    /// from `A`'s column count (or `B` has no columns).
    pub fn submit(&mut self, request: SpmmRequest) -> Result<RequestId, ServeError> {
        self.check(&request)?;
        let pending = self.accept(request);
        let id = RequestId(pending.id);
        self.queue.push(pending);
        self.metrics.observe("serve.queue_depth", self.queue.len() as u64);
        Ok(id)
    }

    /// Runs one request alone, leaving the queue untouched — the
    /// convenience path for callers without concurrent traffic.
    ///
    /// # Errors
    ///
    /// Everything [`SpmmService::submit`] rejects; execution failures are
    /// reported inside the returned response.
    pub fn run_one(&mut self, request: SpmmRequest) -> Result<SpmmResponse, ServeError> {
        self.check(&request)?;
        Ok(self.execute(vec![request]).pop().expect("execute answers every request"))
    }

    /// Runs `requests` as one fused batch, exactly as the caller formed it,
    /// and answers them in the order given; like [`SpmmService::drain`], it
    /// ends by releasing the retained windows. The batch is not re-formed,
    /// so [`ServeConfig::max_k_per_batch`] is the caller's to respect.
    ///
    /// # Errors
    ///
    /// If a request fails [`SpmmService::submit`]'s checks, or the requests
    /// do not share one `(matrix, algorithm, K)` ([`ServeError::MixedBatch`]),
    /// nothing runs: every response carries the first such error, and the
    /// requests count as failed.
    pub fn execute(&mut self, requests: Vec<SpmmRequest>) -> Vec<SpmmResponse> {
        let Some(first) = requests.first() else {
            return Vec::new();
        };
        let key = (first.matrix, first.algorithm, first.b.cols());
        let verdict = requests.iter().enumerate().try_for_each(|(index, r)| {
            self.check(r)?;
            if (r.matrix, r.algorithm, r.b.cols()) != key {
                return Err(ServeError::MixedBatch { index });
            }
            Ok(())
        });
        let requests: Vec<Pending> = requests.into_iter().map(|r| self.accept(r)).collect();
        let batch = Batch { matrix: requests[0].matrix, algorithm: key.1, k_each: key.2, requests };
        let mut responses = Vec::with_capacity(batch.requests.len());
        match verdict {
            Ok(()) => {
                self.execute_batch(batch, &mut responses);
                self.release();
            }
            Err(e) => self.fail_batch(&batch, e, 0, false, None, &mut responses),
        }
        responses
    }

    /// Executes every queued request and returns responses in submission
    /// order.
    ///
    /// Scheduling: requests are grouped by `(matrix, algorithm, K)` across
    /// the whole queue, so compatible requests fuse regardless of
    /// interleaving; each batch fuses `B` panels up to [`ServeConfig::max_k_per_batch`]
    /// columns and executes once on the warm cluster. After the queue is
    /// drained the session's retained windows are dropped
    /// ([`Cluster::reset`]), releasing the `B` buffers they pin.
    pub fn drain(&mut self) -> Vec<SpmmResponse> {
        let queue = std::mem::take(&mut self.queue);
        if queue.is_empty() {
            return Vec::new();
        }
        let batches = form_batches(queue, self.config.max_k_per_batch);
        let mut responses = Vec::new();
        for batch in batches {
            self.execute_batch(batch, &mut responses);
        }
        responses.sort_by_key(|r| r.request);
        self.release();
        responses
    }

    /// [`check_operand`] against this service's registered matrices.
    fn check(&self, request: &SpmmRequest) -> Result<(), ServeError> {
        let cols = self.matrices.get(request.matrix.0 as usize).map(|r| r.a.cols());
        check_operand(request.matrix, cols, &request.b)
    }

    /// Gives a request the next id and counts it as submitted.
    fn accept(&mut self, request: SpmmRequest) -> Pending {
        let id = self.next_request;
        self.next_request += 1;
        self.metrics.inc("serve.requests_submitted", 1);
        Pending {
            id,
            matrix: request.matrix.0 as usize,
            b: request.b,
            algorithm: request.algorithm,
        }
    }

    /// Ends a drain or an execute. Session windows survived each run of it;
    /// dropping them releases the `B` payloads they pin. The plan cache is
    /// unaffected.
    fn release(&mut self) {
        self.cluster.reset();
        let sim = self.sim_now;
        self.record(
            SessionPhase::Reset,
            PhaseClass::Other,
            Vec::new(),
            sim,
            0,
            "drained; retained windows released".into(),
        );
    }

    /// The plan-cache key a request for `(matrix, algorithm, k)` would use
    /// on this service — exposed for diagnostics and tests. Two services
    /// agree on a key exactly when the matrix contents, layout parameters,
    /// execution options, and cost model all agree; worker counts are
    /// deliberately excluded (preprocessing is deterministic across
    /// workers, so the artifact is too).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for a foreign handle, and
    /// [`ServeError::Config`] when `Auto` cannot resolve under the service's
    /// execution options.
    pub fn plan_cache_key(
        &self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<u64, ServeError> {
        let registered = self.registered(matrix)?;
        let resolved =
            self.resolve_algorithm(registered, algorithm, k).map_err(ServeError::config)?;
        Ok(self.cache_key(registered, resolved, k))
    }

    /// The calibrated cost model's predicted execution time, in simulated
    /// seconds, for a solo `(matrix, algorithm, k)` request on this service
    /// — the quantity a deadline-aware scheduler compares against an SLO.
    /// `Algorithm::Auto` predicts its resolved winner. Deterministic: two
    /// services with equal configuration and matrices agree exactly.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for a foreign handle, and
    /// [`ServeError::Config`] when the service's execution options are
    /// invalid.
    pub fn predicted_seconds(
        &self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<f64, ServeError> {
        let registered = self.registered(matrix)?;
        let layout = registered.layout(self.config.p);
        let effective = self.config.exec.effective_cost(&self.config.cost);
        predict_latency(&registered.a, &layout, k, &self.config.exec, &effective, algorithm)
            .map_err(ServeError::config)
    }

    /// Whether the preprocessing artifact a `(matrix, algorithm, k)` request
    /// would use is resident in the plan cache right now. Always `false`
    /// for algorithms that use no plan.
    ///
    /// # Errors
    ///
    /// As for [`SpmmService::plan_cache_key`].
    pub fn plan_resident(
        &self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<bool, ServeError> {
        let registered = self.registered(matrix)?;
        let resolved =
            self.resolve_algorithm(registered, algorithm, k).map_err(ServeError::config)?;
        Ok(resolved.uses_plan() && self.cache.contains(self.cache_key(registered, resolved, k)))
    }

    /// Shape and population of a registered matrix as
    /// `(rows, cols, nnz)` — what an admission layer needs to validate
    /// operands without holding the matrix itself. `None` for a foreign
    /// handle.
    pub fn matrix_shape(&self, matrix: MatrixHandle) -> Option<(usize, usize, usize)> {
        let registered = self.matrices.get(matrix.0 as usize)?;
        Some((registered.a.rows(), registered.a.cols(), registered.a.nnz()))
    }

    /// Every handle registered so far, in registration order.
    pub fn matrix_handles(&self) -> Vec<MatrixHandle> {
        (0..self.matrices.len() as u64).map(MatrixHandle).collect()
    }

    fn registered(&self, matrix: MatrixHandle) -> Result<&Registered, ServeError> {
        self.matrices.get(matrix.0 as usize).ok_or(ServeError::UnknownMatrix { handle: matrix.0 })
    }

    /// Resolves [`Algorithm::Auto`] against this matrix and the service's
    /// effective machine model — exactly the resolution the runner would
    /// perform, so the cache key and the plan flavor always describe the
    /// algorithm that actually executes. Concrete algorithms pass through;
    /// `Auto` fails on invalid execution options.
    fn resolve_algorithm(
        &self,
        registered: &Registered,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<Algorithm, RunError> {
        match algorithm {
            Algorithm::Auto => {
                let layout = registered.layout(self.config.p);
                let effective = self.config.exec.effective_cost(&self.config.cost);
                resolve_auto(&registered.a, &layout, k, &self.config.exec, &effective)
                    .map(|choice| choice.algorithm)
            }
            other => Ok(other),
        }
    }

    /// The content fingerprint of `(A, ExecOpts, cluster shape)` backing
    /// [`SpmmService::plan_cache_key`], for the `resolved` (concrete)
    /// algorithm.
    fn cache_key(&self, registered: &Registered, resolved: Algorithm, k: usize) -> u64 {
        let mut f = Fingerprint::new();
        f.mix_bytes(b"serve-key")
            .mix_u64(registered.fingerprint)
            .mix_usize(registered.stripe_width)
            .mix_usize(self.config.p)
            .mix_usize(k);
        // The resolved plan flavor — `Auto` requests key on whatever they
        // resolve to, so an Auto request and an explicit request for the
        // same winner share one artifact.
        f.mix_bytes(resolved.name().as_bytes());
        let e = &self.config.exec;
        f.mix_usize(e.async_comm_threads)
            .mix_usize(e.async_comp_threads)
            .mix_usize(e.sync_comp_threads)
            .mix_usize(e.row_panel_height)
            .mix_u64(match e.coalesce_distance_override {
                None => u64::MAX,
                Some(d) => d as u64,
            })
            .mix_u64(match e.async_layout {
                AsyncLayout::ColumnMajor => 0,
                AsyncLayout::RowMajor => 1,
            });
        match self.config.classifier {
            ClassifierKind::Greedy => {
                f.mix_u64(0);
            }
            ClassifierKind::FanoutAware { penalty } => {
                f.mix_u64(1).mix_f64(penalty);
            }
        }
        match self.config.coefficients {
            None => {
                f.mix_u64(0);
            }
            Some(c) => {
                f.mix_u64(1)
                    .mix_f64(c.beta_sync)
                    .mix_f64(c.alpha_sync)
                    .mix_f64(c.beta_async)
                    .mix_f64(c.alpha_async)
                    .mix_f64(c.gamma_async)
                    .mix_f64(c.kappa_async);
            }
        }
        let cost = serde_json::to_string(&self.config.cost).expect("cost model serializes");
        f.mix_bytes(cost.as_bytes());
        f.finish()
    }

    /// Fetches or builds the preprocessing artifact for a batch. Returns
    /// `(artifact, cache_hit, build_wall_nanos)`.
    fn prepared_for(
        &mut self,
        batch: &Batch,
        algorithm: Algorithm,
        ids: &[u64],
    ) -> Result<(Arc<PreparedMatrix>, bool, u64), ServeError> {
        let registered = &self.matrices[batch.matrix];
        let key = self.cache_key(registered, algorithm, batch.k_each);
        if let Some(prepared) = self.cache.get(key) {
            self.metrics.inc("serve.cache.hits", 1);
            let sim = self.sim_now;
            self.record(
                SessionPhase::CacheHit,
                PhaseClass::Other,
                ids.to_vec(),
                sim,
                0,
                format!("key {key:016x}: preprocessing skipped"),
            );
            return Ok((prepared, true, 0));
        }
        self.metrics.inc("serve.cache.misses", 1);
        let registered = &self.matrices[batch.matrix];
        let start = Instant::now();
        // The plan is keyed to the *per-request* K so solo and batched runs
        // share it; fusion only widens the dense operand at run time.
        let problem = Problem::new(
            Arc::clone(&registered.a),
            Arc::clone(&batch.requests[0].b),
            self.config.p,
            registered.stripe_width,
        )
        .map_err(|source| ServeError::Run { request: ids[0], attempts: 0, source })?;
        let mut options = self.base_options();
        if algorithm == Algorithm::AsyncFine {
            // Async Fine's "plan" is the uniform all-async classification.
            options.plan = Some(Arc::new(PartitionPlan::build_uniform(
                &registered.a,
                registered.layout(self.config.p),
                batch.k_each,
                twoface_partition::StripeClass::Async,
            )));
        }
        let prepared =
            PreparedMatrix::build(&problem, &self.config.cost, &options)
                .map(Arc::new)
                .map_err(|source| ServeError::Run { request: ids[0], attempts: 0, source })?;
        let wall = start.elapsed().as_nanos() as u64;
        let evictions_before = self.cache.stats().evictions;
        self.cache.insert(key, Arc::clone(&prepared));
        let evicted = self.cache.stats().evictions - evictions_before;
        if evicted > 0 {
            self.metrics.inc("serve.cache.evictions", evicted);
        }
        self.metrics.observe("serve.prep_wall_ns", wall);
        let sim = self.sim_now;
        self.record(
            SessionPhase::Prepare,
            PhaseClass::Other,
            ids.to_vec(),
            sim,
            wall,
            format!(
                "key {key:016x}: built {} bytes of artifacts{}",
                prepared.approx_bytes(),
                if evicted > 0 { " (evicted LRU entries)" } else { "" }
            ),
        );
        Ok((prepared, false, wall))
    }

    fn base_options(&self) -> RunOptions {
        RunOptions {
            compute_values: true,
            validate: false,
            config: self.config.exec,
            coefficients: self.config.coefficients,
            classifier: self.config.classifier,
            plan: None,
            prepared: None,
            fault_plan: self.config.fault_plan.clone(),
            workers: self.config.workers,
            observability: self.config.observability.clone(),
            memory_budget: None,
        }
    }

    /// Executes one batch end to end: cache, fuse, run (with retries and
    /// fallback), split, respond.
    fn execute_batch(&mut self, batch: Batch, out: &mut Vec<SpmmResponse>) {
        let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        // Auto resolves once, up front: the resolved algorithm decides the
        // plan flavor and the cache key. The runner re-resolves to the same
        // choice (resolution is deterministic), keeping Auto provenance in
        // the report.
        let resolved = match self.resolve_algorithm(
            &self.matrices[batch.matrix],
            batch.algorithm,
            batch.k_each,
        ) {
            Ok(resolved) => resolved,
            Err(source) => {
                let e = ServeError::Run { request: ids[0], attempts: 0, source };
                self.fail_batch(&batch, e, 0, false, None, out);
                return;
            }
        };
        let uses_plan = resolved.uses_plan();

        let (prepared, cache_hit, prep_wall_nanos) = if uses_plan {
            match self.prepared_for(&batch, resolved, &ids) {
                Ok((prepared, hit, wall)) => (Some(prepared), Some(hit), wall),
                Err(e) => {
                    self.fail_batch(&batch, e, 0, false, None, out);
                    return;
                }
            }
        } else {
            (None, None, 0)
        };

        let registered = &self.matrices[batch.matrix];
        let fused_b = fuse_panels(&batch);
        let problem = match Problem::new(
            Arc::clone(&registered.a),
            fused_b,
            self.config.p,
            registered.stripe_width,
        ) {
            Ok(problem) => problem,
            Err(e) => {
                let e = ServeError::Run { request: ids[0], attempts: 0, source: e };
                self.fail_batch(&batch, e, 0, false, None, out);
                return;
            }
        };

        let mut options = self.base_options();
        options.prepared = prepared;
        let mut algorithm = batch.algorithm;
        let mut attempts = 0u32;
        let mut fell_back = false;
        let result: Result<ExecutionReport, RunError> = loop {
            attempts += 1;
            if attempts > 1 {
                // A deterministic plan would replay the identical faults;
                // each retry (and the fallback) derives a fresh seed.
                options.fault_plan =
                    self.config.fault_plan.as_ref().map(|p| p.reseeded(attempts as u64 - 1));
            }
            let attempt =
                run_algorithm_on(&self.cluster, algorithm, &problem, &self.config.cost, &options);
            match attempt {
                Ok(report) => break Ok(report),
                Err(e @ (RunError::TransferTimeout { .. } | RunError::RankStalled { .. })) => {
                    // The fallback algorithm earns its own fresh budget.
                    let allowed = (1 + self.config.retry_budget) * if fell_back { 2 } else { 1 };
                    if attempts < allowed {
                        self.metrics.inc("serve.retries", 1);
                        let sim = self.sim_now;
                        self.record(
                            SessionPhase::Retry,
                            PhaseClass::Recovery,
                            ids.clone(),
                            sim,
                            0,
                            format!("attempt {attempts} failed ({e}); reseeding"),
                        );
                        continue;
                    }
                    let can_fall_back = self.config.fallback
                        && !fell_back
                        && uses_plan
                        && matches!(e, RunError::TransferTimeout { .. });
                    if can_fall_back {
                        fell_back = true;
                        algorithm = Algorithm::Allgather;
                        options.prepared = None;
                        self.metrics.inc("serve.fallbacks", 1);
                        let sim = self.sim_now;
                        self.record(
                            SessionPhase::Fallback,
                            PhaseClass::Recovery,
                            ids.clone(),
                            sim,
                            0,
                            format!(
                                "{} exhausted its retry budget ({e}); falling back to allgather",
                                batch.algorithm.name()
                            ),
                        );
                        continue;
                    }
                    break Err(e);
                }
                // Non-transient failures (shape, memory) retry nowhere.
                Err(e) => break Err(e),
            }
        };

        match result {
            Ok(mut report) => {
                let sim_start = self.sim_now;
                self.sim_now += report.seconds;
                self.record(
                    SessionPhase::Execute,
                    dominant_class(&report.critical_breakdown),
                    ids.clone(),
                    sim_start,
                    0,
                    format!(
                        "{} x{} (fused K = {}){}",
                        algorithm.name(),
                        batch.requests.len(),
                        problem.k(),
                        if fell_back { ", degraded" } else { "" }
                    ),
                );
                if let Some(last) = self.timeline.last_mut() {
                    last.sim_end_seconds = sim_start + report.seconds;
                }
                self.metrics.inc("serve.batches", 1);
                self.metrics.observe("serve.batch_requests", batch.requests.len() as u64);
                self.metrics.observe("serve.batch_fused_k", problem.k() as u64);
                let mut output = report.output.take().expect("service runs compute values");
                let batch_size = batch.requests.len();
                let mut col_offset = 0usize;
                for pending in &batch.requests {
                    let k = pending.b.cols();
                    // A solo request's columns are the whole output: hand it
                    // over instead of copying it.
                    let c = if batch_size == 1 {
                        std::mem::take(&mut output)
                    } else {
                        split_columns(&output, col_offset, k)
                    };
                    col_offset += k;
                    self.metrics.inc("serve.requests_completed", 1);
                    self.metrics
                        .observe("serve.request_sim_ns", (report.seconds * 1e9).round() as u64);
                    out.push(SpmmResponse {
                        request: RequestId(pending.id),
                        output: Ok(c),
                        algorithm,
                        sim_seconds: report.seconds,
                        prep_wall_nanos,
                        cache_hit,
                        batch_size,
                        attempts,
                        fell_back,
                    });
                }
            }
            Err(e) => {
                let e = ServeError::Run { request: ids[0], attempts, source: e };
                self.fail_batch(&batch, e, attempts, fell_back, cache_hit, out);
            }
        }
    }

    /// Answers every request of a failed batch with `error` (a `Run` error
    /// names each request), counting them as failed.
    fn fail_batch(
        &mut self,
        batch: &Batch,
        error: ServeError,
        attempts: u32,
        fell_back: bool,
        cache_hit: Option<bool>,
        out: &mut Vec<SpmmResponse>,
    ) {
        self.metrics.inc("serve.requests_failed", batch.requests.len() as u64);
        for pending in &batch.requests {
            let error = match &error {
                ServeError::Run { attempts, source, .. } => ServeError::Run {
                    request: pending.id,
                    attempts: *attempts,
                    source: source.clone(),
                },
                other => other.clone(),
            };
            out.push(SpmmResponse {
                request: RequestId(pending.id),
                output: Err(error),
                algorithm: pending.algorithm,
                sim_seconds: 0.0,
                prep_wall_nanos: 0,
                cache_hit,
                batch_size: batch.requests.len(),
                attempts,
                fell_back,
            });
        }
    }

    fn record(
        &mut self,
        phase: SessionPhase,
        class: PhaseClass,
        requests: Vec<u64>,
        sim_seconds: f64,
        wall_nanos: u64,
        detail: String,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timeline.push(SessionEvent {
            seq,
            phase,
            class,
            requests,
            sim_start_seconds: sim_seconds,
            sim_end_seconds: sim_seconds,
            wall_nanos,
            detail,
        });
    }

    /// The session timeline so far.
    pub fn timeline(&self) -> &[SessionEvent] {
        &self.timeline
    }

    /// Counters and histograms of the session (cache hits/misses/evictions,
    /// batches, retries, fallbacks, request latencies).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Quantile sketch of per-request simulated service latency in
    /// nanoseconds — one sample per completed request, read back with
    /// [`Histogram::quantile`]. `None` before any request completes.
    pub fn latency_sketch(&self) -> Option<&Histogram> {
        self.metrics.histogram("serve.request_sim_ns")
    }

    /// Quantile sketch of the pending-queue depth, sampled after every
    /// accepted submit. `None` before any submit.
    pub fn queue_depth_sketch(&self) -> Option<&Histogram> {
        self.metrics.histogram("serve.queue_depth")
    }

    /// The timeline's summary row: deterministic latency and queue-depth
    /// percentiles for the session so far. Everything derives from
    /// simulated time and queue counts — never host wall time — so two
    /// replays of the same request sequence digest identically.
    pub fn session_digest(&self) -> SessionDigest {
        let latency = self.latency_sketch();
        let depth = self.queue_depth_sketch();
        let q = |h: Option<&Histogram>, at: f64| h.and_then(|h| h.quantile(at)).unwrap_or(0.0);
        SessionDigest {
            requests: latency.map_or(0, Histogram::count),
            latency_ns_p50: q(latency, 0.50),
            latency_ns_p95: q(latency, 0.95),
            latency_ns_p99: q(latency, 0.99),
            queue_depth_p50: q(depth, 0.50),
            queue_depth_max: depth.and_then(Histogram::max).unwrap_or(0),
        }
    }

    /// Plan-cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative simulated seconds executed by this session.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_now
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The persistent cluster (e.g. to inspect its configuration).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Drops cached plans and retained windows, returning the session to a
    /// cold state (counters and the timeline are preserved; they describe
    /// history).
    pub fn reset_session(&mut self) {
        self.cache.clear();
        self.cluster.reset();
        let sim = self.sim_now;
        self.record(
            SessionPhase::Reset,
            PhaseClass::Other,
            Vec::new(),
            sim,
            0,
            "explicit session reset: plan cache and windows dropped".into(),
        );
    }
}

/// The session's latency/queue-depth percentile digest (see
/// [`SpmmService::session_digest`]). Serializable for inclusion in bench
/// results and timeline exports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionDigest {
    /// Completed requests (the latency sample count).
    pub requests: u64,
    /// Median per-request simulated latency, in nanoseconds.
    pub latency_ns_p50: f64,
    /// 95th-percentile per-request simulated latency, in nanoseconds.
    pub latency_ns_p95: f64,
    /// 99th-percentile per-request simulated latency, in nanoseconds.
    pub latency_ns_p99: f64,
    /// Median pending-queue depth observed at submit time.
    pub queue_depth_p50: f64,
    /// Deepest pending queue observed at submit time.
    pub queue_depth_max: u64,
}

/// The one request check, shared by [`SpmmService::submit`],
/// [`SpmmService::execute`] and admission layers that hold only the
/// registered matrices' column counts: `cols` is the column count of the
/// matrix behind `handle`, `None` when no such matrix is registered.
///
/// # Errors
///
/// [`ServeError::UnknownMatrix`] when `cols` is `None`, and
/// [`ServeError::Shape`] when `B` does not have `cols` rows or has no
/// columns.
pub fn check_operand(
    handle: MatrixHandle,
    cols: Option<usize>,
    b: &DenseMatrix,
) -> Result<(), ServeError> {
    let Some(cols) = cols else {
        return Err(ServeError::UnknownMatrix { handle: handle.0 });
    };
    let (rows, k) = (b.rows(), b.cols());
    if rows != cols || k == 0 {
        let context = format!("matrix {} has {cols} columns but B is {rows}x{k}", handle.0);
        return Err(ServeError::Shape { context });
    }
    Ok(())
}

/// Fuses the batch's `B` panels into one row-major operand with
/// `Σ K_i` columns, request panels left to right in batch order.
fn fuse_panels(batch: &Batch) -> Arc<DenseMatrix> {
    if batch.requests.len() == 1 {
        return Arc::clone(&batch.requests[0].b);
    }
    let rows = batch.requests[0].b.rows();
    let total_k: usize = batch.requests.iter().map(|r| r.b.cols()).sum();
    let mut flat = Vec::with_capacity(rows * total_k);
    for row in 0..rows {
        for request in &batch.requests {
            flat.extend_from_slice(request.b.row(row));
        }
    }
    Arc::new(DenseMatrix::from_vec(rows, total_k, flat).expect("fused panels tile exactly"))
}

/// Extracts columns `[offset, offset + k)` of `c` as an owned matrix.
fn split_columns(c: &DenseMatrix, offset: usize, k: usize) -> DenseMatrix {
    let rows = c.rows();
    let mut flat = Vec::with_capacity(rows * k);
    for row in 0..rows {
        flat.extend_from_slice(&c.row(row)[offset..offset + k]);
    }
    DenseMatrix::from_vec(rows, k, flat).expect("column slice tiles exactly")
}
