//! The experiment runner: sets up a problem, checks memory feasibility,
//! executes an algorithm on a simulated cluster, and reports timing,
//! breakdowns, and (optionally) the verified output.

use crate::algo::twoface::TwoFaceData;
use crate::algo::Algorithm;
use crate::config::TwoFaceConfig;
use crate::error::{RankError, RunError};
use crate::pool::{resolve_workers, Pool};
use crate::reference::reference_spmm_pooled;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use twoface_matrix::{CooMatrix, DenseMatrix, SCALAR_BYTES};
use twoface_net::{
    export, seconds_by_class, Cluster, CostModel, FaultPlan, MetricsRegistry, Observability,
    OpEvent, PhaseClass, ProfileSummary, RankOutput, RankTrace,
};
use twoface_partition::{
    profile_all_nodes, ClassifierKind, ModelCoefficients, NodeProfile, OneDimLayout, PartitionPlan,
    PlanOptions, StripeClass,
};

/// Approximate bytes to store one COO nonzero (row, col, value).
pub(crate) const NNZ_BYTES: usize = 24;

/// Environment variable naming a trace file to write after every
/// [`run_algorithm`] call. A `.jsonl` extension selects the line-delimited
/// event format ([`export::events_jsonl`]); anything else gets Chrome
/// trace-event JSON ([`export::chrome_trace_json`]) loadable in Perfetto.
/// Setting the variable promotes [`RunOptions::observability`] to
/// [`Observability::full`] when it is off. Subsequent runs in the same
/// process write to uniquely suffixed paths (`trace.1.json`, ...).
pub const TRACE_ENV: &str = "TWOFACE_TRACE";

/// Process-wide count of trace files written, used to keep one
/// `TWOFACE_TRACE` destination from being clobbered by multi-run binaries.
static TRACE_FILES_WRITTEN: AtomicU64 = AtomicU64::new(0);

/// Environment variable naming a [`ProfileSummary`] artifact to maintain
/// across every run in this process. Setting it promotes
/// [`RunOptions::observability`] to at least
/// [`Observability::comm`] when it is off, distills each run's event stream
/// into a per-(phase, op-kind) summary, and folds it into a process-global
/// accumulator keyed by the destination path — multi-run binaries (the
/// benches) produce one merged artifact, rewritten after every run so a
/// crashed sweep still leaves the completed runs' profile behind. The
/// artifact is deterministic: it derives from simulated clocks only, so the
/// fleet gate can compare it bit-exactly and diff it for attribution.
pub const PROFILE_ENV: &str = "TWOFACE_PROFILE";

/// Per-destination merged profile summaries (see [`PROFILE_ENV`]).
static PROFILE_SUMMARIES: Mutex<BTreeMap<PathBuf, ProfileSummary>> = Mutex::new(BTreeMap::new());

/// Resolved diagnostics for one run: the effective observability plus the
/// optional trace and profile destinations forced by [`TRACE_ENV`] /
/// [`PROFILE_ENV`]. Every entry point resolves one and hands it to
/// [`harvest`], so all honor the same environment knobs.
pub(crate) struct ResolvedObservability {
    pub(crate) observability: Observability,
    pub(crate) trace_path: Option<PathBuf>,
    pub(crate) profile_path: Option<PathBuf>,
}

/// Resolves the observability settings and optional trace/profile
/// destinations for one run: `TWOFACE_TRACE` forces full tracing on,
/// `TWOFACE_PROFILE` forces at least communication-level recording.
pub(crate) fn resolve_observability(requested: &Observability) -> ResolvedObservability {
    let env_path = |name: &str| match std::env::var_os(name) {
        Some(path) if !path.is_empty() => Some(PathBuf::from(path)),
        _ => None,
    };
    let trace_path = env_path(TRACE_ENV);
    let profile_path = env_path(PROFILE_ENV);
    let mut observability = requested.clone();
    if trace_path.is_some() && !observability.enabled() {
        observability = Observability::full();
    }
    if profile_path.is_some() && !observability.enabled() {
        observability = Observability::comm();
    }
    ResolvedObservability { observability, trace_path, profile_path }
}

/// Folds one run's event stream into the process-global accumulator for
/// `path` and rewrites the artifact. Like tracing, failures warn on stderr
/// rather than failing the run.
fn write_profile_file(path: &Path, events_by_rank: &[Vec<OpEvent>]) {
    let run = ProfileSummary::from_events(events_by_rank);
    let mut all = PROFILE_SUMMARIES.lock().expect("profile accumulator poisoned");
    let total = all.entry(path.to_path_buf()).or_insert_with(ProfileSummary::empty);
    total.merge(&run);
    let mut body = total.to_json_pretty();
    body.push('\n');
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: failed to write {PROFILE_ENV} file {}: {e}", path.display());
    }
}

/// Writes one run's event stream to `path`, dispatching on the extension.
/// Failures are reported on stderr rather than failing the run: tracing is
/// diagnostics, not a correctness surface.
fn write_trace_file(
    path: &Path,
    events_by_rank: &[Vec<OpEvent>],
    traces: &[RankTrace],
    include_wall: bool,
) {
    let n = TRACE_FILES_WRITTEN.fetch_add(1, Ordering::Relaxed);
    let path = if n == 0 {
        path.to_path_buf()
    } else {
        // trace.json -> trace.1.json; extensionless paths get a suffix.
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => path.with_extension(format!("{n}.{ext}")),
            None => path.with_extension(n.to_string()),
        }
    };
    let body = if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
        export::events_jsonl(events_by_rank, traces, include_wall)
    } else {
        export::chrome_trace_json(events_by_rank, include_wall)
    };
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: failed to write {TRACE_ENV} file {}: {e}", path.display());
    }
}

/// A distributed SpMM problem instance: the operands plus the layout.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The global sparse matrix `A`.
    pub a: Arc<CooMatrix>,
    /// The global dense input `B` (`a.cols()` rows).
    pub b: Arc<DenseMatrix>,
    /// The 1D layout distributing both.
    pub layout: OneDimLayout,
}

impl Problem {
    /// Creates a problem over `p` nodes with the given stripe width.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Shape`] if `b.rows() != a.cols()` or the layout
    /// parameters are infeasible.
    pub fn new(
        a: Arc<CooMatrix>,
        b: Arc<DenseMatrix>,
        p: usize,
        stripe_width: usize,
    ) -> Result<Problem, RunError> {
        if b.rows() != a.cols() {
            return Err(RunError::Shape {
                context: format!("A is {}x{} but B has {} rows", a.rows(), a.cols(), b.rows()),
            });
        }
        if p == 0 || stripe_width == 0 || p > a.rows().max(1) || p > a.cols().max(1) {
            return Err(RunError::Shape {
                context: format!(
                    "cannot lay out a {}x{} matrix over {p} nodes with stripe width {stripe_width}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let layout = OneDimLayout::new(a.rows(), a.cols(), p, stripe_width);
        Ok(Problem { a, b, layout })
    }

    /// Creates a problem with a deterministically generated `B` (values in
    /// `[0, 1)` from a hash of the coordinates) — convenient for benches
    /// that don't care about specific inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::new`].
    pub fn with_generated_b(
        a: Arc<CooMatrix>,
        k: usize,
        p: usize,
        stripe_width: usize,
    ) -> Result<Problem, RunError> {
        let rows = a.cols();
        let b = DenseMatrix::from_fn(rows, k, generated_b_value);
        Problem::new(a, Arc::new(b), p, stripe_width)
    }

    /// The dense column count `K`.
    pub fn k(&self) -> usize {
        self.b.cols()
    }

    /// A copy of rank `rank`'s block of `B` as a flat buffer.
    pub fn b_block(&self, rank: usize) -> Vec<f64> {
        self.b.row_range(self.layout.col_range(rank)).to_vec()
    }
}

/// The deterministic element hash behind [`Problem::with_generated_b`]:
/// `B[i][j]` in `[0, 1)` from a mix of the coordinates.
pub(crate) fn generated_b_value(i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xC2B2AE3D27D4EB4F));
    let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8FEB86659FD93);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One rank's block of the deterministically generated `B`
/// ([`Problem::with_generated_b`]) as a flat row-major buffer — computed
/// directly from the row range, never materializing the full operand. The
/// streamed pipeline stages per-rank blocks with this; at any overlap scale
/// they are bit-identical to [`Problem::b_block`] on a generated problem.
pub fn generated_b_block(rows: std::ops::Range<usize>, k: usize) -> Vec<f64> {
    let mut block = Vec::with_capacity(rows.len() * k);
    for i in rows {
        for j in 0..k {
            block.push(generated_b_value(i, j));
        }
    }
    block
}

/// Options controlling one [`run_algorithm`] call.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Whether to actually perform the floating-point work. Structural
    /// operations (transfers, coalescing, cost accounting) always run;
    /// disabling this skips only the FMA loops, which makes large benchmark
    /// sweeps much faster while leaving all timing results identical.
    pub compute_values: bool,
    /// Compare the assembled output against the serial reference (implies
    /// `compute_values`).
    pub validate: bool,
    /// Table-2 runtime knobs.
    pub config: TwoFaceConfig,
    /// Coefficients for plan construction when no plan is supplied. `None`
    /// (the default) derives them from the cost model in force — a perfectly
    /// calibrated regression. Pass `Some` to study miscalibration, as
    /// Figure 12 does.
    pub coefficients: Option<ModelCoefficients>,
    /// Which stripe classifier builds the plan when none is supplied.
    /// Defaults to the paper's §4.2 greedy model.
    pub classifier: ClassifierKind,
    /// A preprocessed plan to reuse (otherwise one is built per run for the
    /// algorithms that need it).
    pub plan: Option<Arc<PartitionPlan>>,
    /// Full `B`-independent preprocessing output to reuse — the plan *and*
    /// every rank's Figure-6 structures (see
    /// [`PreparedMatrix`](crate::PreparedMatrix)). Takes precedence over
    /// [`RunOptions::plan`] for plan-using algorithms. The rank structures
    /// are only reused when the artifact is compatible with this run
    /// (same layout and `row_panel_height`); otherwise they are rebuilt from
    /// the prepared plan.
    pub prepared: Option<Arc<crate::prepared::PreparedMatrix>>,
    /// A seeded fault plan to install on the cluster for this run. `None`
    /// (the default) simulates a perfect network. Under a nonzero plan the
    /// run either recovers to a bit-identical output (retried transfers,
    /// absorbed jitter) or fails with a typed
    /// [`RunError::TransferTimeout`]/[`RunError::RankStalled`] — never a
    /// silent mismatch.
    pub fault_plan: Option<FaultPlan>,
    /// Real execution workers for local kernels, preprocessing, and
    /// verification. `None` (the default) resolves `TWOFACE_THREADS`, then
    /// the host's available parallelism. Orthogonal to the *modeled* thread
    /// counts in [`TwoFaceConfig`]: any worker count yields bit-identical
    /// outputs and identical simulated seconds.
    pub workers: Option<usize>,
    /// Per-operation event recording. Off by default (one branch per
    /// operation); at [`TraceLevel::Comm`](twoface_net::TraceLevel) every
    /// communication operation, meet wait, retry, and injected fault becomes
    /// an [`OpEvent`], and [`TraceLevel::Full`](twoface_net::TraceLevel)
    /// adds local kernel spans. Setting the [`TRACE_ENV`] environment
    /// variable promotes this to [`Observability::full`] and writes the
    /// stream to the named file after the run.
    pub observability: Observability,
    /// Host-side memory budget in bytes for the *staging* of a resident run:
    /// the operands plus every simulated rank's preprocessed structures,
    /// which all coexist in this process. `None` (the default) disables the
    /// check. When the estimated resident footprint exceeds the budget the
    /// run fails up front with [`RunError::HostBudgetExceeded`] instead of
    /// thrashing the host — the signal to switch to the streamed
    /// (out-of-core) pipeline in [`crate::stream`], which shares this knob
    /// via [`StreamOptions`](crate::StreamOptions).
    pub memory_budget: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            compute_values: true,
            validate: false,
            config: TwoFaceConfig::default(),
            coefficients: None,
            classifier: ClassifierKind::Greedy,
            plan: None,
            prepared: None,
            fault_plan: None,
            workers: None,
            observability: Observability::off(),
            memory_budget: None,
        }
    }
}

/// Per-rank execution options threaded into the algorithm bodies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecOpts {
    pub k: usize,
    pub compute: bool,
    pub panel_height: usize,
    /// Resolved real-worker count for local kernels (never zero).
    pub workers: usize,
}

/// A Figure-10 style time breakdown, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Synchronous communication.
    pub sync_comm: f64,
    /// Synchronous computation.
    pub sync_comp: f64,
    /// Asynchronous communication.
    pub async_comm: f64,
    /// Asynchronous computation.
    pub async_comp: f64,
    /// Setup and bookkeeping.
    pub other: f64,
    /// Fault-recovery backoff (zero on a perfect network; nonzero only under
    /// an installed fault plan with transient failures).
    pub recovery: f64,
}

impl Breakdown {
    pub(crate) fn from_trace(trace: &RankTrace) -> Breakdown {
        Breakdown {
            sync_comm: trace.seconds(PhaseClass::SyncComm),
            sync_comp: trace.seconds(PhaseClass::SyncComp),
            async_comm: trace.seconds(PhaseClass::AsyncComm),
            async_comp: trace.seconds(PhaseClass::AsyncComp),
            other: trace.seconds(PhaseClass::Other),
            recovery: trace.seconds(PhaseClass::Recovery),
        }
    }

    /// Derives a breakdown from one rank's event stream instead of its
    /// aggregate trace. At [`TraceLevel::Full`](twoface_net::TraceLevel)
    /// with no sampling, the result equals [`ExecutionReport`]'s
    /// trace-derived breakdowns to floating-point rounding — the two
    /// accounting systems are independent, which makes the comparison a
    /// cross-check (`trace_summary` and the observability tests rely on
    /// it). At lower levels or with sampling the event stream undercounts.
    pub fn from_events(events: &[OpEvent]) -> Breakdown {
        // seconds_by_class follows PhaseClass::ALL order.
        let s = seconds_by_class(events);
        Breakdown {
            sync_comp: s[0],
            sync_comm: s[1],
            async_comp: s[2],
            async_comm: s[3],
            other: s[4],
            recovery: s[5],
        }
    }

    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.sync_comm
            + self.sync_comp
            + self.async_comm
            + self.async_comp
            + self.other
            + self.recovery
    }

    pub(crate) fn scaled(&self, factor: f64) -> Breakdown {
        Breakdown {
            sync_comm: self.sync_comm * factor,
            sync_comp: self.sync_comp * factor,
            async_comm: self.async_comm * factor,
            async_comp: self.async_comp * factor,
            other: self.other * factor,
            recovery: self.recovery * factor,
        }
    }

    pub(crate) fn add(&mut self, other: &Breakdown) {
        self.sync_comm += other.sync_comm;
        self.sync_comp += other.sync_comp;
        self.async_comm += other.async_comm;
        self.async_comp += other.async_comp;
        self.other += other.other;
        self.recovery += other.recovery;
    }
}

/// The result of one simulated SpMM execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Display name of the algorithm.
    pub algorithm: String,
    /// Node count.
    pub p: usize,
    /// Dense column count.
    pub k: usize,
    /// The execution time: the latest finish over all ranks, in simulated
    /// seconds.
    pub seconds: f64,
    /// The rank that finished last.
    pub critical_rank: usize,
    /// Time breakdown of the critical rank.
    pub critical_breakdown: Breakdown,
    /// Mean breakdown across ranks.
    pub mean_breakdown: Breakdown,
    /// Per-rank breakdowns, indexed by rank (used by the calibration
    /// harness, which regresses per-rank component times on model features).
    pub rank_breakdowns: Vec<Breakdown>,
    /// Per-rank finish times in simulated seconds, indexed by rank.
    pub rank_seconds: Vec<f64>,
    /// Total dense elements received across all ranks (communication
    /// volume).
    pub elements_received: u64,
    /// Total communication operations issued across all ranks.
    pub messages: u64,
    /// Mean recipients per multicast, when any multicast was issued (the
    /// §7.2 profile).
    pub mean_multicast_recipients: Option<f64>,
    /// Full per-rank traces, indexed by rank — includes the fault-event
    /// stream and retry counters recorded under an installed fault plan.
    pub rank_traces: Vec<RankTrace>,
    /// Total faults injected across all ranks (zero on a perfect network).
    pub faults_injected: u64,
    /// Per-rank event streams, indexed by rank — empty vectors unless
    /// [`RunOptions::observability`] (or [`TRACE_ENV`]) enabled recording.
    pub rank_events: Vec<Vec<OpEvent>>,
    /// Counters and log₂ histograms merged across ranks (one-sided get
    /// sizes, retries per op, meet arrival spread, multicast fan-out,
    /// coalesced run lengths, ...). Empty unless recording was enabled.
    pub metrics: MetricsRegistry,
    /// Estimated peak per-node memory of the run, in bytes.
    pub memory_peak_bytes: usize,
    /// The assembled output `C`, present when `compute_values` was set.
    pub output: Option<DenseMatrix>,
}

/// Distributed SpMV: `y = A · x`, the `K = 1` special case of SpMM (§9).
///
/// Builds a one-column [`Problem`] around `x`, runs `algorithm`, and returns
/// the result vector alongside the full report. With `K = 1` the Table-2
/// coalescing rule turns maximally aggressive (distance 128), since a padded
/// "row" is a single scalar.
///
/// # Errors
///
/// Returns [`RunError::Shape`] if `x.len() != a.cols()` plus everything
/// [`run_algorithm`] can return.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use twoface_core::{run_spmv, Algorithm, RunOptions};
/// use twoface_matrix::gen::erdos_renyi;
/// use twoface_net::CostModel;
///
/// # fn main() -> Result<(), twoface_core::RunError> {
/// let a = Arc::new(erdos_renyi(64, 64, 300, 2));
/// let x = vec![1.0; 64];
/// let (y, report) = run_spmv(
///     Algorithm::TwoFace,
///     a,
///     &x,
///     4,
///     8,
///     &CostModel::delta_scaled(),
///     &RunOptions::default(),
/// )?;
/// assert_eq!(y.len(), 64);
/// assert!(report.seconds > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn run_spmv(
    algorithm: Algorithm,
    a: Arc<CooMatrix>,
    x: &[f64],
    p: usize,
    stripe_width: usize,
    cost: &CostModel,
    options: &RunOptions,
) -> Result<(Vec<f64>, ExecutionReport), RunError> {
    if x.len() != a.cols() {
        return Err(RunError::Shape {
            context: format!("x has {} elements but A has {} columns", x.len(), a.cols()),
        });
    }
    let b = DenseMatrix::from_vec(x.len(), 1, x.to_vec()).expect("one column per element");
    let problem = Problem::new(a, Arc::new(b), p, stripe_width)?;
    let options = RunOptions { compute_values: true, ..options.clone() };
    let report = run_algorithm(algorithm, &problem, cost, &options)?;
    let y = report.output.as_ref().expect("compute_values forced on").as_slice().to_vec();
    Ok((y, report))
}

/// Builds the Two-Face partition plan for a problem, applying the memory cap
/// the way §6.3 describes: the sync-stripe buffer budget is the node
/// capacity minus the operands' own footprint.
pub fn prepare_plan(
    problem: &Problem,
    coefficients: &ModelCoefficients,
    cost: &CostModel,
) -> PartitionPlan {
    prepare_plan_with_classifier(problem, coefficients, cost, ClassifierKind::Greedy)
}

/// [`prepare_plan`] with an explicit stripe classifier — use
/// [`ClassifierKind::FanoutAware`] for the paper's future-work variant that
/// prices multicast destination counts into the model.
pub fn prepare_plan_with_classifier(
    problem: &Problem,
    coefficients: &ModelCoefficients,
    cost: &CostModel,
    classifier: ClassifierKind,
) -> PartitionPlan {
    prepare_plan_inner(problem, coefficients, cost, classifier, resolve_workers(None))
}

/// The plan builder with every knob resolved; public entry points default
/// the worker count from the environment.
pub(crate) fn prepare_plan_inner(
    problem: &Problem,
    coefficients: &ModelCoefficients,
    cost: &CostModel,
    classifier: ClassifierKind,
    workers: usize,
) -> PartitionPlan {
    let profiles = profile_all_nodes(&problem.a, &problem.layout);
    plan_from_profiles(
        profiles,
        problem.layout.clone(),
        problem.k(),
        coefficients,
        cost.memory_per_node,
        classifier,
        workers,
    )
    .0
}

/// The Two-Face planner shared by the resident and streamed paths: each
/// rank's [`operand_bytes`] from its profiled nonzero count, the
/// [`sync_buffer_budget`] they leave, then classification from the
/// profiles. Returns the plan with the operand bytes.
pub(crate) fn plan_from_profiles(
    profiles: Vec<NodeProfile>,
    layout: OneDimLayout,
    k: usize,
    coefficients: &ModelCoefficients,
    memory_per_node: usize,
    classifier: ClassifierKind,
    workers: usize,
) -> (PartitionPlan, Vec<usize>) {
    let nnz_by_rank: Vec<usize> = profiles.iter().map(NodeProfile::total_nnz).collect();
    let operands = operand_bytes(&layout, k, &nnz_by_rank);
    let budget = sync_buffer_budget(&operands, &layout, k, memory_per_node);
    let plan = PartitionPlan::build_from_profiles(
        profiles,
        layout,
        coefficients,
        k,
        PlanOptions { sync_buffer_budget: Some(budget), classifier, workers },
    );
    (plan, operands)
}

/// §6.3's sync-stripe buffer budget: the node capacity minus the largest
/// rank's own `operands`, less headroom for the asynchronous fetch buffers
/// (bounded by twice the widest stripe's rows) so the capped plan is
/// actually runnable.
fn sync_buffer_budget(
    operands: &[usize],
    layout: &OneDimLayout,
    k: usize,
    memory_per_node: usize,
) -> usize {
    let base = operands.iter().copied().max().unwrap_or(0);
    let fetch_allowance = 2 * layout.stripe_width() * k * SCALAR_BYTES;
    memory_per_node.saturating_sub(base + fetch_allowance)
}

/// The simulated per-node memory gate: each rank's `operands` plus its
/// algorithm-specific `extra`. Returns the largest footprint, or
/// [`RunError::OutOfMemory`] naming the rank that exceeds `available`.
pub(crate) fn memory_gate(
    operands: &[usize],
    extra: impl Fn(usize) -> usize,
    available: usize,
) -> Result<usize, RunError> {
    let (rank, required) = operands
        .iter()
        .enumerate()
        .map(|(rank, base)| (rank, base + extra(rank)))
        .max_by_key(|&(_, bytes)| bytes)
        .expect("at least one rank");
    if required > available {
        return Err(RunError::OutOfMemory { rank, required, available });
    }
    Ok(required)
}

/// Bytes of each rank's own operands — its `A` partition, `B` block, and
/// `C` block — from its nonzero count.
fn operand_bytes(layout: &OneDimLayout, k: usize, nnz_by_rank: &[usize]) -> Vec<usize> {
    nnz_by_rank
        .iter()
        .enumerate()
        .map(|(rank, &nnz)| {
            nnz * NNZ_BYTES
                + layout.col_range(rank).len() * k * SCALAR_BYTES
                + layout.row_range(rank).len() * k * SCALAR_BYTES
        })
        .collect()
}

/// [`operand_bytes`] for every rank of a resident problem, in one pass over
/// the matrix (nonzeros are bucketed by row owner) instead of one full scan
/// per rank.
fn base_bytes_all_ranks(problem: &Problem) -> Vec<usize> {
    let layout = &problem.layout;
    let mut nnz_local = vec![0usize; layout.nodes()];
    for (r, _, _) in problem.a.iter() {
        nnz_local[layout.owner_of_row(r)] += 1;
    }
    operand_bytes(layout, problem.k(), &nnz_local)
}

/// Runs one algorithm on one problem under one cost model.
///
/// # Errors
///
/// * [`RunError::ReplicationExceedsNodes`] for `DS(c)` with `c > p`;
/// * [`RunError::OutOfMemory`] when the estimated peak on some node exceeds
///   [`CostModel::memory_per_node`];
/// * [`RunError::TransferTimeout`] / [`RunError::RankStalled`] when
///   `options.fault_plan` injects faults the retry budget or stall timeout
///   cannot absorb;
/// * [`RunError::ValidationFailed`] when `options.validate` is set and the
///   output disagrees with the serial reference.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use twoface_core::{run_algorithm, Algorithm, Problem, RunOptions};
/// use twoface_matrix::gen::erdos_renyi;
/// use twoface_net::CostModel;
///
/// # fn main() -> Result<(), twoface_core::RunError> {
/// let a = Arc::new(erdos_renyi(64, 64, 400, 7));
/// let problem = Problem::with_generated_b(a, 8, 4, 8)?;
/// let options = RunOptions { validate: true, ..Default::default() };
/// let report = run_algorithm(Algorithm::TwoFace, &problem, &CostModel::delta(), &options)?;
/// assert!(report.seconds > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn run_algorithm(
    algorithm: Algorithm,
    problem: &Problem,
    cost: &CostModel,
    options: &RunOptions,
) -> Result<ExecutionReport, RunError> {
    run_algorithm_inner(algorithm, problem, cost, options, None)
}

/// [`run_algorithm`] on a caller-owned [`Cluster`] instead of a fresh one
/// per run — the serving layer's warm-session entry point.
///
/// The cluster must have `problem`'s rank count and should be built with the
/// *effective* cost (`options.config.effective_cost(cost)`), which is what
/// [`run_algorithm`] itself simulates on. `options.fault_plan` and the
/// resolved observability are installed on the cluster for this run (each
/// run snapshots them, so concurrent configuration is not disturbed
/// mid-flight). Window retention is left exactly as the caller configured
/// it: with [`Cluster::set_window_retention`] enabled, windows created here
/// survive for later runs.
///
/// # Errors
///
/// Everything [`run_algorithm`] returns, plus [`RunError::Shape`] when the
/// cluster's rank count differs from the problem's layout.
pub fn run_algorithm_on(
    cluster: &Cluster,
    algorithm: Algorithm,
    problem: &Problem,
    cost: &CostModel,
    options: &RunOptions,
) -> Result<ExecutionReport, RunError> {
    if cluster.ranks() != problem.layout.nodes() {
        return Err(RunError::Shape {
            context: format!(
                "cluster has {} ranks but the problem is laid out over {} nodes",
                cluster.ranks(),
                problem.layout.nodes()
            ),
        });
    }
    run_algorithm_inner(algorithm, problem, cost, options, Some(cluster))
}

fn run_algorithm_inner(
    algorithm: Algorithm,
    problem: &Problem,
    cost: &CostModel,
    options: &RunOptions,
    external: Option<&Cluster>,
) -> Result<ExecutionReport, RunError> {
    let p = problem.layout.nodes();
    let k = problem.k();
    // The machine the run actually experiences, with the thread split
    // folded in — also what a calibration run would have profiled.
    let effective = options.config.effective_cost(cost);
    // Auto resolves to a concrete algorithm against the *effective* model
    // before anything is staged; the report keeps the Auto provenance.
    let requested = algorithm;
    let algorithm = match algorithm {
        Algorithm::Auto => {
            crate::algo::auto::resolve_auto(
                &problem.a,
                &problem.layout,
                k,
                &options.config,
                &effective,
            )
            .algorithm
        }
        other => other,
    };
    match algorithm {
        Algorithm::DenseShifting { replication } | Algorithm::OneFiveD { replication }
            if replication == 0 || replication > p =>
        {
            return Err(RunError::ReplicationExceedsNodes { replication, nodes: p });
        }
        _ => {}
    }
    let workers = resolve_workers(options.workers);
    let pool = Pool::new(workers);
    let exec = ExecOpts {
        k,
        compute: options.compute_values || options.validate,
        panel_height: options.config.row_panel_height,
        workers,
    };
    let coefficients = options.coefficients.unwrap_or_else(|| ModelCoefficients::from(&effective));

    // Preprocessing / data staging (untimed, like loading the preprocessed
    // matrices from disk in the real system). A supplied PreparedMatrix
    // short-circuits all of it; it must at least match the layout, or the
    // rank structures would address the wrong blocks.
    let prepared = options.prepared.as_ref().filter(|_| algorithm.uses_plan());
    if let Some(prep) = prepared {
        if prep.plan().layout() != &problem.layout {
            return Err(RunError::Shape {
                context: format!(
                    "prepared matrix was built for a {} × {} layout over {} nodes, but the \
                     problem is {} × {} over {} nodes",
                    prep.plan().layout().rows(),
                    prep.plan().layout().cols(),
                    prep.plan().layout().nodes(),
                    problem.layout.rows(),
                    problem.layout.cols(),
                    p
                ),
            });
        }
    }
    let plan: Option<Arc<PartitionPlan>> = if algorithm.uses_plan() {
        Some(match (prepared, &options.plan, algorithm) {
            (Some(prep), _, _) => Arc::clone(prep.plan()),
            (None, Some(plan), _) => Arc::clone(plan),
            (None, None, Algorithm::AsyncFine) => Arc::new(PartitionPlan::build_uniform(
                &problem.a,
                problem.layout.clone(),
                k,
                StripeClass::Async,
            )),
            (None, None, _) => Arc::new(prepare_plan_inner(
                problem,
                &coefficients,
                &effective,
                options.classifier,
                workers,
            )),
        })
    } else {
        None
    };
    let twoface_data = plan.map(|plan| match prepared {
        // Reuse the prepared rank structures when they fit this run; only
        // the B blocks (which depend on the dense operand) are staged fresh.
        Some(prep) if prep.compatible_with(problem, &options.config) => {
            TwoFaceData::from_prepared(problem, prep, &pool)
        }
        _ => TwoFaceData::build(problem, plan, &options.config, &pool),
    });

    // Stage the algorithm, then gate on memory feasibility: per-rank base
    // bytes plus the staged algorithm's own peak estimate.
    let staged = crate::algo::stage(algorithm, problem, &options.config, exec, twoface_data);
    let base_all = base_bytes_all_ranks(problem);
    // Host-side budget: on the simulating machine, the global operands and
    // *every* rank's staged structures coexist, so the resident footprint is
    // the sum over ranks, not the max.
    if let Some(budget) = options.memory_budget {
        let required: usize =
            base_all.iter().enumerate().map(|(rank, base)| base + staged.memory_extra(rank)).sum();
        if required > budget {
            return Err(RunError::HostBudgetExceeded { required, budget });
        }
    }
    let required = memory_gate(&base_all, |rank| staged.memory_extra(rank), cost.memory_per_node)?;

    // Execute.
    let diagnostics = resolve_observability(&options.observability);
    let owned_cluster;
    let cluster = match external {
        Some(cluster) => cluster,
        None => {
            owned_cluster = Cluster::new(p, effective);
            &owned_cluster
        }
    };
    cluster.set_fault_plan(options.fault_plan.clone());
    cluster.set_observability(diagnostics.observability.clone());
    let outputs = cluster.run(|ctx| staged.execute(ctx));
    let (blocks, report) = harvest(outputs, &diagnostics)?;
    let output = exec.compute.then(|| stack_blocks(problem.a.rows(), k, &blocks));

    if options.validate {
        let got = output.as_ref().expect("validate implies compute");
        let want = reference_spmm_pooled(&problem.a, &problem.b, &pool);
        if !got.approx_eq(&want, 1e-9) {
            return Err(RunError::ValidationFailed { max_abs_diff: got.max_abs_diff(&want) });
        }
    }

    Ok(ExecutionReport {
        algorithm: if requested == Algorithm::Auto {
            format!("Auto({})", algorithm.name())
        } else {
            algorithm.name()
        },
        k,
        memory_peak_bytes: required,
        output,
        ..report
    })
}

/// Everything a run derives from its [`Cluster::run`] outputs, shared by
/// every entry point: trace and profile export, the merged metrics, the
/// lowest rank's typed error with its flight-recorder tail, and the timing
/// and volume summaries. Returns each rank's result in rank order plus a
/// report whose caller-owned fields (`algorithm`, `k`, `memory_peak_bytes`,
/// `output`) are left empty.
pub(crate) fn harvest<T, E: Into<RankError>>(
    outputs: Vec<RankOutput<Result<T, E>>>,
    diagnostics: &ResolvedObservability,
) -> Result<(Vec<T>, ExecutionReport), RunError> {
    let p = outputs.len();
    let mut results = Vec::with_capacity(p);
    let mut flights = Vec::with_capacity(p);
    let mut finish = Vec::with_capacity(p);
    let mut rank_traces: Vec<RankTrace> = Vec::with_capacity(p);
    let mut rank_events: Vec<Vec<OpEvent>> = Vec::with_capacity(p);
    let mut metrics = MetricsRegistry::new();
    for o in outputs {
        finish.push(o.finish_time());
        metrics.merge(&o.metrics);
        results.push(o.result);
        flights.push(o.flight);
        rank_traces.push(o.trace);
        rank_events.push(o.events);
    }

    // Export the event stream before inspecting results, so a faulted run
    // that errors out still leaves its trace behind for forensics.
    if let Some(path) = &diagnostics.trace_path {
        write_trace_file(path, &rank_events, &rank_traces, diagnostics.observability.wall_time);
    }
    if let Some(path) = &diagnostics.profile_path {
        write_profile_file(path, &rank_events);
    }

    // A degraded run must produce a typed error, never silent corruption:
    // surface the lowest-ranked failure (deterministic regardless of which
    // rank's thread lost the race).
    let mut blocks = Vec::with_capacity(p);
    for (rank, (result, flight)) in results.into_iter().zip(flights).enumerate() {
        match result {
            Ok(block) => blocks.push(block),
            Err(e) => return Err(e.into().into_run_error(rank, flight)),
        }
    }

    let critical_rank = (0..p).max_by_key(|&rank| finish[rank]).expect("at least one rank");
    let mut mean_breakdown = Breakdown::default();
    let mut rank_breakdowns = Vec::with_capacity(p);
    let mut recipients: Vec<usize> = Vec::new();
    for trace in &rank_traces {
        let b = Breakdown::from_trace(trace);
        mean_breakdown.add(&b);
        rank_breakdowns.push(b);
        recipients.extend_from_slice(&trace.multicast_recipients);
    }
    let mean_multicast_recipients = if recipients.is_empty() {
        None
    } else {
        Some(recipients.iter().sum::<usize>() as f64 / recipients.len() as f64)
    };
    let report = ExecutionReport {
        algorithm: String::new(),
        p,
        k: 0,
        seconds: finish[critical_rank].seconds(),
        critical_rank,
        critical_breakdown: rank_breakdowns[critical_rank],
        mean_breakdown: mean_breakdown.scaled(1.0 / p as f64),
        rank_breakdowns,
        rank_seconds: finish.iter().map(|t| t.seconds()).collect(),
        elements_received: rank_traces.iter().map(|t| t.elements_received).sum(),
        messages: rank_traces.iter().map(|t| t.messages).sum(),
        mean_multicast_recipients,
        faults_injected: rank_traces.iter().map(RankTrace::faults_injected).sum(),
        rank_traces,
        rank_events,
        metrics,
        memory_peak_bytes: 0,
        output: None,
    };
    Ok((blocks, report))
}

/// Stacks per-rank `C` blocks, in rank (= row block) order, into the global
/// output.
pub(crate) fn stack_blocks(rows: usize, k: usize, blocks: &[Vec<f64>]) -> DenseMatrix {
    DenseMatrix::from_vec(rows, k, blocks.concat()).expect("rank blocks tile C exactly")
}
