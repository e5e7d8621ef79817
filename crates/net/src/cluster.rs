//! The simulated cluster: rank threads, lanes, collectives, and one-sided
//! windows.

use crate::event::{
    EventSink, FlightEntry, Observability, Op, OpEvent, OpKind, FLIGHT_CAPACITY_DEFAULT,
};
use crate::meet::{MeetOutcome, MeetPoison, MeetRegistry, Payload};
use crate::metrics::MetricsRegistry;
use crate::{
    CostModel, FaultEvent, FaultKind, FaultPlan, NetError, PhaseClass, RankTrace, SimTime,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The two virtual execution lanes of a rank.
///
/// Two-Face overlaps collective transfers plus synchronous compute with
/// fine-grained one-sided transfers plus asynchronous compute (§4.1: the two
/// thread groups run in parallel). The simulator models this by giving every
/// rank two independent virtual clocks; the rank's finishing time is the
/// later of the two. Baseline algorithms use only the [`Lane::Sync`] lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lane {
    /// The synchronous lane: collectives and row-panel computation.
    Sync,
    /// The asynchronous lane: one-sided gets and column-major computation.
    Async,
}

impl Lane {
    fn index(self) -> usize {
        match self {
            Lane::Sync => 0,
            Lane::Async => 1,
        }
    }
}

/// Handle to a one-sided communication window (the `MPI_Win` analog).
///
/// A window exposes one flat `f64` buffer per rank for passive-target reads
/// via [`RankCtx::win_get`] and [`RankCtx::win_rget_rows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowId(usize);

/// Tag namespaces keep auto-sequenced all-rank collectives, user-tagged
/// multicasts, and window barriers from colliding.
const TAG_AUTO: u64 = 1 << 62;
const TAG_MULTICAST: u64 = 1 << 61;

/// Each [`Cluster::run`] call gets a fresh epoch, folded into every meet tag
/// at this bit position, so per-rank tag counters restarting at zero in a
/// later run can never alias a meet left over from an earlier one.
const EPOCH_SHIFT: u32 = 40;
const EPOCH_MASK: u64 = (1 << 20) - 1;
/// User-visible tags (e.g. multicast stripe ids) must stay below the epoch
/// bits.
const TAG_LIMIT: u64 = 1 << EPOCH_SHIFT;

#[derive(Default)]
struct WindowTable {
    // windows[window][rank] = that rank's exposed buffer.
    buffers: Vec<Vec<Option<Payload>>>,
}

struct Shared {
    p: usize,
    cost: CostModel,
    meets: MeetRegistry,
    windows: Mutex<WindowTable>,
    run_epoch: AtomicU64,
    retain_windows: AtomicBool,
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    observability: Mutex<Observability>,
    flight_capacity: AtomicUsize,
}

/// A simulated cluster of `p` single-process ranks.
///
/// [`Cluster::run`] executes one closure per rank on real threads; data moves
/// for real through shared memory while per-rank virtual clocks accrue
/// modeled time. Results are deterministic: clock arithmetic depends only on
/// the operations performed, never on host thread scheduling.
///
/// # Example
///
/// ```
/// use twoface_net::{Cluster, CostModel};
/// use std::sync::Arc;
///
/// let cluster = Cluster::new(4, CostModel::delta());
/// let outputs = cluster.run(|ctx| {
///     // Each rank contributes one element; everyone sees all four.
///     let mine = Arc::new(vec![ctx.rank() as f64]);
///     let all = ctx.allgather(mine).expect("no fault plan installed");
///     all.iter().map(|part| part[0]).sum::<f64>()
/// });
/// assert!(outputs.iter().all(|o| o.result == 6.0));
/// ```
///
/// Communication methods return `Result<_, `[`NetError`]`>`: on a perfect
/// network (no [`FaultPlan`] installed) they never fail, while under an
/// installed plan one-sided gets may exhaust their retry budget and
/// all-rank collectives may observe a stalled straggler.
pub struct Cluster {
    shared: Arc<Shared>,
}

/// What one rank produced in a [`Cluster::run`] call.
#[derive(Debug, Clone)]
pub struct RankOutput<R> {
    /// The rank that produced this output.
    pub rank: usize,
    /// The closure's return value.
    pub result: R,
    /// Accumulated counters for this rank.
    pub trace: RankTrace,
    /// Final virtual time of each lane (`[sync, async]`).
    pub lane_times: [SimTime; 2],
    /// Per-operation events, in program order (empty unless observability
    /// is enabled; see [`Cluster::set_observability`]).
    pub events: Vec<OpEvent>,
    /// Counters and histograms recorded during the run (empty unless
    /// observability is enabled).
    pub metrics: MetricsRegistry,
    /// The always-on flight recorder: this rank's last N non-kernel events
    /// in chronological order and compact form, recorded at every
    /// [`TraceLevel`](crate::TraceLevel) including `Off` and never sampled
    /// (see [`Cluster::set_flight_capacity`]). Below capacity it is the
    /// rank's unsampled [`TraceLevel::Comm`](crate::TraceLevel::Comm) event
    /// stream, one entry per event. Faulted runs are post-mortem debuggable
    /// from this tail without re-running under tracing.
    pub flight: Vec<FlightEntry>,
}

impl<R> RankOutput<R> {
    /// The rank's finishing time: the later of its two lanes.
    pub fn finish_time(&self) -> SimTime {
        self.lane_times[0].max(self.lane_times[1])
    }
}

impl Cluster {
    /// Creates a cluster of `p` ranks with the given cost model.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: usize, cost: CostModel) -> Cluster {
        assert!(p > 0, "a cluster needs at least one rank");
        Cluster {
            shared: Arc::new(Shared {
                p,
                cost,
                meets: MeetRegistry::new(),
                windows: Mutex::new(WindowTable::default()),
                run_epoch: AtomicU64::new(0),
                retain_windows: AtomicBool::new(false),
                fault_plan: Mutex::new(None),
                observability: Mutex::new(Observability::off()),
                flight_capacity: AtomicUsize::new(FLIGHT_CAPACITY_DEFAULT),
            }),
        }
    }

    /// Sets the per-rank capacity of the always-on flight recorder (default
    /// [`FLIGHT_CAPACITY_DEFAULT`]; zero disables recording entirely, which
    /// exists to measure the recorder's own overhead). Like
    /// [`Cluster::set_observability`], each [`Cluster::run`] snapshots the
    /// capacity in force when it starts.
    pub fn set_flight_capacity(&self, capacity: usize) {
        self.shared.flight_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The flight-recorder capacity in force.
    pub fn flight_capacity(&self) -> usize {
        self.shared.flight_capacity.load(Ordering::Relaxed)
    }

    /// Installs (or, with `None`, removes) a fault plan. Each
    /// [`Cluster::run`] snapshots the plan in force when it starts, so a
    /// plan change never affects a run in flight, and consecutive runs on
    /// one cluster may use different plans.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.shared.fault_plan.lock().expect("fault plan poisoned") = plan.map(Arc::new);
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.shared.fault_plan.lock().expect("fault plan poisoned").as_deref().cloned()
    }

    /// Installs the observability configuration. Like
    /// [`Cluster::set_fault_plan`], each [`Cluster::run`] snapshots the
    /// configuration in force when it starts, so a change never affects a
    /// run in flight.
    pub fn set_observability(&self, observability: Observability) {
        *self.shared.observability.lock().expect("observability poisoned") = observability;
    }

    /// The currently installed observability configuration.
    pub fn observability(&self) -> Observability {
        self.shared.observability.lock().expect("observability poisoned").clone()
    }

    /// Switches the cluster between per-run window teardown (the default)
    /// and *session mode*, where window tables survive across [`Cluster::run`]
    /// calls.
    ///
    /// In session mode a run's [`RankCtx::create_window`] ids start after the
    /// retained table (ids still agree across ranks), so [`WindowId`]s handed
    /// out by earlier runs keep resolving to the same buffers — the warm-RMA
    /// behavior a long-lived serving layer needs. Meet tags remain
    /// epoch-namespaced either way: the run epoch is monotonic and never
    /// reused, so collectives of different runs can never rendezvous with
    /// each other regardless of this setting.
    ///
    /// Retained windows pin their payload buffers; call [`Cluster::reset`]
    /// between sessions to release them.
    pub fn set_window_retention(&self, retain: bool) {
        self.shared.retain_windows.store(retain, Ordering::Relaxed);
    }

    /// Whether window tables are retained across runs (session mode).
    pub fn window_retention(&self) -> bool {
        self.shared.retain_windows.load(Ordering::Relaxed)
    }

    /// Fully resets per-session state: drops every retained window (freeing
    /// the exposed buffers) and clears the meet registry, returning the
    /// cluster to its just-constructed state. Configuration (cost model,
    /// fault plan, observability, retention mode) is preserved.
    ///
    /// The run epoch is deliberately *not* rewound: epochs namespace meet
    /// tags, and reusing one could let a tag from before the reset alias a
    /// tag after it. Epoch monotonicity is part of the isolation contract,
    /// not session state.
    ///
    /// Must not be called concurrently with [`Cluster::run`] (ranks in
    /// flight would observe their windows vanishing mid-run).
    pub fn reset(&self) {
        self.shared.windows.lock().expect("window table poisoned").buffers.clear();
        self.shared.meets.clear();
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.shared.p
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Runs `f` once per rank on parallel threads and collects the outputs
    /// in rank order.
    ///
    /// # Panics
    ///
    /// Propagates panics from rank closures and panics on collective
    /// deadlock (the rendezvous watchdog names the offending tag).
    pub fn run<F, R>(&self, f: F) -> Vec<RankOutput<R>>
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        // Per-run state must not leak between run() calls on one cluster:
        // unless session mode retains them, window handles from a previous
        // run are invalidated here, and the fresh epoch namespaces this
        // run's meet tags (per-rank tag counters restart at zero each run,
        // while the meet registry is shared). In session mode this run's
        // window ids start after the retained table so ids still agree
        // across ranks and old handles stay valid.
        let epoch = self.shared.run_epoch.fetch_add(1, Ordering::Relaxed) & EPOCH_MASK;
        // A stall abort poisons the meet registry for the rest of its run;
        // the next run starts clean.
        self.shared.meets.clear_poison();
        let window_base = {
            let mut table = self.shared.windows.lock().expect("window table poisoned");
            if !self.shared.retain_windows.load(Ordering::Relaxed) {
                table.buffers.clear();
            }
            table.buffers.len()
        };
        let plan = self.shared.fault_plan.lock().expect("fault plan poisoned").clone();
        let observability =
            self.shared.observability.lock().expect("observability poisoned").clone();
        let flight_capacity = self.shared.flight_capacity.load(Ordering::Relaxed);
        let shared = &self.shared;
        let plan = &plan;
        let observability = &observability;
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shared.p)
                .map(|rank| {
                    scope.spawn(move || {
                        let mut ctx = RankCtx {
                            rank,
                            shared: Arc::clone(shared),
                            epoch,
                            clocks: [SimTime::ZERO; 2],
                            trace: RankTrace::new(),
                            next_auto_tag: 0,
                            next_window: window_base,
                            faults: plan.clone(),
                            events: EventSink::new(observability, flight_capacity),
                            metrics: MetricsRegistry::new(),
                        };
                        let result = f(&mut ctx);
                        let (events, flight) = ctx.events.finish();
                        RankOutput {
                            rank,
                            result,
                            trace: ctx.trace,
                            lane_times: ctx.clocks,
                            events,
                            metrics: ctx.metrics,
                            flight,
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        })
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("ranks", &self.shared.p).finish()
    }
}

/// Per-rank execution context handed to [`Cluster::run`] closures.
///
/// All communication and virtual-time accounting goes through this handle.
/// Methods that model MPI collectives must be called by every participating
/// rank in the same order, exactly like their MPI counterparts.
pub struct RankCtx {
    rank: usize,
    shared: Arc<Shared>,
    epoch: u64,
    clocks: [SimTime; 2],
    trace: RankTrace,
    next_auto_tag: u64,
    next_window: usize,
    faults: Option<Arc<FaultPlan>>,
    events: EventSink,
    metrics: MetricsRegistry,
}

impl RankCtx {
    /// This rank's id in `0..p`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.shared.p
    }

    /// The cluster's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Current virtual time of a lane.
    pub fn clock(&self, lane: Lane) -> SimTime {
        self.clocks[lane.index()]
    }

    /// The rank's overall current time: the later of its lanes.
    pub fn now(&self) -> SimTime {
        self.clocks[0].max(self.clocks[1])
    }

    /// Read-only view of the accumulated trace.
    pub fn trace(&self) -> &RankTrace {
        &self.trace
    }

    /// Advances a lane's clock by `seconds`, attributing the time to
    /// `class`.
    ///
    /// At [`TraceLevel::Full`](crate::TraceLevel::Full) the span is also
    /// recorded as an [`OpKind::Kernel`] event.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `seconds` is negative.
    pub fn advance(&mut self, lane: Lane, seconds: f64, class: PhaseClass) {
        self.advance_span(lane, seconds, class, 0, None);
    }

    /// [`RankCtx::advance`] with observability detail: `elements` describes
    /// the span's work size (e.g. `nnz * k` multiply-accumulates for a
    /// kernel) and `wall_nanos` the measured host wall-time of the real
    /// kernel behind the span. Both are recorded only when event tracing is
    /// at [`TraceLevel::Full`](crate::TraceLevel::Full) (and wall time only
    /// when [`Observability::wall_time`] is set); the modeled clocks are
    /// identical to [`RankCtx::advance`] either way.
    pub fn advance_span(
        &mut self,
        lane: Lane,
        seconds: f64,
        class: PhaseClass,
        elements: u64,
        wall_nanos: Option<u64>,
    ) {
        let start = self.clocks[lane.index()];
        self.advance_quiet(lane, seconds, class);
        let end = self.clocks[lane.index()];
        self.events.record(Op {
            kind: OpKind::Kernel,
            lane,
            class,
            start,
            end,
            elements,
            peers: [],
            initiator: true,
            fault: None,
            wall_nanos,
        });
    }

    /// Clock and aggregate-trace bookkeeping without event recording
    /// (communication ops record their own, more specific events).
    fn advance_quiet(&mut self, lane: Lane, seconds: f64, class: PhaseClass) {
        self.clocks[lane.index()] += seconds;
        self.trace.add_time(class, seconds);
    }

    /// Records an injected fault: into the aggregate trace, and as a
    /// zero-duration [`OpKind::Fault`] event at `at`.
    fn record_fault(&mut self, fault: FaultEvent, lane: Lane, class: PhaseClass, at: SimTime) {
        let kind = fault.kind;
        self.trace.record_fault(fault);
        self.events.record(Op {
            kind: OpKind::Fault,
            lane,
            class,
            start: at,
            end: at,
            elements: 0,
            peers: [],
            initiator: true,
            fault: Some(kind),
            wall_nanos: None,
        });
    }

    /// Records the sync-lane wait from `arrive` until the meet at `outcome`
    /// completed, naming its straggler — the whole op for a barrier, the
    /// [`OpKind::MeetWait`] before any other collective's transfer — and
    /// counts the op under `counter` with its arrival spread.
    fn record_meet(
        &mut self,
        kind: OpKind,
        class: PhaseClass,
        arrive: SimTime,
        outcome: &MeetOutcome,
        counter: &str,
    ) {
        self.events.record(Op {
            kind,
            lane: Lane::Sync,
            class,
            start: arrive,
            end: outcome.time,
            elements: 0,
            peers: [outcome.straggler],
            initiator: false,
            fault: None,
            wall_nanos: None,
        });
        if self.events.comm() {
            self.metrics.inc(counter, 1);
            // Integer nanoseconds, for histogram bucketing.
            let spread_ns = (outcome.spread_seconds * 1e9).round() as u64;
            self.metrics.observe("meet_arrival_spread_ns", spread_ns);
        }
    }

    /// Sets both lanes to the later of the two: the rank's threads join
    /// before the next phase (e.g. async threads joining sync compute in
    /// Algorithm 1 line 15).
    pub fn join_lanes(&mut self) {
        let joined = self.now();
        self.clocks = [joined; 2];
    }

    /// Folds the run epoch into a tag within `namespace`.
    fn epoch_tag(&self, namespace: u64, tag: u64) -> u64 {
        debug_assert!(tag < TAG_LIMIT, "tag {tag:#x} collides with epoch bits");
        namespace | (self.epoch << EPOCH_SHIFT) | tag
    }

    fn auto_tag(&mut self) -> u64 {
        let tag = self.epoch_tag(TAG_AUTO, self.next_auto_tag);
        self.next_auto_tag += 1;
        tag
    }

    /// The fault plan this run snapshot, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Whether per-operation event recording is enabled for this run.
    pub fn events_enabled(&self) -> bool {
        self.events.comm()
    }

    /// Whether host wall-time stamping of kernel spans was requested.
    pub fn wall_time_enabled(&self) -> bool {
        self.events.wall()
    }

    /// Read-only view of the metrics recorded so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records `value` into custom histogram `name`. Like all recording, a
    /// no-op (without allocation) when observability is off, so algorithm
    /// bodies can call it unconditionally.
    pub fn observe(&mut self, name: &str, value: u64) {
        if self.events.comm() {
            self.metrics.observe(name, value);
        }
    }

    /// Adds `by` to custom counter `name` (no-op when observability is
    /// off).
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        if self.events.comm() {
            self.metrics.inc(name, by);
        }
    }

    /// Takes the next meet index and returns the injected arrival delay for
    /// it (jitter plus straggle), recording the corresponding fault events.
    ///
    /// Returns exactly `0.0` with no plan installed, so adding it to an
    /// arrival time reproduces the fault-free timeline bit-for-bit.
    fn meet_arrival_delay(&mut self) -> (u64, f64) {
        let meet_idx = self.trace.meets;
        self.trace.meets += 1;
        let Some(plan) = self.faults.clone() else {
            return (meet_idx, 0.0);
        };
        let mut delay = 0.0;
        for (kind, seconds) in [
            (FaultKind::MeetJitter, plan.meet_jitter(self.rank, meet_idx)),
            (FaultKind::RankStall, plan.slow_extra(self.rank)),
        ] {
            if seconds > 0.0 {
                let fault = FaultEvent { kind, op: meet_idx, attempt: 0, seconds };
                self.record_fault(fault, Lane::Sync, PhaseClass::Other, self.now());
                delay += seconds;
            }
        }
        (meet_idx, delay)
    }

    /// Surfaces a poisoned (aborted) meet as the stall error every surviving
    /// rank reports. Must run before a collective touches the outcome's
    /// payloads: an aborted meet carries none.
    fn abort_check(&self, outcome: &MeetOutcome) -> Result<(), NetError> {
        let Some(poison) = outcome.poisoned else {
            return Ok(());
        };
        Err(NetError::RankStalled {
            rank: self.rank,
            straggler: poison.straggler,
            stalled_seconds: poison.stalled_seconds,
            timeout_seconds: poison.timeout_seconds,
        })
    }

    /// Straggler-tolerance check after a meet: if the spread between the
    /// earliest and latest arrival exceeds the plan's stall timeout, fail
    /// with [`NetError::RankStalled`]. The spread is identical for every
    /// participant, so all members of the meet decide identically and abort
    /// together. For subgroup meets (2D grid multicasts, pairwise reduces)
    /// the non-members cannot observe the spread, so the tripping members
    /// additionally poison the meet registry: every rank blocked at (or
    /// later arriving at) any other collective aborts with the same typed
    /// error instead of deadlocking against the dead subgroup.
    fn stall_check(&self, outcome: &MeetOutcome) -> Result<(), NetError> {
        let Some(timeout) = self.faults.as_ref().and_then(|p| p.stall_timeout_seconds) else {
            return Ok(());
        };
        if outcome.spread_seconds > timeout {
            self.shared.meets.poison(MeetPoison {
                straggler: outcome.straggler,
                stalled_seconds: outcome.spread_seconds,
                timeout_seconds: timeout,
            });
            return Err(NetError::RankStalled {
                rank: self.rank,
                straggler: outcome.straggler,
                stalled_seconds: outcome.spread_seconds,
                timeout_seconds: timeout,
            });
        }
        Ok(())
    }

    /// Charges one one-sided transfer of modeled cost `base_cost` against
    /// `target`, applying the fault plan: transiently failed attempts cost
    /// the full transfer plus exponential backoff (backoff charged to
    /// [`PhaseClass::Recovery`]) until the retry budget is exhausted;
    /// successful attempts may be degraded by a latency spike.
    fn one_sided_transfer(
        &mut self,
        target: usize,
        base_cost: f64,
        lane: Lane,
        class: PhaseClass,
        kind: OpKind,
        elements: u64,
    ) -> Result<(), NetError> {
        let op = self.trace.one_sided_ops;
        self.trace.one_sided_ops += 1;
        if self.events.comm() {
            let counter = match kind {
                OpKind::Get => "ops.get",
                _ => "ops.rget_rows",
            };
            self.metrics.inc(counter, 1);
            self.metrics.observe("one_sided_get_elements", elements);
        }
        // Every event of the transfer is the issuer's, against `target`.
        let span = |kind, class, start, end, elements| Op {
            kind,
            lane,
            class,
            start,
            end,
            elements,
            peers: [target],
            initiator: true,
            fault: None,
            wall_nanos: None,
        };
        let plan = self.faults.clone();
        let mut waited = 0.0;
        let mut attempt = 0u32;
        while let Some(plan) =
            plan.as_deref().filter(|plan| plan.get_attempt_fails(self.rank, op, attempt))
        {
            // The failed attempt still costs its full transfer time (the
            // data moved, the completion was lost), then the issuer backs
            // off before re-issuing.
            let policy = plan.retry;
            let backoff = policy.backoff_seconds(attempt);
            let lost = self.shared.cost.failed_get_cost(base_cost, backoff);
            let start = self.clocks[lane.index()];
            self.advance_quiet(lane, base_cost, class);
            let transfer_end = self.clocks[lane.index()];
            let recovery = PhaseClass::Recovery;
            self.advance_quiet(lane, backoff, recovery);
            let backoff_end = self.clocks[lane.index()];
            self.events.record(span(OpKind::Retry, class, start, transfer_end, elements));
            self.events.record(span(OpKind::Backoff, recovery, transfer_end, backoff_end, 0));
            let fault = FaultEvent { kind: FaultKind::GetFailure, op, attempt, seconds: lost };
            self.record_fault(fault, lane, recovery, transfer_end);
            waited += lost;
            attempt += 1;
            if attempt >= policy.max_attempts
                || policy.op_timeout_seconds.is_some_and(|t| waited > t)
            {
                return Err(NetError::TransferTimeout {
                    rank: self.rank,
                    target,
                    attempts: attempt,
                    waited_seconds: waited,
                });
            }
            self.trace.retries += 1;
        }
        let extra =
            plan.as_deref().and_then(|plan| plan.latency_spike(self.rank, op)).unwrap_or(0.0);
        let start = self.clocks[lane.index()];
        if extra > 0.0 {
            let fault = FaultEvent { kind: FaultKind::LatencySpike, op, attempt, seconds: extra };
            self.record_fault(fault, lane, class, start);
        }
        self.advance_quiet(lane, base_cost + extra, class);
        let end = self.clocks[lane.index()];
        self.events.record(span(kind, class, start, end, elements));
        if self.events.comm() {
            self.metrics.observe("retries_per_op", u64::from(attempt));
        }
        Ok(())
    }

    /// Synchronizes all ranks (an `MPI_Barrier`): every rank's lanes advance
    /// to the cluster-wide maximum of [`RankCtx::now`].
    ///
    /// # Errors
    ///
    /// [`NetError::RankStalled`] if the installed fault plan's stall timeout
    /// is exceeded by the arrival spread.
    pub fn barrier(&mut self) -> Result<(), NetError> {
        let tag = self.auto_tag();
        let arrive = self.now();
        let (_, delay) = self.meet_arrival_delay();
        let outcome = self.shared.meets.meet(tag, self.shared.p, self.rank, arrive + delay, None);
        self.abort_check(&outcome)?;
        // Wait is charged from the pre-delay arrival, so injected delays are
        // part of the charged wait and faulted traces dominate fault-free
        // ones term by term.
        let wait = outcome.time.since(arrive);
        self.trace.add_time(PhaseClass::Other, wait);
        self.clocks = [outcome.time; 2];
        self.record_meet(OpKind::Barrier, PhaseClass::Other, arrive, &outcome, "ops.barrier");
        self.stall_check(&outcome)?;
        Ok(())
    }

    /// All-rank allgather (the `MPI_Allgather` analog): contributes `data`
    /// and returns every rank's contribution, indexed by rank.
    ///
    /// Operates on the [`Lane::Sync`] clock; time is attributed to
    /// [`PhaseClass::SyncComm`].
    ///
    /// # Errors
    ///
    /// [`NetError::RankStalled`] under an installed fault plan whose stall
    /// timeout the arrival spread exceeds.
    pub fn allgather(&mut self, data: impl Into<Payload>) -> Result<Vec<Payload>, NetError> {
        let data = data.into();
        let tag = self.auto_tag();
        let p = self.shared.p;
        let my_len = data.len();
        let arrive = self.clocks[Lane::Sync.index()];
        let (_, delay) = self.meet_arrival_delay();
        let outcome = self.shared.meets.meet(tag, p, self.rank, arrive + delay, Some(data));
        self.abort_check(&outcome)?;
        let out: Vec<Payload> = (0..p)
            .map(|r| outcome.payloads.get(&r).expect("every rank contributes to allgather").clone())
            .collect();
        let cost = self.shared.cost.allgather_cost(my_len, p);
        let total: usize = out.iter().map(|b| b.len()).sum();
        self.clocks[Lane::Sync.index()] = outcome.time + cost;
        self.trace.add_time(PhaseClass::SyncComm, outcome.time.since(arrive) + cost);
        self.trace.messages += 1;
        self.trace.elements_sent += (my_len * (p - 1)) as u64;
        self.trace.elements_received += (total - my_len) as u64;
        self.record_meet(OpKind::MeetWait, PhaseClass::SyncComm, arrive, &outcome, "ops.allgather");
        self.events.record(Op {
            kind: OpKind::Allgather,
            lane: Lane::Sync,
            class: PhaseClass::SyncComm,
            start: outcome.time,
            end: outcome.time + cost,
            elements: (my_len * (p - 1) + (total - my_len)) as u64,
            peers: [],
            initiator: true,
            fault: None,
            wall_nanos: None,
        });
        self.stall_check(&outcome)?;
        Ok(out)
    }

    /// Multicast (the `MPI_Bcast` / `MPI_Ibcast` analog on a subgroup):
    /// `root` supplies `data`; every rank in `group` receives it.
    ///
    /// All ranks in `group` (which must contain `root` and the caller) must
    /// call with the same `tag` and `group`. Groups with a single member
    /// return immediately at zero cost — no transfer happens.
    ///
    /// Operates on the [`Lane::Sync`] clock ([`PhaseClass::SyncComm`]).
    ///
    /// # Panics
    ///
    /// Panics if the caller or root is not in `group`, if the caller is the
    /// root but supplies no data, or on tag misuse (reuse before completion,
    /// mismatched group sizes).
    pub fn multicast(
        &mut self,
        tag: u64,
        root: usize,
        group: &[usize],
        data: Option<Payload>,
    ) -> Result<Payload, NetError> {
        assert!(group.contains(&self.rank), "rank {} not in multicast group", self.rank);
        assert!(group.contains(&root), "root {root} not in multicast group");
        let is_root = self.rank == root;
        if is_root {
            assert!(data.is_some(), "multicast root must supply data");
        }
        if group.len() == 1 {
            return Ok(data.expect("single-member multicast is root-only"));
        }
        let arrive = self.clocks[Lane::Sync.index()];
        let (_, delay) = self.meet_arrival_delay();
        let outcome = self.shared.meets.meet(
            self.epoch_tag(TAG_MULTICAST, tag),
            group.len(),
            self.rank,
            arrive + delay,
            if is_root { data } else { None },
        );
        self.abort_check(&outcome)?;
        let buf = outcome.payloads.get(&root).expect("root deposited multicast data").clone();
        let destinations = group.len() - 1;
        let cost = self.shared.cost.multicast_cost(buf.len(), destinations);
        self.clocks[Lane::Sync.index()] = outcome.time + cost;
        self.trace.add_time(PhaseClass::SyncComm, outcome.time.since(arrive) + cost);
        self.trace.messages += 1;
        if is_root {
            self.trace.elements_sent += (buf.len() * destinations) as u64;
            self.trace.multicast_recipients.push(destinations);
        } else {
            self.trace.elements_received += buf.len() as u64;
        }
        self.record_meet(OpKind::MeetWait, PhaseClass::SyncComm, arrive, &outcome, "ops.multicast");
        // The root's peers are its destinations, a receiver's the root.
        let me = self.rank;
        let ends = if is_root { group } else { std::slice::from_ref(&root) };
        self.events.record(Op {
            kind: OpKind::Multicast,
            lane: Lane::Sync,
            class: PhaseClass::SyncComm,
            start: outcome.time,
            end: outcome.time + cost,
            elements: if is_root { (buf.len() * destinations) as u64 } else { buf.len() as u64 },
            peers: ends.iter().copied().filter(move |&r| r != me),
            initiator: is_root,
            fault: None,
            wall_nanos: None,
        });
        if is_root && self.events.comm() {
            self.metrics.observe("multicast_fanout", destinations as u64);
        }
        self.stall_check(&outcome)?;
        Ok(buf)
    }

    /// One step of an all-rank cyclic shift (the `MPI_Sendrecv` ring of the
    /// dense shifting baseline): sends `data` to rank `(rank + distance) % p`
    /// and returns the buffer received from `(rank + p - distance % p) % p`.
    /// Dense shifting with replication factor `c` shifts whole block groups,
    /// i.e. `distance = c`.
    ///
    /// Operates on the [`Lane::Sync`] clock ([`PhaseClass::SyncComm`]).
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0`.
    pub fn shift_ring(
        &mut self,
        data: impl Into<Payload>,
        distance: usize,
    ) -> Result<Payload, NetError> {
        assert!(distance > 0, "shift distance must be positive");
        let data = data.into();
        let tag = self.auto_tag();
        let p = self.shared.p;
        let my_len = data.len();
        let arrive = self.clocks[Lane::Sync.index()];
        let (_, delay) = self.meet_arrival_delay();
        let outcome = self.shared.meets.meet(tag, p, self.rank, arrive + delay, Some(data));
        self.abort_check(&outcome)?;
        let from = (self.rank + p - distance % p) % p;
        let buf = outcome.payloads.get(&from).expect("every rank contributes to shift").clone();
        let cost = self.shared.cost.shift_cost(my_len.max(buf.len()));
        self.clocks[Lane::Sync.index()] = outcome.time + cost;
        self.trace.add_time(PhaseClass::SyncComm, outcome.time.since(arrive) + cost);
        self.trace.messages += 1;
        self.trace.elements_sent += my_len as u64;
        self.trace.elements_received += buf.len() as u64;
        self.record_meet(
            OpKind::MeetWait,
            PhaseClass::SyncComm,
            arrive,
            &outcome,
            "ops.shift_ring",
        );
        self.events.record(Op {
            kind: OpKind::ShiftRing,
            lane: Lane::Sync,
            class: PhaseClass::SyncComm,
            start: outcome.time,
            end: outcome.time + cost,
            elements: (my_len + buf.len()) as u64,
            peers: [(self.rank + distance % p) % p, from],
            initiator: true,
            fault: None,
            wall_nanos: None,
        });
        self.stall_check(&outcome)?;
        Ok(buf)
    }

    /// Collectively creates a one-sided window exposing `data` from this
    /// rank (the `MPI_Win_create` analog). All ranks must call in the same
    /// order; the returned ids agree across ranks.
    ///
    /// Setup time is charged to [`PhaseClass::Other`].
    ///
    /// # Errors
    ///
    /// [`NetError::RankStalled`] under an installed fault plan whose stall
    /// timeout the arrival spread exceeds.
    pub fn create_window(&mut self, data: impl Into<Payload>) -> Result<WindowId, NetError> {
        let id = self.next_window;
        self.next_window += 1;
        {
            let mut table = self.shared.windows.lock().expect("window table poisoned");
            if table.buffers.len() <= id {
                table.buffers.resize_with(id + 1, || vec![None; self.shared.p]);
            }
            table.buffers[id][self.rank] = Some(data.into());
        }
        // Window creation is collective: no rank may target the window
        // before every rank has exposed its buffer.
        let tag = self.auto_tag();
        let arrive = self.now();
        let (_, delay) = self.meet_arrival_delay();
        let outcome = self.shared.meets.meet(tag, self.shared.p, self.rank, arrive + delay, None);
        self.abort_check(&outcome)?;
        let cost = self.shared.cost.alpha_sync;
        self.clocks = [outcome.time + cost; 2];
        self.trace.add_time(PhaseClass::Other, outcome.time.since(arrive) + cost);
        self.record_meet(
            OpKind::MeetWait,
            PhaseClass::Other,
            arrive,
            &outcome,
            "ops.window_create",
        );
        self.events.record(Op {
            kind: OpKind::WindowCreate,
            lane: Lane::Sync,
            class: PhaseClass::Other,
            start: outcome.time,
            end: outcome.time + cost,
            elements: 0,
            peers: [],
            initiator: true,
            fault: None,
            wall_nanos: None,
        });
        self.stall_check(&outcome)?;
        Ok(WindowId(id))
    }

    /// `target`'s exposed buffer in `window`, if this run's table has one.
    fn window_buffer(&self, window: WindowId, target: usize) -> Option<Payload> {
        let table = self.shared.windows.lock().expect("window table poisoned");
        table.buffers.get(window.0)?.get(target)?.clone()
    }

    /// Bulk one-sided get (the `MPI_Get` analog): reads `target`'s window
    /// elements in `range` without involving the target. The returned
    /// [`Payload`] is a zero-copy view into the target's exposed buffer.
    ///
    /// `lane` and `class` let callers attribute the transfer (Async Coarse
    /// charges its bulk prefetch to the sync lane; Two-Face never uses bulk
    /// gets).
    ///
    /// # Errors
    ///
    /// [`NetError::TransferTimeout`] if the installed fault plan's transient
    /// failures exhaust the retry budget; [`NetError::OutOfWindow`] if this
    /// run has no such window, `target` exposed no buffer in it, or `range`
    /// does not fit that buffer.
    pub fn win_get(
        &mut self,
        window: WindowId,
        target: usize,
        range: std::ops::Range<usize>,
        lane: Lane,
        class: PhaseClass,
    ) -> Result<Payload, NetError> {
        let out = match self.window_buffer(window, target) {
            Some(buf) if range.start <= range.end && range.end <= buf.len() => buf.subslice(range),
            buf => {
                let exposed = buf.map(|buf| buf.len());
                return Err(NetError::OutOfWindow {
                    rank: self.rank,
                    window,
                    target,
                    range,
                    exposed,
                });
            }
        };
        let cost = self.shared.cost.bulk_get_cost(out.len());
        self.one_sided_transfer(target, cost, lane, class, OpKind::Get, out.len() as u64)?;
        self.trace.messages += 1;
        self.trace.elements_received += out.len() as u64;
        Ok(out)
    }

    /// Fine-grained indexed one-sided get (the `MPI_Rget` +
    /// `MPI_Type_indexed` analog): fetches the given `(first_row, num_rows)`
    /// runs of `row_width`-element rows from `target`'s window, concatenated
    /// in run order.
    ///
    /// Operates on the [`Lane::Async`] clock ([`PhaseClass::AsyncComm`]).
    ///
    /// # Errors
    ///
    /// [`NetError::TransferTimeout`] if the installed fault plan's transient
    /// failures exhaust the retry budget; [`NetError::RangeOverflow`] if a
    /// run's element offset (`(first_row + num_rows) * row_width`) does not
    /// fit in `usize` — the run list is corrupt, and clamping it would have
    /// silently fetched the wrong rows; [`NetError::OutOfWindow`] if this run
    /// has no such window, `target` exposed no buffer in it, or a run ends
    /// past that buffer.
    ///
    /// # Panics
    ///
    /// Panics if `row_width == 0`.
    pub fn win_rget_rows(
        &mut self,
        window: WindowId,
        target: usize,
        runs: &[(usize, usize)],
        row_width: usize,
    ) -> Result<Vec<f64>, NetError> {
        let mut out = Vec::new();
        self.win_rget_rows_into(window, target, runs, row_width, &mut out)?;
        Ok(out)
    }

    /// [`RankCtx::win_rget_rows`] into a caller-owned buffer: `out` is
    /// cleared and filled with the fetched rows, reusing its allocation.
    ///
    /// This is the arena-friendly entry point — per-stripe fetch loops (the
    /// Two-Face async lane) call it with one long-lived scratch vector
    /// instead of allocating a fresh `Vec` per stripe. Costs, tracing, and
    /// errors are identical to [`RankCtx::win_rget_rows`].
    ///
    /// # Errors
    ///
    /// As [`RankCtx::win_rget_rows`]; on error `out`'s contents are
    /// unspecified (it may hold partially fetched rows).
    ///
    /// # Panics
    ///
    /// As [`RankCtx::win_rget_rows`].
    pub fn win_rget_rows_into(
        &mut self,
        window: WindowId,
        target: usize,
        runs: &[(usize, usize)],
        row_width: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), NetError> {
        assert!(row_width > 0, "row_width must be positive");
        let Some(buf) = self.window_buffer(window, target) else {
            // Name the first run's elements, saturating: no buffer bounds them.
            let range = runs.first().map_or(0..0, |&(first, n)| {
                first.saturating_mul(row_width)..first.saturating_add(n).saturating_mul(row_width)
            });
            return Err(NetError::OutOfWindow {
                rank: self.rank,
                window,
                target,
                range,
                exposed: None,
            });
        };
        let total_rows: usize = runs.iter().map(|&(_, n)| n).sum();
        out.clear();
        out.reserve(total_rows.saturating_mul(row_width).min(buf.len()));
        for &(first, n) in runs {
            let overflow = NetError::RangeOverflow {
                rank: self.rank,
                target,
                first_row: first,
                num_rows: n,
                row_width,
                window_elements: buf.len(),
            };
            let Some(end_row) = first.checked_add(n) else {
                return Err(overflow);
            };
            let Some(hi) = end_row.checked_mul(row_width) else {
                return Err(overflow);
            };
            if hi > buf.len() {
                let (range, exposed) = (first * row_width..hi, Some(buf.len()));
                return Err(NetError::OutOfWindow {
                    rank: self.rank,
                    window,
                    target,
                    range,
                    exposed,
                });
            }
            out.extend_from_slice(&buf[first * row_width..hi]);
        }
        let cost = self.shared.cost.rget_cost(out.len(), runs.len());
        if self.events.comm() {
            self.metrics.observe("rget_runs_per_op", runs.len() as u64);
        }
        self.one_sided_transfer(
            target,
            cost,
            Lane::Async,
            PhaseClass::AsyncComm,
            OpKind::RgetRows,
            out.len() as u64,
        )?;
        self.trace.messages += 1;
        self.trace.elements_received += out.len() as u64;
        Ok(())
    }
}

impl std::fmt::Debug for RankCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankCtx")
            .field("rank", &self.rank)
            .field("ranks", &self.shared.p)
            .field("clocks", &self.clocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{seconds_by_class, TraceLevel};
    use crate::RetryPolicy;
    use std::ops::Range;

    fn cluster(p: usize) -> Cluster {
        Cluster::new(p, CostModel::delta())
    }

    #[test]
    fn allgather_returns_all_contributions_in_rank_order() {
        let out = cluster(4).run(|ctx| {
            let mine = Arc::new(vec![ctx.rank() as f64; 2]);
            let all = ctx.allgather(mine).unwrap();
            all.iter().map(|b| b[0]).collect::<Vec<f64>>()
        });
        for o in &out {
            assert_eq!(o.result, vec![0.0, 1.0, 2.0, 3.0]);
            assert!(o.lane_times[0] > SimTime::ZERO);
        }
    }

    #[test]
    fn barrier_aligns_clocks_to_slowest() {
        let out = cluster(3).run(|ctx| {
            let work = ctx.rank() as f64; // rank 2 is slowest
            ctx.advance(Lane::Sync, work, PhaseClass::SyncComp);
            ctx.barrier().unwrap();
            ctx.now()
        });
        for o in &out {
            assert_eq!(o.result, SimTime::from_seconds(2.0));
        }
    }

    #[test]
    fn multicast_delivers_root_data_to_group_only() {
        let out = cluster(4).run(|ctx| {
            // Root 1 multicasts to {0, 1, 3}; rank 2 does not participate.
            let group = [0, 1, 3];
            if group.contains(&ctx.rank()) {
                let data = (ctx.rank() == 1).then(|| Payload::from(vec![42.0]));
                let got = ctx.multicast(9, 1, &group, data).unwrap();
                got[0]
            } else {
                -1.0
            }
        });
        assert_eq!(out[0].result, 42.0);
        assert_eq!(out[1].result, 42.0);
        assert_eq!(out[2].result, -1.0);
        assert_eq!(out[3].result, 42.0);
        // Rank 2 spent no communication time.
        assert_eq!(out[2].trace.seconds(PhaseClass::SyncComm), 0.0);
        // Root recorded the fan-out.
        assert_eq!(out[1].trace.multicast_recipients, vec![2]);
    }

    #[test]
    fn single_member_multicast_is_free() {
        let out = cluster(2).run(|ctx| {
            if ctx.rank() == 0 {
                let got = ctx.multicast(5, 0, &[0], Some(Payload::from(vec![7.0]))).unwrap();
                got[0]
            } else {
                0.0
            }
        });
        assert_eq!(out[0].result, 7.0);
        assert_eq!(out[0].trace.seconds(PhaseClass::SyncComm), 0.0);
    }

    #[test]
    fn shift_ring_rotates_buffers() {
        let out = cluster(3).run(|ctx| {
            let mut held = Payload::from(vec![ctx.rank() as f64]);
            // After 3 unit shifts the original buffer returns.
            let mut seen = Vec::new();
            for _ in 0..3 {
                held = ctx.shift_ring(held, 1).unwrap();
                seen.push(held[0] as usize);
            }
            seen
        });
        assert_eq!(out[0].result, vec![2, 1, 0]);
        assert_eq!(out[1].result, vec![0, 2, 1]);
        assert_eq!(out[2].result, vec![1, 0, 2]);
    }

    #[test]
    fn shift_ring_with_distance_skips_ranks() {
        let out = cluster(4).run(|ctx| {
            let held = Arc::new(vec![ctx.rank() as f64]);
            let got = ctx.shift_ring(held, 2).unwrap();
            got[0] as usize
        });
        // Rank r receives from (r + 4 - 2) % 4.
        assert_eq!(out.iter().map(|o| o.result).collect::<Vec<_>>(), vec![2, 3, 0, 1]);
    }

    #[test]
    fn shift_distance_larger_than_ring_wraps() {
        let out = cluster(3).run(|ctx| {
            let held = Arc::new(vec![ctx.rank() as f64]);
            let got = ctx.shift_ring(held, 4).unwrap(); // distance 4 ≡ 1 (mod 3)
            got[0] as usize
        });
        assert_eq!(out.iter().map(|o| o.result).collect::<Vec<_>>(), vec![2, 0, 1]);
    }

    #[test]
    fn windows_support_bulk_and_indexed_gets() {
        let out = cluster(2).run(|ctx| {
            // Rank r exposes rows [r*10 .. r*10+4) of width 2.
            let base = (ctx.rank() * 10) as f64;
            let data: Vec<f64> = (0..8).map(|i| base + i as f64).collect();
            let win = ctx.create_window(data).unwrap();
            if ctx.rank() == 0 {
                // Bulk get of rank 1's first 4 elements.
                let bulk = ctx.win_get(win, 1, 0..4, Lane::Sync, PhaseClass::SyncComm).unwrap();
                // Indexed get of rank 1's rows 1 and 3 (width 2).
                let rows = ctx.win_rget_rows(win, 1, &[(1, 1), (3, 1)], 2).unwrap();
                (bulk.to_vec(), rows)
            } else {
                (vec![], vec![])
            }
        });
        assert_eq!(out[0].result.0, vec![10.0, 11.0, 12.0, 13.0]);
        assert_eq!(out[0].result.1, vec![12.0, 13.0, 16.0, 17.0]);
        assert!(out[0].trace.seconds(PhaseClass::AsyncComm) > 0.0);
    }

    #[test]
    fn one_sided_gets_do_not_synchronize_clocks() {
        let out = cluster(2).run(|ctx| {
            let win = ctx.create_window(vec![1.0; 16]).unwrap();
            if ctx.rank() == 0 {
                // Rank 0 does a lot of simulated compute, then a get; rank 1
                // stays idle. Rank 1's clock must be unaffected.
                ctx.advance(Lane::Sync, 5.0, PhaseClass::SyncComp);
                let _ = ctx.win_get(win, 1, 0..16, Lane::Sync, PhaseClass::SyncComm).unwrap();
            }
            ctx.now()
        });
        assert!(out[0].result > SimTime::from_seconds(5.0));
        assert!(out[1].result < SimTime::from_seconds(1.0));
    }

    #[test]
    fn lanes_advance_independently_and_join() {
        let out = cluster(1).run(|ctx| {
            ctx.advance(Lane::Sync, 1.0, PhaseClass::SyncComm);
            ctx.advance(Lane::Async, 3.0, PhaseClass::AsyncComm);
            let before = (ctx.clock(Lane::Sync), ctx.clock(Lane::Async));
            ctx.join_lanes();
            (before, ctx.clock(Lane::Sync))
        });
        let ((sync, asynch), joined) = out[0].result;
        assert_eq!(sync, SimTime::from_seconds(1.0));
        assert_eq!(asynch, SimTime::from_seconds(3.0));
        assert_eq!(joined, SimTime::from_seconds(3.0));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            cluster(4).run(|ctx| {
                let mine = Arc::new(vec![ctx.rank() as f64; 100]);
                let _ = ctx.allgather(mine).unwrap();
                ctx.advance(Lane::Sync, 0.001 * ctx.rank() as f64, PhaseClass::SyncComp);
                ctx.barrier().unwrap();
                ctx.now()
            })
        };
        let a: Vec<SimTime> = run().into_iter().map(|o| o.result).collect();
        let b: Vec<SimTime> = run().into_iter().map(|o| o.result).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn flight_recorder_is_always_on_and_bounded() {
        let c = cluster(2);
        c.set_flight_capacity(3);
        assert_eq!(c.flight_capacity(), 3);
        let out = c.run(|ctx| {
            for _ in 0..5 {
                ctx.barrier().unwrap();
            }
        });
        for o in &out {
            // Observability is off, yet the tail of operations is retained.
            assert!(o.events.is_empty());
            assert_eq!(o.flight.len(), 3);
            assert!(o.flight.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
            let last = o.flight.last().unwrap();
            assert_eq!(last.kind, OpKind::Barrier);
            assert_eq!(last.seq, 4, "five barriers, tail retained");
        }
        c.set_flight_capacity(0);
        let out = c.run(|ctx| ctx.barrier().unwrap());
        assert!(out.iter().all(|o| o.flight.is_empty()));
    }

    #[test]
    fn flight_recorder_contents_are_trace_level_independent() {
        let run_at = |obs: Observability, plan: Option<FaultPlan>| {
            let c = cluster(2);
            c.set_observability(obs);
            c.set_fault_plan(plan);
            c.run(|ctx| {
                let win = ctx.create_window(vec![1.0; 8]).unwrap();
                let peer = 1 - ctx.rank();
                let _ = ctx.win_get(win, peer, 0..8, Lane::Sync, PhaseClass::SyncComm).unwrap();
                ctx.advance(Lane::Sync, 0.5, PhaseClass::SyncComp);
                ctx.barrier().unwrap();
            })
        };
        let sampled = Observability { sample_every: 3, ..Observability::comm() };
        for (obs, plan) in [(Observability::full(), None), (sampled, Some(recoverable_faults()))] {
            let off = run_at(Observability::off(), plan.clone());
            let traced = run_at(obs, plan);
            for (a, b) in off.iter().zip(&traced) {
                assert_eq!(a.flight, b.flight, "rank {} ring differs by level", a.rank);
                assert!(!a.flight.is_empty());
            }
        }
    }

    #[test]
    fn flight_ring_is_the_comm_event_stream() {
        use FaultKind::{GetFailure, LatencySpike, MeetJitter, RankStall};
        let c = cluster(3);
        c.set_observability(Observability::comm());
        c.set_flight_capacity(1 << 10);
        c.set_fault_plan(Some(recoverable_faults()));
        let out = c.run(traced_workload);
        let mut faults = Vec::new();
        for o in &out {
            o.result.as_ref().unwrap();
            assert!(o.events.len() < 1 << 10, "the ring holds the whole stream");
            let compact: Vec<FlightEntry> = o
                .events
                .iter()
                .map(|e| FlightEntry {
                    seq: e.seq,
                    kind: e.kind,
                    lane: e.lane,
                    class: e.class,
                    start_seconds: e.start_seconds,
                    end_seconds: e.end_seconds,
                    elements: e.elements,
                    peer: e.peers.first().copied(),
                    fault: e.fault,
                })
                .collect();
            assert_eq!(o.flight, compact, "rank {}", o.rank);
            faults.extend(o.events.iter().filter_map(|e| e.fault));
        }
        let kinds = [GetFailure, LatencySpike, MeetJitter, RankStall];
        assert!(kinds.iter().all(|k| faults.contains(k)), "every kind is injected: {faults:?}");
    }

    #[test]
    fn finish_time_is_max_lane() {
        let out = cluster(1).run(|ctx| {
            ctx.advance(Lane::Async, 2.0, PhaseClass::AsyncComp);
        });
        assert_eq!(out[0].finish_time(), SimTime::from_seconds(2.0));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_cluster_rejected() {
        let _ = Cluster::new(0, CostModel::delta());
    }

    #[test]
    fn outputs_are_in_rank_order() {
        let out = cluster(5).run(|ctx| ctx.rank());
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.rank, i);
            assert_eq!(o.result, i);
        }
    }

    #[test]
    fn bulk_get_returns_a_view_not_a_copy() {
        let out = cluster(2).run(|ctx| {
            let exposed = Payload::from(vec![1.0, 2.0, 3.0, 4.0]);
            let win = ctx.create_window(exposed.clone()).unwrap();
            let got = ctx.win_get(win, ctx.rank(), 1..3, Lane::Sync, PhaseClass::SyncComm).unwrap();
            (got.shares_buffer(&exposed), got.to_vec())
        });
        for o in &out {
            assert!(o.result.0, "win_get must alias the exposed buffer");
            assert_eq!(o.result.1, vec![2.0, 3.0]);
        }
    }

    #[test]
    fn cluster_is_reusable_across_runs() {
        // Regression test: per-rank tag and window counters restart at zero
        // each run, so a second run() on the same cluster must not collide
        // with meets or windows left over from the first.
        let c = cluster(2);
        for round in 0..3usize {
            let out = c.run(|ctx| {
                let win = ctx.create_window(vec![(round * 10 + ctx.rank()) as f64; 4]).unwrap();
                let peer = 1 - ctx.rank();
                let got = ctx.win_get(win, peer, 0..4, Lane::Sync, PhaseClass::SyncComm).unwrap();
                let all = ctx.allgather(Payload::from(vec![ctx.rank() as f64])).unwrap();
                let _ = ctx
                    .multicast(
                        round as u64,
                        0,
                        &[0, 1],
                        (ctx.rank() == 0).then(|| Payload::from(vec![round as f64])),
                    )
                    .unwrap();
                ctx.barrier().unwrap();
                (got[0], all.len())
            });
            for (r, o) in out.iter().enumerate() {
                assert_eq!(o.result.0, (round * 10 + (1 - r)) as f64);
                assert_eq!(o.result.1, 2);
            }
        }
    }

    /// The error of a get by `rank` from `target` in window 0.
    fn out_of_window(
        rank: usize,
        target: usize,
        range: Range<usize>,
        exposed: Option<usize>,
    ) -> NetError {
        NetError::OutOfWindow { rank, window: WindowId(0), target, range, exposed }
    }

    /// Asserts that window 0, created by a run before, is gone from the next.
    fn assert_stale(c: &Cluster) {
        let out =
            c.run(|ctx| ctx.win_get(WindowId(0), 0, 0..4, Lane::Sync, PhaseClass::SyncComm).err());
        for o in out {
            assert_eq!(o.result, Some(out_of_window(o.rank, 0, 0..4, None)));
        }
    }

    #[test]
    fn stale_window_handles_do_not_survive_a_new_run() {
        let c = cluster(2);
        assert_eq!(c.run(|ctx| ctx.create_window(vec![0.0; 4]).unwrap())[0].result, WindowId(0));
        assert_stale(&c);
    }

    #[test]
    fn session_mode_retains_windows_across_runs() {
        // Companion to `stale_window_handles_do_not_survive_a_new_run`: with
        // retention on, a handle from run 1 stays valid in run 2, and run 2's
        // fresh windows get ids *after* the retained table on every rank.
        let c = cluster(2);
        c.set_window_retention(true);
        assert!(c.window_retention());
        let old =
            c.run(|ctx| ctx.create_window(vec![ctx.rank() as f64 + 1.0; 2]).unwrap())[0].result;
        let out = c.run(move |ctx| {
            let fresh = ctx.create_window(vec![9.0; 2]).unwrap();
            let peer = 1 - ctx.rank();
            let warm = ctx.win_get(old, peer, 0..2, Lane::Sync, PhaseClass::SyncComm).unwrap();
            let new = ctx.win_get(fresh, peer, 0..2, Lane::Sync, PhaseClass::SyncComm).unwrap();
            (warm[0], new[0], fresh)
        });
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o.result.0, (1 - r) as f64 + 1.0, "retained window serves old data");
            assert_eq!(o.result.1, 9.0);
            assert_ne!(o.result.2, old, "fresh ids must not alias retained windows");
        }
    }

    #[test]
    fn session_meets_do_not_alias_across_runs() {
        // Epoch namespacing must keep collectives of different runs apart
        // even when the window table is retained: reusing the same explicit
        // multicast tag in consecutive session runs is safe.
        let c = cluster(2);
        c.set_window_retention(true);
        for round in 0..3u64 {
            let out = c.run(|ctx| {
                let got = ctx
                    .multicast(
                        7,
                        0,
                        &[0, 1],
                        (ctx.rank() == 0).then(|| Payload::from(vec![round as f64])),
                    )
                    .unwrap();
                got[0]
            });
            for o in &out {
                assert_eq!(o.result, round as f64);
            }
        }
    }

    #[test]
    fn reset_invalidates_retained_windows() {
        let c = cluster(2);
        c.set_window_retention(true);
        assert_eq!(c.run(|ctx| ctx.create_window(vec![0.0; 4]).unwrap())[0].result, WindowId(0));
        c.reset();
        assert_stale(&c);
    }

    #[test]
    fn reset_restarts_window_ids_from_zero() {
        // Full teardown symmetry: after reset() the cluster behaves as new —
        // the next run's first window gets id 0 again, and the cluster stays
        // usable.
        let c = cluster(2);
        c.set_window_retention(true);
        let first = c.run(|ctx| ctx.create_window(vec![1.0; 2]).unwrap())[0].result;
        let second = c.run(|ctx| ctx.create_window(vec![2.0; 2]).unwrap())[0].result;
        assert_ne!(first, second, "session mode allocates fresh ids per run");
        c.reset();
        let after = c.run(|ctx| {
            let win = ctx.create_window(vec![3.0; 2]).unwrap();
            let got = ctx.win_get(win, 1 - ctx.rank(), 0..2, Lane::Sync, PhaseClass::SyncComm);
            (win, got.unwrap()[0])
        });
        for o in &after {
            assert_eq!(o.result.0, first, "post-reset ids restart at zero");
            assert_eq!(o.result.1, 3.0);
        }
    }

    /// Rank 0's error from `get` once both ranks of a 2-rank cluster have
    /// exposed 8 elements in window 0.
    fn window_error<T>(get: impl Fn(&mut RankCtx) -> Result<T, NetError> + Sync) -> NetError {
        let mut out = cluster(2).run(|ctx| {
            ctx.create_window(vec![0.0; 8]).unwrap();
            (ctx.rank() == 0).then(|| get(ctx).err()).flatten()
        });
        out.remove(0).result.expect("rank 0's get fails")
    }

    #[test]
    fn window_target_out_of_range_is_a_typed_error() {
        let err =
            window_error(|ctx| ctx.win_get(WindowId(0), 2, 0..4, Lane::Sync, PhaseClass::SyncComm));
        assert_eq!(err, out_of_window(0, 2, 0..4, None));
        assert!(err.to_string().contains("exposes no buffer"), "{err}");
    }

    #[test]
    fn unexposed_window_buffer_is_a_typed_error() {
        // Rank 1's barrier meets rank 0's creation of window 0, so only rank
        // 0 has exposed a buffer there (rank 1's id could come from another
        // cluster).
        let out = cluster(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.create_window(vec![0.0; 4]).unwrap();
                None
            } else {
                ctx.barrier().unwrap();
                ctx.win_rget_rows(WindowId(0), 1, &[(1, 1)], 2).err()
            }
        });
        assert_eq!(out[1].result, Some(out_of_window(1, 1, 2..4, None)));
    }

    #[test]
    fn get_range_past_window_end_is_a_typed_error() {
        for range in [6..9, Range { start: 5, end: 3 }] {
            let err = window_error(|ctx| {
                ctx.win_get(WindowId(0), 1, range.clone(), Lane::Sync, PhaseClass::SyncComm)
            });
            assert_eq!(err, out_of_window(0, 1, range, Some(8)));
        }
    }

    #[test]
    fn rget_run_past_window_end_is_a_typed_error() {
        // 4 rows of width 2; the run (3, 2) reaches row 5.
        let err = window_error(|ctx| ctx.win_rget_rows(WindowId(0), 1, &[(0, 1), (3, 2)], 2));
        assert_eq!(err, out_of_window(0, 1, 6..10, Some(8)));
        assert!(err.to_string().contains("exceed the 8"), "{err}");
    }

    #[test]
    fn rget_offset_overflow_is_a_typed_error_with_units() {
        // Regression: a run whose element offset overflows usize must come
        // back as NetError::RangeOverflow naming rows and elements — not a
        // bare panic, and never a clamped (wrong-data) read.
        let out = cluster(2).run(|ctx| {
            let win = ctx.create_window(vec![0.0; 8]).unwrap();
            if ctx.rank() == 0 {
                // (first + n) * row_width overflows: end_row fits, product
                // does not.
                let row_mul = ctx.win_rget_rows(win, 1, &[(usize::MAX / 2, 3)], 2);
                // first + n itself overflows.
                let row_add = ctx.win_rget_rows(win, 1, &[(usize::MAX, 2)], 2);
                Some((row_mul, row_add))
            } else {
                None
            }
        });
        let (row_mul, row_add) = out[0].result.clone().expect("rank 0 ran the gets");
        for err in [row_mul.unwrap_err(), row_add.unwrap_err()] {
            match err {
                NetError::RangeOverflow {
                    rank,
                    target,
                    num_rows,
                    row_width,
                    window_elements,
                    ..
                } => {
                    assert_eq!((rank, target), (0, 1));
                    assert_eq!(row_width, 2);
                    assert_eq!(window_elements, 8);
                    assert!(num_rows >= 2);
                }
                other => panic!("expected RangeOverflow, got {other:?}"),
            }
            let msg = err.to_string();
            assert!(msg.contains("elements/row"), "units missing from: {msg}");
            assert!(msg.contains("8 elements"), "window size missing from: {msg}");
        }
    }

    /// One get per rank from its peer under `plan`, returning each rank's
    /// `(result, trace)`.
    fn faulted_get_run(plan: Option<FaultPlan>) -> Vec<RankOutput<Result<Vec<f64>, NetError>>> {
        let c = cluster(2);
        c.set_fault_plan(plan);
        c.run(|ctx| {
            let win = ctx.create_window(vec![ctx.rank() as f64; 8])?;
            let peer = 1 - ctx.rank();
            ctx.win_rget_rows(win, peer, &[(0, 4)], 2)
        })
    }

    #[test]
    fn transient_failures_recover_with_identical_data() {
        let clean = faulted_get_run(None);
        let faulted = faulted_get_run(Some(FaultPlan::heavy(77)));
        for (c, f) in clean.iter().zip(&faulted) {
            assert_eq!(c.result.as_ref().unwrap(), f.result.as_ref().unwrap());
        }
        // heavy(77) injects at least one fault across 2 ranks × 1 op each.
        let plan = FaultPlan::heavy(77);
        let expected: u32 = (0..2).map(|r| plan.injected_get_failures(r, 0)).sum();
        let recorded: u64 =
            faulted.iter().map(|o| o.trace.fault_count(FaultKind::GetFailure)).sum();
        assert_eq!(recorded, expected as u64);
        if expected > 0 {
            let recovery: f64 = faulted.iter().map(|o| o.trace.seconds(PhaseClass::Recovery)).sum();
            assert!(recovery > 0.0, "backoff must be charged to Recovery");
        }
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_timeout() {
        let plan = FaultPlan::seeded(1)
            .with_get_failure_rate(1.0)
            .with_retry(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
        let out = faulted_get_run(Some(plan));
        for o in out {
            match o.result {
                Err(NetError::TransferTimeout { rank, attempts, .. }) => {
                    assert_eq!(rank, o.rank);
                    assert_eq!(attempts, 3);
                }
                other => panic!("expected TransferTimeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn stalled_rank_surfaces_on_every_participant() {
        let c = cluster(3);
        c.set_fault_plan(Some(FaultPlan::seeded(0).with_slow_rank(1, 5.0).with_stall_timeout(1.0)));
        let out = c.run(|ctx| ctx.barrier());
        for o in out {
            match o.result {
                Err(NetError::RankStalled { straggler, stalled_seconds, .. }) => {
                    assert_eq!(straggler, 1);
                    assert!(stalled_seconds >= 5.0);
                }
                other => panic!("expected RankStalled, got {other:?}"),
            }
        }
    }

    #[test]
    fn quiescent_plan_reproduces_the_fault_free_timeline_bitwise() {
        let run = |plan: Option<FaultPlan>| {
            let c = cluster(3);
            c.set_fault_plan(plan);
            c.run(|ctx| {
                let mine = Arc::new(vec![ctx.rank() as f64; 16]);
                let all = ctx.allgather(mine)?;
                let win = ctx.create_window(vec![1.0; 8])?;
                let _ = ctx.win_rget_rows(win, (ctx.rank() + 1) % 3, &[(0, 2)], 2)?;
                ctx.barrier()?;
                Ok::<usize, NetError>(all.len())
            })
        };
        let clean = run(None);
        let quiet = run(Some(FaultPlan::quiescent(123)));
        for (c, q) in clean.iter().zip(&quiet) {
            assert_eq!(c.lane_times, q.lane_times, "rank {}", c.rank);
            assert_eq!(c.trace, q.trace, "rank {}", c.rank);
        }
    }

    /// Faults of every kind that `traced_workload` recovers from: failed and
    /// spiked gets, meet jitter and a slow rank, with no stall timeout.
    fn recoverable_faults() -> FaultPlan {
        FaultPlan::seeded(11)
            .with_get_failure_rate(0.5)
            .with_latency_spikes(0.5, 1e-6)
            .with_meet_jitter(1e-6)
            .with_slow_rank(1, 2e-6)
            .with_retry(RetryPolicy { max_attempts: 32, ..RetryPolicy::default() })
    }

    /// A workload exercising every op kind, tolerant of injected timeouts.
    fn traced_workload(ctx: &mut RankCtx) -> Result<(), NetError> {
        let p = ctx.ranks();
        let mine = Arc::new(vec![ctx.rank() as f64; 16]);
        let _ = ctx.allgather(mine)?;
        let win = ctx.create_window(vec![1.0; 8])?;
        let _ = ctx.win_rget_rows(win, (ctx.rank() + 1) % p, &[(0, 2)], 2)?;
        ctx.advance(Lane::Sync, 1e-4, PhaseClass::SyncComp);
        let _ = ctx.win_get(win, (ctx.rank() + 1) % p, 0..4, Lane::Sync, PhaseClass::SyncComm)?;
        let _ = ctx.shift_ring(Payload::from(vec![0.0; 4]), 1)?;
        let _ = ctx.multicast(
            3,
            0,
            &(0..p).collect::<Vec<_>>(),
            (ctx.rank() == 0).then(|| Payload::from(vec![5.0; 6])),
        )?;
        ctx.barrier()?;
        Ok(())
    }

    #[test]
    fn events_are_off_by_default_and_empty() {
        let out = cluster(2).run(traced_workload);
        for o in &out {
            o.result.as_ref().unwrap();
            assert!(o.events.is_empty());
            assert!(o.metrics.is_empty());
        }
    }

    #[test]
    fn full_event_stream_accounts_for_every_traced_second() {
        for plan in [None, Some(FaultPlan::light(7)), Some(FaultPlan::heavy(7))] {
            let c = cluster(3);
            c.set_observability(Observability::full());
            c.set_fault_plan(plan);
            let out = c.run(traced_workload);
            for o in &out {
                // Even a run that errored out mid-way must stay consistent.
                let by_class = seconds_by_class(&o.events);
                for (i, class) in PhaseClass::ALL.iter().enumerate() {
                    let want = o.trace.seconds(*class);
                    assert!(
                        (by_class[i] - want).abs() <= 1e-12 * want.max(1.0),
                        "rank {} class {class:?}: events {} vs trace {want}",
                        o.rank,
                        by_class[i],
                    );
                }
                let max_end = o.events.iter().map(|e| e.end_seconds).fold(0.0, f64::max);
                let finish = o.finish_time().seconds();
                assert!(
                    (max_end - finish).abs() <= 1e-12 * finish.max(1.0),
                    "rank {}: last event ends at {max_end}, rank finishes at {finish}",
                    o.rank,
                );
            }
        }
    }

    #[test]
    fn comm_level_records_operations_but_not_kernels() {
        let c = cluster(2);
        c.set_observability(Observability::comm());
        let out = c.run(traced_workload);
        for o in &out {
            o.result.as_ref().unwrap();
            assert!(o.events.iter().all(|e| e.kind != OpKind::Kernel));
            for kind in [
                OpKind::Allgather,
                OpKind::MeetWait,
                OpKind::WindowCreate,
                OpKind::RgetRows,
                OpKind::Get,
                OpKind::ShiftRing,
                OpKind::Multicast,
                OpKind::Barrier,
            ] {
                assert!(
                    o.events.iter().any(|e| e.kind == kind),
                    "rank {} missing {kind:?}",
                    o.rank
                );
            }
            assert_eq!(o.metrics.counter("ops.allgather"), 1);
            assert_eq!(o.metrics.counter("ops.barrier"), 1);
            assert_eq!(o.metrics.histogram("one_sided_get_elements").unwrap().count(), 2);
            assert_eq!(o.metrics.histogram("meet_arrival_spread_ns").unwrap().count(), 5);
        }
        // Root's fan-out histogram records the §7.2 profile datum.
        assert_eq!(out[0].metrics.histogram("multicast_fanout").unwrap().max(), Some(1));
        assert!(out[1].metrics.histogram("multicast_fanout").is_none());
    }

    #[test]
    fn quiescent_plan_reproduces_the_fault_free_event_stream_bitwise() {
        let run = |plan: Option<FaultPlan>| {
            let c = cluster(3);
            c.set_observability(Observability::full());
            c.set_fault_plan(plan);
            c.run(traced_workload)
        };
        let clean = run(None);
        let quiet = run(Some(FaultPlan::quiescent(99)));
        for (c, q) in clean.iter().zip(&quiet) {
            assert_eq!(c.events, q.events, "rank {}", c.rank);
            assert_eq!(c.metrics, q.metrics, "rank {}", c.rank);
        }
    }

    #[test]
    fn chaos_event_streams_replay_bitwise() {
        let run = || {
            let c = cluster(3);
            c.set_observability(Observability::full());
            c.set_fault_plan(Some(FaultPlan::heavy(41)));
            c.run(traced_workload)
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "rank {}", x.rank);
        }
        // Injected faults must surface as instant events.
        let faults: usize = a.iter().map(|o| o.trace.faults_injected() as usize).sum();
        let instants: usize =
            a.iter().map(|o| o.events.iter().filter(|e| e.fault.is_some()).count()).sum();
        assert_eq!(faults, instants);
    }

    #[test]
    fn observability_snapshot_is_per_run() {
        let c = cluster(2);
        c.set_observability(Observability::full());
        assert_eq!(c.observability().level, TraceLevel::Full);
        let traced = c.run(traced_workload);
        assert!(traced.iter().all(|o| !o.events.is_empty()));
        c.set_observability(Observability::off());
        let silent = c.run(traced_workload);
        assert!(silent.iter().all(|o| o.events.is_empty()));
    }

    #[test]
    fn plan_changes_do_not_affect_runs_already_started() {
        let c = cluster(2);
        c.set_fault_plan(Some(FaultPlan::light(5)));
        assert_eq!(c.fault_plan(), Some(FaultPlan::light(5)));
        c.set_fault_plan(None);
        assert_eq!(c.fault_plan(), None);
        let out = c.run(|ctx| ctx.fault_plan().cloned());
        for o in out {
            assert_eq!(o.result, None, "run must snapshot the plan at start");
        }
    }
}
