//! Per-operation event recording behind the aggregate [`RankTrace`] counters.
//!
//! [`RankTrace`](crate::RankTrace) answers *how much* time each Figure-10
//! class consumed; it cannot say *which* multicast, get-flood, or retry storm
//! made a rank critical. When observability is enabled, every communication
//! operation, fault injection, and (at [`TraceLevel::Full`]) local kernel
//! span is additionally recorded as an [`OpEvent`] with simulated start/end
//! times, so the timeline can be replayed in Perfetto (see
//! [`export`](crate::export)) or post-processed analytically.
//!
//! # Determinism contract
//!
//! Events are produced in rank-thread program order from virtual-clock
//! arithmetic only, so for a fixed seed (including a chaos seed) the event
//! stream is bitwise identical across replays and real-worker counts. The
//! single exception is [`OpEvent::wall_nanos`], the optional host wall-time
//! of real kernel spans: it is segregated into its own field that exporters
//! can drop (`include_wall = false`), keeping chaos-replay comparisons
//! bitwise.
//!
//! # One recorder per rank
//!
//! Every operation of a rank reaches its event sink through one call, once
//! per event. The sink keeps each non-kernel event as a fixed-size
//! [`FlightEntry`] in a bounded ring at every level (the always-on flight
//! recorder, [`RankOutput::flight`](crate::RankOutput::flight)), and the full
//! [`OpEvent`] only when the trace level and sampler admit it.
//!
//! # Overhead
//!
//! At [`TraceLevel::Off`] (the default) each event costs one fixed-size ring
//! store plus one level compare, with no allocation: an [`OpEvent`] and its
//! peer list are built only for events the sink keeps.

use crate::cluster::Lane;
use crate::trace::{FaultKind, PhaseClass};
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// How much the cluster records about each operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Record nothing (the default; near-zero overhead).
    Off,
    /// Record communication operations, meet waits, and faults.
    Comm,
    /// Additionally record local kernel spans ([`OpKind::Kernel`]). At this
    /// level (with `sample_every == 1`) the per-class sum of event durations
    /// equals the aggregate [`RankTrace`](crate::RankTrace) seconds.
    Full,
}

/// Observability configuration installed on a
/// [`Cluster`](crate::Cluster) via
/// [`Cluster::set_observability`](crate::Cluster::set_observability).
#[derive(Debug, Clone, PartialEq)]
pub struct Observability {
    /// Recording level.
    pub level: TraceLevel,
    /// Keep every `sample_every`-th candidate event (1 = keep all). Sampled
    /// streams preserve the original [`OpEvent::seq`] numbers, so gaps are
    /// visible. Zero is treated as 1.
    pub sample_every: u64,
    /// Also stamp kernel spans with host wall-time
    /// ([`OpEvent::wall_nanos`]). Wall time is nondeterministic; exporters
    /// segregate or drop it.
    pub wall_time: bool,
}

impl Observability {
    /// Recording disabled (the default).
    pub fn off() -> Observability {
        Observability { level: TraceLevel::Off, sample_every: 1, wall_time: false }
    }

    /// Record communication operations and faults only.
    pub fn comm() -> Observability {
        Observability { level: TraceLevel::Comm, sample_every: 1, wall_time: false }
    }

    /// Record everything, unsampled, without host wall-time.
    pub fn full() -> Observability {
        Observability { level: TraceLevel::Full, sample_every: 1, wall_time: false }
    }

    /// Whether any recording is enabled.
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }
}

impl Default for Observability {
    fn default() -> Observability {
        Observability::off()
    }
}

/// What kind of operation an [`OpEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A subgroup multicast (root or receiver side).
    Multicast,
    /// An all-rank allgather.
    Allgather,
    /// One step of the all-rank cyclic shift.
    ShiftRing,
    /// An all-rank barrier (the whole wait is the span).
    Barrier,
    /// Collective one-sided window creation.
    WindowCreate,
    /// Time spent waiting for the other participants of a collective to
    /// arrive (charged before the transfer itself).
    MeetWait,
    /// A successful bulk one-sided get.
    Get,
    /// A successful fine-grained indexed one-sided get.
    RgetRows,
    /// A transiently failed one-sided attempt (the transfer time that was
    /// lost; the subsequent backoff is a separate [`OpKind::Backoff`]).
    Retry,
    /// Retry backoff after a failed one-sided attempt (always
    /// [`PhaseClass::Recovery`]).
    Backoff,
    /// An injected fault, recorded as an instant (zero-duration) event.
    Fault,
    /// A local compute span charged via
    /// [`RankCtx::advance`](crate::RankCtx::advance) /
    /// [`RankCtx::advance_span`](crate::RankCtx::advance_span). Only
    /// recorded at [`TraceLevel::Full`].
    Kernel,
    /// A host-side pass of the streamed (out-of-core) pipeline driver. The
    /// simulated span is an instant (the pipeline runs outside virtual
    /// time); the real duration lives in [`OpEvent::wall_nanos`].
    HostPass,
    /// A spill-shard write or read by the streamed pipeline driver
    /// (`elements` counts the bytes moved; `initiator` is `true` for
    /// writes, `false` for reads).
    Spill,
    /// A host-memory gauge sample from the streamed pipeline driver
    /// (`elements` is the estimated high-water mark in bytes).
    Gauge,
}

impl OpKind {
    /// Every kind, in a stable order used for profile-cell sorting.
    pub const ALL: [OpKind; 15] = [
        OpKind::Multicast,
        OpKind::Allgather,
        OpKind::ShiftRing,
        OpKind::Barrier,
        OpKind::WindowCreate,
        OpKind::MeetWait,
        OpKind::Get,
        OpKind::RgetRows,
        OpKind::Retry,
        OpKind::Backoff,
        OpKind::Fault,
        OpKind::Kernel,
        OpKind::HostPass,
        OpKind::Spill,
        OpKind::Gauge,
    ];

    /// Position of this kind in [`OpKind::ALL`].
    pub fn index(self) -> usize {
        OpKind::ALL.iter().position(|&k| k == self).expect("every kind is in ALL")
    }

    /// Short display name (used as the Perfetto slice name).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Multicast => "multicast",
            OpKind::Allgather => "allgather",
            OpKind::ShiftRing => "shift_ring",
            OpKind::Barrier => "barrier",
            OpKind::WindowCreate => "window_create",
            OpKind::MeetWait => "meet_wait",
            OpKind::Get => "get",
            OpKind::RgetRows => "rget_rows",
            OpKind::Retry => "retry",
            OpKind::Backoff => "backoff",
            OpKind::Fault => "fault",
            OpKind::Kernel => "kernel",
            OpKind::HostPass => "host_pass",
            OpKind::Spill => "spill",
            OpKind::Gauge => "gauge",
        }
    }
}

/// One recorded operation of one rank.
///
/// Times are the rank's *simulated* clock in seconds; `start_seconds ==
/// end_seconds` for instant events (faults). Events are recorded in
/// rank-thread program order; `seq` is the per-rank candidate index, stable
/// under sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpEvent {
    /// Per-rank sequence number of this candidate event (gaps appear when
    /// `sample_every > 1`).
    pub seq: u64,
    /// What the operation was.
    pub kind: OpKind,
    /// The virtual lane whose clock the operation advanced.
    pub lane: Lane,
    /// The Figure-10 class its time was attributed to.
    pub class: PhaseClass,
    /// Simulated start time (seconds).
    pub start_seconds: f64,
    /// Simulated end time (seconds).
    pub end_seconds: f64,
    /// Dense elements moved (transfers) or multiply-accumulate products
    /// `nnz * k` (kernel spans); zero when not applicable.
    pub elements: u64,
    /// Peer ranks: destinations for a multicast root, the source root for a
    /// receiver, `[to, from]` for a shift, the target for one-sided gets,
    /// the straggler for meet waits. Empty for all-rank symmetric ops.
    pub peers: Vec<usize>,
    /// Whether this rank initiated the transfer (multicast root, get
    /// issuer) as opposed to passively receiving.
    pub initiator: bool,
    /// The injected fault, for [`OpKind::Fault`] instants.
    pub fault: Option<FaultKind>,
    /// Host wall-time of the real kernel behind this span, when
    /// [`Observability::wall_time`] was set. Nondeterministic: excluded from
    /// determinism comparisons and segregated by exporters.
    pub wall_nanos: Option<u64>,
}

impl OpEvent {
    /// Simulated duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

/// Sums simulated event durations per [`PhaseClass`], in
/// [`PhaseClass::ALL`] order.
///
/// At [`TraceLevel::Full`] with `sample_every == 1` this reproduces the
/// aggregate [`RankTrace`](crate::RankTrace) class totals to floating-point
/// tolerance (the aggregate adds wait and transfer in one rounding step,
/// events in two).
pub fn seconds_by_class(events: &[OpEvent]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for e in events {
        out[e.class.index()] += e.duration_seconds();
    }
    out
}

/// Default per-rank capacity of the always-on flight recorder.
pub const FLIGHT_CAPACITY_DEFAULT: usize = 64;

/// One compact flight-recorder entry: the fixed-size form of a non-kernel
/// [`OpEvent`], kept by the always-on ring (see
/// [`RankOutput::flight`](crate::RankOutput::flight)).
///
/// Unlike [`OpEvent`]s, entries are recorded at every [`TraceLevel`]
/// including `Off` and are never sampled, so they must stay allocation-free:
/// the peer list is collapsed to its first peer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlightEntry {
    /// Per-rank flight sequence number (total entries ever recorded; gaps
    /// never occur — the ring drops only from the front). Kernel spans take
    /// no flight numbers, so this equals [`OpEvent::seq`] of the same event
    /// in an unsampled [`TraceLevel::Comm`] stream.
    pub seq: u64,
    /// What the operation was.
    pub kind: OpKind,
    /// The virtual lane whose clock the operation advanced.
    pub lane: Lane,
    /// The Figure-10 class its time was attributed to.
    pub class: PhaseClass,
    /// Simulated start time (seconds).
    pub start_seconds: f64,
    /// Simulated end time (seconds).
    pub end_seconds: f64,
    /// Dense elements moved; zero when not applicable.
    pub elements: u64,
    /// The first of the event's [`OpEvent::peers`]: the get target, the
    /// multicast root (receivers) or first destination (root), the shift
    /// destination, or the straggler of a meet wait or barrier. `None` for
    /// symmetric all-rank ops and fault instants.
    pub peer: Option<usize>,
    /// The injected fault, for fault instants.
    pub fault: Option<FaultKind>,
}

impl FlightEntry {
    /// Compact single-line rendering used in error contexts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "#{} {} {:.6}s+{:.2}us",
            self.seq,
            self.kind.label(),
            self.start_seconds,
            (self.end_seconds - self.start_seconds) * 1e6,
        );
        if self.elements > 0 {
            out.push_str(&format!(" {}el", self.elements));
        }
        if let Some(peer) = self.peer {
            out.push_str(&format!(" peer={peer}"));
        }
        if let Some(fault) = self.fault {
            out.push_str(&format!(" [{}]", fault.label()));
        }
        out
    }
}

/// The bounded ring of the last N non-kernel events of one rank. Kernel
/// spans stay out: they are orders of magnitude more frequent and carry no
/// post-mortem signal for transfer/stall failures.
#[derive(Debug, Clone)]
struct FlightRecorder {
    entries: Vec<FlightEntry>,
    next: usize,
    total: u64,
    capacity: usize,
}

impl FlightRecorder {
    fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { entries: Vec::with_capacity(capacity), next: 0, total: 0, capacity }
    }

    /// Stores `entry` under the next flight `seq`, overwriting the oldest
    /// once the ring is full. A zero-capacity recorder drops everything
    /// (used to measure the recorder's own overhead).
    #[inline]
    fn record(&mut self, entry: FlightEntry) {
        if self.capacity == 0 {
            return;
        }
        let entry = FlightEntry { seq: self.total, ..entry };
        self.total += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.entries[self.next] = entry;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Drains the ring into chronological order: once full, the oldest
    /// entry sits at `next`.
    fn into_entries(mut self) -> Vec<FlightEntry> {
        if self.entries.len() == self.capacity {
            self.entries.rotate_left(self.next);
        }
        self.entries
    }
}

/// One operation as a rank reports it to its [`EventSink`]: an [`OpEvent`]
/// before the sink numbers it, with its peers not yet collected.
pub(crate) struct Op<P> {
    pub(crate) kind: OpKind,
    pub(crate) lane: Lane,
    pub(crate) class: PhaseClass,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) elements: u64,
    /// [`OpEvent::peers`] in order, collected only when the event is kept.
    pub(crate) peers: P,
    pub(crate) initiator: bool,
    pub(crate) fault: Option<FaultKind>,
    pub(crate) wall_nanos: Option<u64>,
}

/// The per-rank recorder: the flight ring plus the gated, sampled
/// [`OpEvent`] stream.
pub(crate) struct EventSink {
    level: TraceLevel,
    sample_every: u64,
    wall_time: bool,
    seq: u64,
    events: Vec<OpEvent>,
    flight: FlightRecorder,
}

impl EventSink {
    pub(crate) fn new(obs: &Observability, flight_capacity: usize) -> EventSink {
        EventSink {
            level: obs.level,
            sample_every: obs.sample_every.max(1),
            wall_time: obs.wall_time,
            seq: 0,
            events: Vec::new(),
            flight: FlightRecorder::new(flight_capacity),
        }
    }

    /// Communication-level recording enabled?
    #[inline]
    pub(crate) fn comm(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Host wall-time stamping requested (implies recording enabled)?
    #[inline]
    pub(crate) fn wall(&self) -> bool {
        self.wall_time && self.comm()
    }

    /// Records one event. A non-kernel event always enters the flight ring.
    /// It is a candidate for the stream at [`TraceLevel::Comm`] and above,
    /// a kernel span only at [`TraceLevel::Full`]; candidates are numbered,
    /// and every `sample_every`-th is kept as an [`OpEvent`].
    #[inline]
    pub(crate) fn record<P>(&mut self, op: Op<P>)
    where
        P: IntoIterator<Item = usize>,
        P::IntoIter: Clone,
    {
        let kernel = op.kind == OpKind::Kernel;
        let peers = op.peers.into_iter();
        if !kernel {
            self.flight.record(FlightEntry {
                seq: 0,
                kind: op.kind,
                lane: op.lane,
                class: op.class,
                start_seconds: op.start.seconds(),
                end_seconds: op.end.seconds(),
                elements: op.elements,
                peer: peers.clone().next(),
                fault: op.fault,
            });
        }
        let candidate = match self.level {
            TraceLevel::Off => false,
            TraceLevel::Comm => !kernel,
            TraceLevel::Full => true,
        };
        if !candidate {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if seq.is_multiple_of(self.sample_every) {
            self.events.push(OpEvent {
                seq,
                kind: op.kind,
                lane: op.lane,
                class: op.class,
                start_seconds: op.start.seconds(),
                end_seconds: op.end.seconds(),
                elements: op.elements,
                peers: peers.collect(),
                initiator: op.initiator,
                fault: op.fault,
                wall_nanos: op.wall_nanos.filter(|_| self.wall_time),
            });
        }
    }

    /// The kept events and the flight ring, each in chronological order.
    pub(crate) fn finish(self) -> (Vec<OpEvent>, Vec<FlightEntry>) {
        (self.events, self.flight.into_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, class: PhaseClass, start: f64, end: f64) -> OpEvent {
        OpEvent {
            seq,
            kind: OpKind::Kernel,
            lane: Lane::Sync,
            class,
            start_seconds: start,
            end_seconds: end,
            elements: 0,
            peers: Vec::new(),
            initiator: true,
            fault: None,
            wall_nanos: None,
        }
    }

    #[test]
    fn defaults_are_off() {
        let obs = Observability::default();
        assert!(!obs.enabled());
        assert_eq!(obs, Observability::off());
        assert!(Observability::comm().enabled());
        assert!(Observability::full().enabled());
    }

    fn op(kind: OpKind, at: f64) -> Op<[usize; 1]> {
        Op {
            kind,
            lane: Lane::Async,
            class: PhaseClass::AsyncComm,
            start: SimTime::from_seconds(at),
            end: SimTime::from_seconds(at + 0.5),
            elements: at as u64,
            peers: [at as usize],
            initiator: true,
            fault: None,
            wall_nanos: None,
        }
    }

    #[test]
    fn sink_samples_every_nth_candidate_keeping_seq() {
        let mut sink =
            EventSink::new(&Observability { sample_every: 3, ..Observability::full() }, 0);
        for i in 0..7u64 {
            sink.record(op(OpKind::Kernel, i as f64));
        }
        let seqs: Vec<u64> = sink.finish().0.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 3, 6]);
    }

    #[test]
    fn zero_sample_every_is_treated_as_one() {
        let mut sink =
            EventSink::new(&Observability { sample_every: 0, ..Observability::comm() }, 0);
        sink.record(op(OpKind::Get, 0.0));
        assert_eq!(sink.finish().0.len(), 1);
    }

    #[test]
    fn seconds_by_class_sums_durations_in_all_order() {
        let events = vec![
            event(0, PhaseClass::SyncComp, 0.0, 1.0),
            event(1, PhaseClass::SyncComp, 1.0, 1.5),
            event(2, PhaseClass::Recovery, 2.0, 2.25),
        ];
        let sums = seconds_by_class(&events);
        assert_eq!(sums[0], 1.5); // SyncComp is ALL[0]
        assert_eq!(sums[5], 0.25); // Recovery is ALL[5]
        assert_eq!(sums[1..5], [0.0; 4]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OpKind::RgetRows.label(), "rget_rows");
        assert_eq!(OpKind::MeetWait.label(), "meet_wait");
        assert_eq!(OpKind::HostPass.label(), "host_pass");
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn flight_ring_keeps_last_n_in_order() {
        let mut sink = EventSink::new(&Observability::off(), 4);
        for i in 0..7u64 {
            sink.record(op(OpKind::Get, i as f64));
            // Kernel spans never enter the ring, so they take no flight seq.
            sink.record(op(OpKind::Kernel, i as f64));
        }
        let (events, entries) = sink.finish();
        assert!(events.is_empty());
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<u64>>(), vec![3, 4, 5, 6]);
        assert_eq!(entries[0].start_seconds, 3.0);
        assert_eq!(entries[3].peer, Some(6));
    }

    #[test]
    fn flight_ring_zero_capacity_drops_everything() {
        let mut sink = EventSink::new(&Observability::comm(), 0);
        sink.record(op(OpKind::Get, 0.0));
        let (events, entries) = sink.finish();
        assert_eq!(events.len(), 1);
        assert!(entries.is_empty());
    }

    #[test]
    fn flight_entry_renders_compactly() {
        let entry = FlightEntry {
            seq: 9,
            kind: OpKind::Retry,
            lane: Lane::Async,
            class: PhaseClass::Recovery,
            start_seconds: 0.5,
            end_seconds: 0.5005,
            elements: 128,
            peer: Some(3),
            fault: Some(FaultKind::GetFailure),
        };
        let text = entry.render();
        assert!(text.contains("retry"), "{text}");
        assert!(text.contains("128el"), "{text}");
        assert!(text.contains("peer=3"), "{text}");
        assert!(text.contains("get failure"), "{text}");
    }
}
