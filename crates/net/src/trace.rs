//! Per-rank execution tracing.
//!
//! Every communication or computation the simulator performs is attributed
//! to one of the paper's Figure-10 categories, so the breakdown chart can be
//! regenerated directly from a run. Traces also collect the communication
//! volume counters and the multicast-recipient profile the paper reports in
//! §7.2.

use serde::{Deserialize, Serialize};

/// The execution-time category an operation belongs to (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseClass {
    /// Synchronous (collective) communication: broadcasts, allgathers,
    /// shifts.
    SyncComm,
    /// Synchronous computation: row-panel SpMM on sync/local-input nonzeros.
    SyncComp,
    /// Asynchronous communication: fine-grained one-sided gets.
    AsyncComm,
    /// Asynchronous computation: column-major SpMM on async stripes.
    AsyncComp,
    /// Setup and bookkeeping (the paper's "Other": MPI structure init).
    Other,
    /// Fault recovery: retry backoff after transiently failed one-sided
    /// operations. Not a Figure-10 category — it is zero on a fault-free
    /// network and appears as an extra bar segment only under an installed
    /// [`FaultPlan`](crate::FaultPlan).
    Recovery,
}

impl PhaseClass {
    /// All categories, in Figure 10's legend order, with the fault-recovery
    /// extension last.
    pub const ALL: [PhaseClass; 6] = [
        PhaseClass::SyncComp,
        PhaseClass::SyncComm,
        PhaseClass::AsyncComp,
        PhaseClass::AsyncComm,
        PhaseClass::Other,
        PhaseClass::Recovery,
    ];

    /// The label used in Figure 10.
    pub fn label(self) -> &'static str {
        match self {
            PhaseClass::SyncComm => "Sync Comm",
            PhaseClass::SyncComp => "Sync Comp",
            PhaseClass::AsyncComm => "Async Comm",
            PhaseClass::AsyncComp => "Async Comp",
            PhaseClass::Other => "Other",
            PhaseClass::Recovery => "Recovery",
        }
    }

    /// Position in [`PhaseClass::ALL`] (also the storage index of
    /// per-class arrays and the Perfetto track order).
    pub fn index(self) -> usize {
        match self {
            PhaseClass::SyncComp => 0,
            PhaseClass::SyncComm => 1,
            PhaseClass::AsyncComp => 2,
            PhaseClass::AsyncComm => 3,
            PhaseClass::Other => 4,
            PhaseClass::Recovery => 5,
        }
    }
}

/// The kind of an injected fault (see [`FaultPlan`](crate::FaultPlan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A one-sided get attempt transiently failed.
    GetFailure,
    /// A successful one-sided get was degraded by extra link latency.
    LatencySpike,
    /// A collective arrival was delayed by delivery jitter.
    MeetJitter,
    /// A slow rank straggled before a collective arrival.
    RankStall,
}

impl FaultKind {
    /// Human-readable name (used for Perfetto instant markers).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::GetFailure => "get failure",
            FaultKind::LatencySpike => "latency spike",
            FaultKind::MeetJitter => "meet jitter",
            FaultKind::RankStall => "rank stall",
        }
    }
}

/// One injected fault, recorded in the issuing rank's trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// The rank-local index of the affected operation: the one-sided
    /// operation counter for get faults, the meet counter for
    /// jitter/stalls.
    pub op: u64,
    /// The failed attempt number for [`FaultKind::GetFailure`], zero
    /// otherwise.
    pub attempt: u32,
    /// Simulated seconds the fault added to this rank's timeline (for a get
    /// failure: the wasted attempt plus its backoff).
    pub seconds: f64,
}

/// Accumulated per-rank counters for one simulated run.
///
/// A `RankTrace` is owned by its rank's thread during execution and returned
/// to the caller afterwards; it is plain data with no interior mutability.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankTrace {
    seconds_by_class: [f64; 6],
    /// Total elements sent by this rank (as transfer source).
    pub elements_sent: u64,
    /// Total elements received by this rank (as transfer destination).
    pub elements_received: u64,
    /// Number of communication operations this rank initiated.
    pub messages: u64,
    /// Recipient count of every multicast this rank issued as root
    /// (the §7.2 profile).
    pub multicast_recipients: Vec<usize>,
    /// Every fault injected into this rank's operations, in issue order.
    pub fault_events: Vec<FaultEvent>,
    /// Number of one-sided attempts that were retried after a transient
    /// failure.
    pub retries: u64,
    /// One-sided operations issued (counted whether or not a fault plan is
    /// installed, so fault-free and faulted traces stay comparable).
    pub one_sided_ops: u64,
    /// Collective steps this rank took part in: every collective, and every
    /// step with two or more members of a
    /// [`multicast_chain`](crate::RankCtx::multicast_chain), however few
    /// rendezvous carried them. It is the index of the fault plan's arrival
    /// draws, counted unconditionally like [`RankTrace::one_sided_ops`].
    pub meets: u64,
}

impl RankTrace {
    /// Creates an empty trace.
    pub fn new() -> RankTrace {
        RankTrace::default()
    }

    /// Adds `seconds` of simulated time to `class`.
    pub fn add_time(&mut self, class: PhaseClass, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative time for {class:?}");
        self.seconds_by_class[class.index()] += seconds;
    }

    /// Simulated seconds attributed to `class`.
    pub fn seconds(&self, class: PhaseClass) -> f64 {
        self.seconds_by_class[class.index()]
    }

    /// Total simulated seconds across all categories.
    pub fn total_seconds(&self) -> f64 {
        self.seconds_by_class.iter().sum()
    }

    /// Per-class simulated seconds in [`PhaseClass::ALL`] order (the shape
    /// [`seconds_by_class`](crate::seconds_by_class) derives from an event
    /// stream, for cross-checking the two accounting systems).
    pub fn class_seconds(&self) -> [f64; 6] {
        self.seconds_by_class
    }

    /// Records an injected fault.
    pub fn record_fault(&mut self, event: FaultEvent) {
        self.fault_events.push(event);
    }

    /// Number of recorded faults of `kind`.
    pub fn fault_count(&self, kind: FaultKind) -> u64 {
        self.fault_events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Total number of faults injected into this rank.
    pub fn faults_injected(&self) -> u64 {
        self.fault_events.len() as u64
    }

    /// Merges another trace's counters into this one (used to combine lane
    /// traces or aggregate across ranks).
    pub fn merge(&mut self, other: &RankTrace) {
        for i in 0..self.seconds_by_class.len() {
            self.seconds_by_class[i] += other.seconds_by_class[i];
        }
        self.elements_sent += other.elements_sent;
        self.elements_received += other.elements_received;
        self.messages += other.messages;
        self.multicast_recipients.extend_from_slice(&other.multicast_recipients);
        self.fault_events.extend_from_slice(&other.fault_events);
        self.retries += other.retries;
        self.one_sided_ops += other.one_sided_ops;
        self.meets += other.meets;
    }

    /// Mean recipients per multicast issued by this rank, if any were issued.
    pub fn mean_multicast_recipients(&self) -> Option<f64> {
        if self.multicast_recipients.is_empty() {
            None
        } else {
            Some(
                self.multicast_recipients.iter().sum::<usize>() as f64
                    / self.multicast_recipients.len() as f64,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_by_class() {
        let mut t = RankTrace::new();
        t.add_time(PhaseClass::SyncComm, 1.0);
        t.add_time(PhaseClass::SyncComm, 0.5);
        t.add_time(PhaseClass::AsyncComp, 2.0);
        assert_eq!(t.seconds(PhaseClass::SyncComm), 1.5);
        assert_eq!(t.seconds(PhaseClass::AsyncComp), 2.0);
        assert_eq!(t.seconds(PhaseClass::Other), 0.0);
        assert!((t.total_seconds() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = RankTrace::new();
        a.add_time(PhaseClass::SyncComp, 1.0);
        a.elements_sent = 10;
        a.multicast_recipients.push(3);
        let mut b = RankTrace::new();
        b.add_time(PhaseClass::SyncComp, 2.0);
        b.elements_received = 7;
        b.messages = 4;
        b.multicast_recipients.push(5);
        a.merge(&b);
        assert_eq!(a.seconds(PhaseClass::SyncComp), 3.0);
        assert_eq!(a.elements_sent, 10);
        assert_eq!(a.elements_received, 7);
        assert_eq!(a.messages, 4);
        assert_eq!(a.multicast_recipients, vec![3, 5]);
    }

    #[test]
    fn mean_multicast_recipients() {
        let mut t = RankTrace::new();
        assert_eq!(t.mean_multicast_recipients(), None);
        t.multicast_recipients.extend([2, 4, 6]);
        assert_eq!(t.mean_multicast_recipients(), Some(4.0));
    }

    #[test]
    fn labels_are_figure10_names() {
        assert_eq!(PhaseClass::SyncComm.label(), "Sync Comm");
        assert_eq!(PhaseClass::Recovery.label(), "Recovery");
        assert_eq!(PhaseClass::ALL.len(), 6);
    }

    #[test]
    fn fault_events_count_by_kind_and_merge() {
        let mut a = RankTrace::new();
        a.record_fault(FaultEvent {
            kind: FaultKind::GetFailure,
            op: 0,
            attempt: 0,
            seconds: 1e-6,
        });
        a.record_fault(FaultEvent {
            kind: FaultKind::GetFailure,
            op: 0,
            attempt: 1,
            seconds: 2e-6,
        });
        a.retries = 2;
        let mut b = RankTrace::new();
        b.record_fault(FaultEvent {
            kind: FaultKind::MeetJitter,
            op: 3,
            attempt: 0,
            seconds: 5e-7,
        });
        b.meets = 4;
        a.merge(&b);
        assert_eq!(a.fault_count(FaultKind::GetFailure), 2);
        assert_eq!(a.fault_count(FaultKind::MeetJitter), 1);
        assert_eq!(a.fault_count(FaultKind::RankStall), 0);
        assert_eq!(a.faults_injected(), 3);
        assert_eq!(a.retries, 2);
        assert_eq!(a.meets, 4);
    }
}
