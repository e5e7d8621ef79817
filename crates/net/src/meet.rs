//! The rendezvous primitive underlying every collective operation.
//!
//! A *meet* is a named barrier with data exchange: every participant arrives
//! with an [`Arrival`] (its clock, its meet index and any payloads) and
//! blocks until the last participant arrives. The last arrival *resolves*
//! the meet from all the arrivals, once, and every participant departs with
//! that one shared resolution. This models MPI collective semantics — a
//! collective cannot complete before its slowest participant arrives — while
//! letting per-rank virtual clocks advance independently between
//! collectives.
//!
//! One loop, [`MeetRegistry::rendezvous`], handles arrival, poison, the
//! watchdog and departure for both kinds of meet:
//!
//! * an all-rank collective ([`MeetRegistry::meet`]) resolves to its
//!   [`Meeting`] — completion time, straggler and arrival spread — plus the
//!   payloads by rank;
//! * a multicast chain ([`RankCtx::multicast_chain`](crate::RankCtx::multicast_chain))
//!   is one meet of every member of a list of multicasts that all ranks
//!   know in advance. Its last arrival sweeps the list and resolves each
//!   multicast exactly as that multicast's own meet would, so the members
//!   meet once per chain rather than once per multicast.
//!
//! Tags identify meet instances. Participants of the same meet must pass
//! identical tags, participant counts and signatures (a chain's step count
//! and step-list hash); a disagreement fails the run at once, naming the
//! tag. Like MPI, each rank must issue its collectives in a globally
//! consistent order or the run deadlocks (a 60-second watchdog turns such
//! deadlocks into panics naming the tag).
//!
//! The gap between a rank's arrival and the meet's completion is what the
//! observability layer records as an
//! [`OpKind::MeetWait`](crate::OpKind::MeetWait) event, and the spread
//! between the earliest and latest arrival feeds the
//! `meet_arrival_spread_ns` histogram — the per-collective view of the
//! straggler imbalance that Figure 10's aggregate bars can only hint at.

use crate::SimTime;
use std::any::Any;
use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Payload deposited at a meet: a shared immutable view into a dense buffer.
///
/// A payload is an `Arc`-backed buffer plus a sub-range, so a collective can
/// ship a stripe of a rank's resident block without materialising a copy:
/// cloning a `Payload` (as every meet participant does when it snapshots the
/// payload map) only bumps the reference count, and [`Payload::subslice`]
/// narrows the view in O(1). Dereferences as `&[f64]`.
#[derive(Debug, Clone)]
pub struct Payload {
    buf: Arc<Vec<f64>>,
    start: usize,
    len: usize,
}

impl Payload {
    /// Wraps an entire shared buffer.
    pub fn new(buf: Arc<Vec<f64>>) -> Payload {
        let len = buf.len();
        Payload { buf, start: 0, len }
    }

    /// A zero-copy view of `range` within this payload (indices relative to
    /// this view, not the underlying buffer).
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds this payload's bounds.
    pub fn subslice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "subslice {range:?} out of bounds for payload of {} elements",
            self.len
        );
        Payload {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// `true` if both payloads view the same underlying allocation — i.e. no
    /// copy separates them, regardless of the ranges they expose.
    pub fn shares_buffer(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for Payload {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl From<Arc<Vec<f64>>> for Payload {
    fn from(buf: Arc<Vec<f64>>) -> Payload {
        Payload::new(buf)
    }
}

impl From<Vec<f64>> for Payload {
    fn from(buf: Vec<f64>) -> Payload {
        Payload::new(Arc::new(buf))
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<f64>> for Payload {
    fn eq(&self, other: &Vec<f64>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<[f64]> for Payload {
    fn eq(&self, other: &[f64]) -> bool {
        **self == *other
    }
}

/// What one participant brings to a meet.
#[derive(Debug)]
pub(crate) struct Arrival {
    /// The arriving rank.
    pub rank: usize,
    /// Its clock: the arrival time at a collective, the sync-lane clock at
    /// entry to a chain.
    pub time: SimTime,
    /// Its meet index at entry, from which a chain's resolver draws the
    /// arrival delays of its steps (unused by collectives).
    pub meets: u64,
    /// Its payloads: at most one at a collective; at a chain, one per step
    /// with two or more members that it roots, in step order.
    pub payloads: Vec<Payload>,
}

/// When one meet completed and who held it up: what every participant
/// observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Meeting {
    /// The latest arrival time — when the collective completes.
    pub time: SimTime,
    /// The rank that arrived with the latest clock (smallest such rank on
    /// ties), i.e. the collective's straggler.
    pub straggler: usize,
    /// Seconds between the earliest and latest arrival. Identical for every
    /// participant, so straggler-tolerance decisions based on it are
    /// symmetric and cannot desynchronise the group.
    pub spread_seconds: f64,
}

impl Meeting {
    /// The meeting of `(rank, arrival time)` pairs, given in any order: the
    /// result depends on the set only, never on which thread arrived first.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is empty.
    pub(crate) fn of(arrivals: impl IntoIterator<Item = (usize, SimTime)>) -> Meeting {
        let mut arrivals = arrivals.into_iter();
        let (first_rank, first_time) = arrivals.next().expect("a meet has a participant");
        let (mut latest, mut straggler, mut earliest) = (first_time, first_rank, first_time);
        for (rank, time) in arrivals {
            if time > latest || (time == latest && rank < straggler) {
                latest = time;
                straggler = rank;
            }
            earliest = earliest.min(time);
        }
        Meeting { time: latest, straggler, spread_seconds: latest.since(earliest) }
    }
}

/// What every participant of an all-rank collective observes.
#[derive(Debug)]
pub(crate) struct MeetOutcome {
    /// When the collective completed and who held it up.
    pub meeting: Meeting,
    /// Every deposited payload, keyed by rank.
    pub payloads: HashMap<usize, Payload>,
}

/// Why a registry was poisoned: the stall that tripped the first abort.
///
/// Once any participant of any meet declares a stall, every rank that is
/// waiting at (or later arrives at) *any* meet observes this record instead
/// of blocking forever on peers that have already aborted. That is what
/// keeps subgroup stall failures symmetric: the members of the tripped
/// subgroup all see the same spread and abort together, and ranks outside
/// the subgroup are woken out of their own collectives with the same typed
/// information rather than deadlocking against the dead subgroup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MeetPoison {
    /// The straggler of the meet that tripped the stall check.
    pub straggler: usize,
    /// The arrival spread that exceeded the configured timeout.
    pub stalled_seconds: f64,
    /// The configured stall timeout.
    pub timeout_seconds: f64,
}

/// A meet's step count and step-list hash: zero for collectives, the
/// chain's for a chain. Participants that disagree on it fail at once.
pub(crate) type Signature = (usize, u64);

#[derive(Debug, Default)]
struct MeetState {
    expected: usize,
    signature: Signature,
    departed: usize,
    arrivals: Vec<Arrival>,
    /// Set by the last arrival; every participant departs with a clone.
    resolved: Option<Arc<dyn Any + Send + Sync>>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    states: HashMap<u64, MeetState>,
    poison: Option<MeetPoison>,
}

/// Registry of in-flight meets, shared by all ranks of a cluster.
#[derive(Debug, Default)]
pub(crate) struct MeetRegistry {
    inner: Mutex<RegistryInner>,
    cond: Condvar,
}

/// How long a rank may wait at a meet before the run is declared deadlocked.
const MEET_TIMEOUT: Duration = Duration::from_secs(60);

impl MeetRegistry {
    pub(crate) fn new() -> MeetRegistry {
        MeetRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("meet registry lock poisoned")
    }

    /// Drops every registered meet state and any poison. Only sound between
    /// runs: a rank blocked inside [`MeetRegistry::rendezvous`] would lose
    /// its rendezvous.
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        inner.states.clear();
        inner.poison = None;
    }

    /// Poisons the registry: every meet in flight (and every future arrival)
    /// aborts with `poison` instead of waiting. The first poison wins; later
    /// calls are no-ops so all ranks report the stall that tripped first.
    pub(crate) fn poison(&self, poison: MeetPoison) {
        let mut inner = self.lock();
        if inner.poison.is_none() {
            inner.poison = Some(poison);
        }
        self.cond.notify_all();
    }

    /// Clears any poison left by a previous run. Called at run start so an
    /// aborted run cannot leak its stall into the next one.
    pub(crate) fn clear_poison(&self) {
        self.lock().poison = None;
    }

    /// Arrives at all-rank collective `tag` with `expected` participants,
    /// at `time`, depositing `payload`. Blocks until every participant has
    /// arrived, then returns the shared outcome: the [`Meeting`] and every
    /// deposited payload keyed by rank.
    ///
    /// # Errors
    ///
    /// The registry's poison if a stall tripped somewhere in the cluster
    /// before this meet completed.
    ///
    /// # Panics
    ///
    /// As [`MeetRegistry::rendezvous`], and if two participants claim the
    /// same `rank` with a payload.
    pub(crate) fn meet(
        &self,
        tag: u64,
        expected: usize,
        rank: usize,
        time: SimTime,
        payload: Option<Payload>,
    ) -> Result<Arc<MeetOutcome>, MeetPoison> {
        let arrival = Arrival { rank, time, meets: 0, payloads: payload.into_iter().collect() };
        self.rendezvous(tag, expected, (0, 0), arrival, |arrivals| {
            let mut payloads = HashMap::with_capacity(arrivals.len());
            for a in arrivals {
                for p in &a.payloads {
                    let prev = payloads.insert(a.rank, p.clone());
                    assert!(prev.is_none(), "meet {tag:#x}: rank {} deposited twice", a.rank);
                }
            }
            MeetOutcome {
                meeting: Meeting::of(arrivals.iter().map(|a| (a.rank, a.time))),
                payloads,
            }
        })
    }

    /// The one rendezvous loop: arrives at meet `tag` of `expected`
    /// participants with `arrival`, and blocks until all have arrived. The
    /// last arrival calls `resolve` on every arrival (in arrival order) and
    /// every participant returns the one shared result.
    ///
    /// # Errors
    ///
    /// The registry's poison if it was poisoned (a stall tripped somewhere
    /// in the cluster) before this meet resolved: the meet is abandoned. A
    /// rank arriving at an already-poisoned registry aborts without
    /// registering, so it cannot corrupt the state of a meet its peers have
    /// abandoned.
    ///
    /// # Panics
    ///
    /// Panics if participants disagree on `expected` or `signature` (after
    /// waking the waiters, so the run fails at once), on more arrivals than
    /// `expected`, or if the meet does not resolve within the watchdog
    /// timeout (a deadlock, i.e. mismatched collective order across ranks).
    pub(crate) fn rendezvous<R: Any + Send + Sync>(
        &self,
        tag: u64,
        expected: usize,
        signature: Signature,
        arrival: Arrival,
        resolve: impl FnOnce(&[Arrival]) -> R,
    ) -> Result<Arc<R>, MeetPoison> {
        assert!(expected > 0, "meet must have at least one participant");
        let rank = arrival.rank;
        let mut inner = self.lock();
        if let Some(poison) = inner.poison {
            return Err(poison);
        }
        let state = inner.states.entry(tag).or_default();
        if state.expected == 0 {
            (state.expected, state.signature) = (expected, signature);
        }
        if (state.expected, state.signature) != (expected, signature) {
            // Waiters wake to the lock this panic poisons, so every rank of
            // the meet fails now rather than at the watchdog.
            self.cond.notify_all();
            let what = if state.expected != expected { "group size" } else { "the chain's steps" };
            panic!(
                "meet {tag:#x}: participants disagree on {what} (rank {rank}: {expected} \
                 participants, steps and hash {signature:?}; earlier arrivals: {}, {:?})",
                state.expected, state.signature
            );
        }
        assert!(
            state.arrivals.len() < expected,
            "meet {tag:#x}: more arrivals than expected (tag reuse before completion?)"
        );
        state.arrivals.push(arrival);
        if state.arrivals.len() == expected {
            state.resolved = Some(Arc::new(resolve(&state.arrivals)));
            self.cond.notify_all();
        }
        let mut timed_out = false;
        loop {
            let state = inner.states.get_mut(&tag).expect("meet state present until all depart");
            if let Some(resolved) = &state.resolved {
                let resolved = Arc::clone(resolved);
                state.departed += 1;
                if state.departed == state.expected {
                    inner.states.remove(&tag);
                }
                return Ok(resolved.downcast().expect("every participant resolves one kind"));
            }
            if let Some(poison) = inner.poison {
                // Abandon the unresolved meet: its remaining participants
                // will observe the same poison (waiters are woken by
                // `poison`, later arrivals abort on entry), so nobody is
                // left waiting for this rank. The leaked state is harmless —
                // tags are epoch-namespaced per run.
                return Err(poison);
            }
            if timed_out {
                let arrived = inner.states.get(&tag).map_or(0, |s| s.arrivals.len());
                panic!(
                    "meet {tag:#x} deadlocked: rank {rank} waited {MEET_TIMEOUT:?} \
                     ({arrived} of {expected} arrived) — collective order mismatch across ranks?"
                );
            }
            let (guard, wait) =
                self.cond.wait_timeout(inner, MEET_TIMEOUT).expect("meet registry lock poisoned");
            inner = guard;
            timed_out = wait.timed_out();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_meet(parties: usize, times: Vec<f64>) -> Vec<Arc<MeetOutcome>> {
        let reg = Arc::new(MeetRegistry::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(rank, &t)| {
                    let reg = Arc::clone(&reg);
                    s.spawn(move || {
                        let payload = Payload::from(vec![rank as f64]);
                        reg.meet(7, parties, rank, SimTime::from_seconds(t), Some(payload)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_observe_max_time_and_all_payloads() {
        let out = spawn_meet(3, vec![1.0, 5.0, 2.0]);
        for o in out {
            assert_eq!(o.meeting.time, SimTime::from_seconds(5.0));
            assert_eq!(o.payloads.len(), 3);
            assert_eq!(o.meeting.straggler, 1, "rank 1 arrived last");
            assert!((o.meeting.spread_seconds - 4.0).abs() < 1e-15);
        }
    }

    #[test]
    fn straggler_ties_break_to_the_smallest_rank() {
        let out = spawn_meet(3, vec![2.0, 2.0, 1.0]);
        for o in out {
            assert_eq!(o.meeting.straggler, 0);
            assert!((o.meeting.spread_seconds - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn single_participant_completes_immediately() {
        let reg = MeetRegistry::new();
        let o = reg.meet(1, 1, 0, SimTime::from_seconds(2.0), None).unwrap();
        assert_eq!(o.meeting.time, SimTime::from_seconds(2.0));
        assert!(o.payloads.is_empty());
        assert_eq!(o.meeting.straggler, 0);
        assert_eq!(o.meeting.spread_seconds, 0.0);
    }

    #[test]
    fn tag_is_reusable_after_completion() {
        let reg = MeetRegistry::new();
        for round in 0..3 {
            let o = reg.meet(9, 1, 0, SimTime::from_seconds(round as f64), None).unwrap();
            assert_eq!(o.meeting.time, SimTime::from_seconds(round as f64));
        }
    }

    #[test]
    fn distinct_tags_do_not_interfere() {
        let reg = Arc::new(MeetRegistry::new());
        let out = std::thread::scope(|s| {
            let r1 = Arc::clone(&reg);
            let time = |o: Result<Arc<MeetOutcome>, MeetPoison>| o.unwrap().meeting.time;
            let a = s.spawn(move || time(r1.meet(100, 1, 0, SimTime::from_seconds(1.0), None)));
            let r2 = Arc::clone(&reg);
            let b = s.spawn(move || time(r2.meet(200, 1, 0, SimTime::from_seconds(2.0), None)));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(out.0, SimTime::from_seconds(1.0));
        assert_eq!(out.1, SimTime::from_seconds(2.0));
    }

    #[test]
    fn payloads_are_shared_not_copied() {
        let reg = MeetRegistry::new();
        let payload = Payload::from(vec![1.0, 2.0]);
        let o = reg.meet(11, 1, 0, SimTime::ZERO, Some(payload.clone())).unwrap();
        assert!(o.payloads[&0].shares_buffer(&payload));
    }

    #[test]
    fn subslice_views_share_the_buffer() {
        let payload = Payload::from(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let mid = payload.subslice(1..4);
        assert_eq!(mid, vec![1.0, 2.0, 3.0]);
        assert!(mid.shares_buffer(&payload));
        let inner = mid.subslice(1..2);
        assert_eq!(inner, vec![2.0]);
        assert!(inner.shares_buffer(&payload));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subslice_past_view_end_panics() {
        let payload = Payload::from(vec![0.0; 4]);
        let _ = payload.subslice(2..4).subslice(0..3);
    }

    const POISON: MeetPoison =
        MeetPoison { straggler: 3, stalled_seconds: 9.0, timeout_seconds: 1.0 };

    #[test]
    fn poison_wakes_waiters_and_aborts_late_arrivals() {
        let reg = Arc::new(MeetRegistry::new());
        // Two of three participants arrive, then the registry is poisoned:
        // both waiters must wake with the poison instead of deadlocking.
        let outcomes = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|rank| {
                    let reg = Arc::clone(&reg);
                    s.spawn(move || reg.meet(5, 3, rank, SimTime::from_seconds(1.0), None))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(50));
            reg.poison(POISON);
            waiters.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for o in outcomes {
            assert_eq!(o.unwrap_err(), POISON);
        }
        // The third participant arrives after the fact and aborts on entry.
        let late = reg.meet(5, 3, 2, SimTime::from_seconds(2.0), None);
        assert_eq!(late.unwrap_err(), POISON);
    }

    #[test]
    fn first_poison_wins_and_clear_resets_it() {
        let reg = MeetRegistry::new();
        reg.poison(POISON);
        reg.poison(MeetPoison { straggler: 9, stalled_seconds: 1.0, timeout_seconds: 0.5 });
        let o = reg.meet(1, 2, 0, SimTime::ZERO, None);
        assert_eq!(o.unwrap_err(), POISON, "the first poison is the one reported");
        reg.clear_poison();
        assert!(reg.meet(2, 1, 0, SimTime::ZERO, None).is_ok());
        reg.poison(POISON);
        reg.clear();
        let o = reg.meet(3, 1, 0, SimTime::ZERO, None);
        assert!(o.is_ok(), "clear() drops poison along with states");
    }

    #[test]
    fn completed_meets_resolve_normally_even_if_poison_lands_later() {
        let reg = MeetRegistry::new();
        assert!(reg.meet(4, 1, 0, SimTime::from_seconds(1.0), None).is_ok());
        reg.poison(POISON);
        // A fresh meet on the poisoned registry aborts.
        assert!(reg.meet(6, 1, 0, SimTime::ZERO, None).is_err());
    }
}
