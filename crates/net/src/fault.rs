//! Deterministic fault injection for the simulated interconnect.
//!
//! The simulator is normally a *perfect* network: every collective and
//! one-sided operation succeeds, paying only its modeled LogGP cost. Real
//! fabrics are not perfect — one-sided RMA completions arrive late or fail
//! transiently, links degrade, and ranks straggle — and Two-Face's value
//! claim is precisely that its overlapped schedule stays efficient and
//! *correct* under such imperfection. A [`FaultPlan`] installs a seeded,
//! fully deterministic stream of such faults on a
//! [`Cluster`](crate::Cluster):
//!
//! * **transient one-sided failures** — each attempt of a
//!   [`win_get`](crate::RankCtx::win_get) /
//!   [`win_rget_rows`](crate::RankCtx::win_rget_rows) may fail, consuming the
//!   attempt's full modeled cost; the issuer retries under a bounded
//!   [`RetryPolicy`] with exponential backoff (charged to
//!   [`PhaseClass::Recovery`](crate::PhaseClass::Recovery)) and surfaces
//!   [`NetError::TransferTimeout`] when the budget is exhausted;
//! * **latency spikes** — a successful one-sided attempt may be degraded by
//!   extra seconds of link latency;
//! * **meet jitter** — every collective arrival may be pushed back by a
//!   bounded random delay, modeling delivery jitter;
//! * **slow / stalled ranks** — designated ranks arrive late at every
//!   collective; if the spread between the first and last (delayed) arrival
//!   at an *all-rank* meet exceeds [`FaultPlan::stall_timeout_seconds`],
//!   every participant observes [`NetError::RankStalled`] naming the
//!   straggler instead of waiting forever.
//!
//! **Determinism guarantee:** every fault decision is a pure function of
//! `(seed, rank, per-rank operation index)` via a splitmix64 finalizer — no
//! shared RNG state, no dependence on host scheduling. The same plan on the
//! same program always produces the same faults, the same recovery costs,
//! and the same timeline; a plan whose rates are all zero
//! ([`FaultPlan::quiescent`]) reproduces the fault-free timeline
//! bit-for-bit. The same pure functions are exposed
//! ([`FaultPlan::injected_get_failures`], [`FaultPlan::latency_spike`],
//! [`FaultPlan::meet_jitter`]) so tests can predict exactly how many faults
//! a run must have recorded in its trace.
//!
//! Because injection is deterministic, faults are first-class citizens of
//! the observability layer: each one is recorded as a zero-duration
//! [`OpKind::Fault`](crate::OpKind::Fault) instant (a marker on the
//! dedicated `Faults` track of the Perfetto export), each lost attempt as
//! an [`OpKind::Retry`](crate::OpKind::Retry) span, and each backoff as an
//! [`OpKind::Backoff`](crate::OpKind::Backoff) span in
//! [`PhaseClass::Recovery`](crate::PhaseClass::Recovery) — and the whole
//! annotated timeline replays bitwise for a given seed.

use crate::WindowId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Decision-stream discriminators, so the failure, spike, and jitter draws
/// of one operation are independent.
const STREAM_GET_FAILURE: u64 = 0x01;
const STREAM_SPIKE: u64 = 0x02;
const STREAM_SPIKE_MAGNITUDE: u64 = 0x03;
const STREAM_JITTER: u64 = 0x04;

/// splitmix64 finalizer: a high-quality 64-bit mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A rank that arrives late at every collective — a straggler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowRank {
    /// The straggling rank.
    pub rank: usize,
    /// Extra simulated seconds this rank loses before each collective
    /// arrival.
    pub extra_seconds_per_meet: f64,
}

/// Bounded-retry policy for one-sided operations under fault injection.
///
/// A transiently failing attempt costs its full modeled transfer time, then
/// the issuer backs off `backoff_base_seconds · backoff_factor^attempt`
/// (charged to [`PhaseClass::Recovery`](crate::PhaseClass::Recovery)) before
/// retrying. The operation fails with [`NetError::TransferTimeout`] once
/// `max_attempts` attempts failed or the accumulated simulated wait exceeds
/// `op_timeout_seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per one-sided operation (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub backoff_base_seconds: f64,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: f64,
    /// Per-operation timeout on the accumulated simulated wait (attempt
    /// costs plus backoffs); `None` bounds the operation by attempts only.
    pub op_timeout_seconds: Option<f64>,
}

impl Default for RetryPolicy {
    /// Five attempts with 1 µs base backoff doubling each retry, no
    /// wall-time cap.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            backoff_base_seconds: 1e-6,
            backoff_factor: 2.0,
            op_timeout_seconds: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged after failed attempt `attempt` (0-based):
    /// `base · factor^attempt`.
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        self.backoff_base_seconds * self.backoff_factor.powi(attempt as i32)
    }
}

/// A seeded, deterministic description of the faults one run experiences.
///
/// Install on a cluster with
/// [`Cluster::set_fault_plan`](crate::Cluster::set_fault_plan) or per run
/// via the runner's options. All rates are per-operation probabilities in
/// `[0, 1]`; all magnitudes are simulated seconds.
///
/// # Example
///
/// ```
/// use twoface_net::FaultPlan;
///
/// let plan = FaultPlan::seeded(7)
///     .with_get_failure_rate(0.2)
///     .with_latency_spikes(0.1, 5e-6)
///     .with_meet_jitter(1e-6);
/// assert!(!plan.is_faultless());
/// // Decisions are pure: the same (rank, op) always answers the same.
/// assert_eq!(
///     plan.injected_get_failures(3, 17),
///     plan.injected_get_failures(3, 17),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of every decision stream.
    pub seed: u64,
    /// Per-attempt probability that a one-sided get transiently fails.
    pub get_failure_rate: f64,
    /// Per-operation probability that a (successful) one-sided get is hit
    /// by a latency spike.
    pub latency_spike_rate: f64,
    /// Scale of injected latency spikes; an affected operation loses between
    /// 0.5× and 1.5× this many extra simulated seconds.
    pub latency_spike_seconds: f64,
    /// Upper bound of the uniform per-meet arrival jitter, in simulated
    /// seconds. Zero disables jitter.
    pub meet_jitter_seconds: f64,
    /// Ranks that straggle at every collective.
    pub slow_ranks: Vec<SlowRank>,
    /// Straggler tolerance of all-rank collectives: when the spread between
    /// the earliest and latest (delayed) arrival exceeds this, every
    /// participant gets [`NetError::RankStalled`] instead of absorbing the
    /// wait. `None` (the default) waits indefinitely, like plain MPI.
    pub stall_timeout_seconds: Option<f64>,
    /// Retry budget for one-sided operations.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; compose with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            get_failure_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_seconds: 0.0,
            meet_jitter_seconds: 0.0,
            slow_ranks: Vec::new(),
            stall_timeout_seconds: None,
            retry: RetryPolicy::default(),
        }
    }

    /// An explicitly fault-free plan: installing it must reproduce the
    /// fault-free timeline bit-for-bit.
    pub fn quiescent(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
    }

    /// The same plan (rates, slow ranks, retry policy) under a seed derived
    /// from `salt`.
    ///
    /// Fault decisions are pure functions of `(seed, rank, op index)`, so
    /// retrying a failed run under the *identical* plan replays the identical
    /// faults and fails the same way forever. A retry loop instead reseeds
    /// each attempt (`plan.reseeded(attempt)`): the fault *distribution* is
    /// preserved while the concrete transient failures land elsewhere —
    /// which is how real networks behave across retries.
    pub fn reseeded(&self, salt: u64) -> FaultPlan {
        FaultPlan { seed: mix(self.seed ^ mix(salt)), ..self.clone() }
    }

    /// A mildly imperfect network: occasional transient get failures,
    /// rare latency spikes, and sub-microsecond delivery jitter.
    pub fn light(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .with_get_failure_rate(0.05)
            .with_latency_spikes(0.02, 2e-6)
            .with_meet_jitter(5e-7)
    }

    /// A heavily degraded network: frequent transient failures and spikes
    /// plus microsecond-scale jitter. The retry budget is widened so runs
    /// still recover rather than time out.
    pub fn heavy(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .with_get_failure_rate(0.25)
            .with_latency_spikes(0.15, 1e-5)
            .with_meet_jitter(2e-6)
            .with_retry(RetryPolicy { max_attempts: 12, ..RetryPolicy::default() })
    }

    /// Sets the per-attempt transient failure probability of one-sided gets.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn with_get_failure_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "failure rate must be a probability, got {rate}");
        self.get_failure_rate = rate;
        self
    }

    /// Enables latency spikes at `rate` with magnitude scale `seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or `seconds` is negative.
    pub fn with_latency_spikes(mut self, rate: f64, seconds: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "spike rate must be a probability, got {rate}");
        assert!(seconds >= 0.0, "spike magnitude must be non-negative, got {seconds}");
        self.latency_spike_rate = rate;
        self.latency_spike_seconds = seconds;
        self
    }

    /// Enables per-meet arrival jitter up to `seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative.
    pub fn with_meet_jitter(mut self, seconds: f64) -> FaultPlan {
        assert!(seconds >= 0.0, "jitter bound must be non-negative, got {seconds}");
        self.meet_jitter_seconds = seconds;
        self
    }

    /// Marks `rank` as a straggler losing `extra_seconds_per_meet` before
    /// every collective arrival.
    ///
    /// # Panics
    ///
    /// Panics if `extra_seconds_per_meet` is negative.
    pub fn with_slow_rank(mut self, rank: usize, extra_seconds_per_meet: f64) -> FaultPlan {
        assert!(
            extra_seconds_per_meet >= 0.0,
            "stall must be non-negative, got {extra_seconds_per_meet}"
        );
        self.slow_ranks.push(SlowRank { rank, extra_seconds_per_meet });
        self
    }

    /// Sets the straggler tolerance of all-rank collectives.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive.
    pub fn with_stall_timeout(mut self, seconds: f64) -> FaultPlan {
        assert!(seconds > 0.0, "stall timeout must be positive, got {seconds}");
        self.stall_timeout_seconds = Some(seconds);
        self
    }

    /// Replaces the retry policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy allows zero attempts or has a negative backoff.
    pub fn with_retry(mut self, retry: RetryPolicy) -> FaultPlan {
        assert!(retry.max_attempts >= 1, "at least one attempt is required");
        assert!(retry.backoff_base_seconds >= 0.0, "backoff must be non-negative");
        assert!(retry.backoff_factor >= 1.0, "backoff must not shrink across retries");
        self.retry = retry;
        self
    }

    /// `true` when the plan can inject nothing: no failures, spikes, jitter,
    /// slow ranks, or stall timeout.
    pub fn is_faultless(&self) -> bool {
        self.get_failure_rate == 0.0
            && self.latency_spike_rate == 0.0
            && self.meet_jitter_seconds == 0.0
            && self.slow_ranks.iter().all(|s| s.extra_seconds_per_meet == 0.0)
            && self.stall_timeout_seconds.is_none()
    }

    /// A uniform draw in `[0, 1)` for decision stream `stream`, pure in all
    /// arguments.
    fn unit(&self, stream: u64, rank: usize, index: u64, salt: u64) -> f64 {
        let h = mix(self
            .seed
            .wrapping_add(mix(stream))
            .wrapping_add(mix(rank as u64 ^ 0xA5A5_A5A5_A5A5_A5A5))
            .wrapping_add(mix(index))
            .wrapping_add(mix(salt ^ 0x5A5A_5A5A_5A5A_5A5A)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether attempt `attempt` of one-sided operation `op` on `rank`
    /// transiently fails.
    pub fn get_attempt_fails(&self, rank: usize, op: u64, attempt: u32) -> bool {
        self.get_failure_rate > 0.0
            && self.unit(STREAM_GET_FAILURE, rank, op, attempt as u64) < self.get_failure_rate
    }

    /// Number of leading failed attempts injected into one-sided operation
    /// `op` on `rank`, capped at the retry budget. Equal to the number of
    /// `GetFailure` events the operation records; a result of
    /// `retry.max_attempts` means the operation times out.
    pub fn injected_get_failures(&self, rank: usize, op: u64) -> u32 {
        let mut n = 0;
        while n < self.retry.max_attempts && self.get_attempt_fails(rank, op, n) {
            n += 1;
        }
        n
    }

    /// The latency spike injected into one-sided operation `op` on `rank`,
    /// if any: between 0.5× and 1.5× [`FaultPlan::latency_spike_seconds`].
    pub fn latency_spike(&self, rank: usize, op: u64) -> Option<f64> {
        if self.latency_spike_rate > 0.0
            && self.unit(STREAM_SPIKE, rank, op, 0) < self.latency_spike_rate
        {
            Some(
                self.latency_spike_seconds * (0.5 + self.unit(STREAM_SPIKE_MAGNITUDE, rank, op, 0)),
            )
        } else {
            None
        }
    }

    /// The arrival jitter of `rank` at its `meet`-th collective, in
    /// `[0, meet_jitter_seconds)`.
    pub fn meet_jitter(&self, rank: usize, meet: u64) -> f64 {
        if self.meet_jitter_seconds == 0.0 {
            return 0.0;
        }
        self.meet_jitter_seconds * self.unit(STREAM_JITTER, rank, meet, 0)
    }

    /// The per-meet straggle of `rank` (zero unless listed in
    /// [`FaultPlan::slow_ranks`]).
    pub fn slow_extra(&self, rank: usize) -> f64 {
        self.slow_ranks.iter().filter(|s| s.rank == rank).map(|s| s.extra_seconds_per_meet).sum()
    }
}

/// A typed communication failure surfaced by fault injection — never a hang,
/// never silent corruption.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A one-sided operation exhausted its retry budget.
    TransferTimeout {
        /// The issuing rank.
        rank: usize,
        /// The target rank whose window was read.
        target: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Simulated seconds spent on failed attempts and backoff.
        waited_seconds: f64,
    },
    /// A one-sided indexed get described a row range whose element offset
    /// does not fit in `usize` — a corrupt or adversarial run list, surfaced
    /// as a typed error (in row and element units) instead of a panic or a
    /// silently clamped range.
    RangeOverflow {
        /// The issuing rank.
        rank: usize,
        /// The target rank whose window was addressed.
        target: usize,
        /// First row of the offending run.
        first_row: usize,
        /// Row count of the offending run.
        num_rows: usize,
        /// Dense elements per row.
        row_width: usize,
        /// Total elements the target window actually holds.
        window_elements: usize,
    },
    /// A one-sided get reached outside what its target exposes: this run
    /// has no such window (a handle kept from an earlier run whose windows
    /// were torn down), the target is not a rank or exposed no buffer in
    /// it, or the element range does not fit that buffer.
    OutOfWindow {
        /// The issuing rank.
        rank: usize,
        /// The window addressed.
        window: WindowId,
        /// The target rank.
        target: usize,
        /// The elements asked for: the bulk get's range, or the indexed
        /// get's offending run (its first run when no buffer is exposed).
        range: Range<usize>,
        /// Elements the target exposes in the window; `None` when it
        /// exposes no buffer there.
        exposed: Option<usize>,
    },
    /// An all-rank collective observed a straggler beyond the stall timeout.
    RankStalled {
        /// The observing rank.
        rank: usize,
        /// The rank that arrived last.
        straggler: usize,
        /// Spread between the earliest and latest arrival, in simulated
        /// seconds.
        stalled_seconds: f64,
        /// The stall tolerance that was exceeded, in simulated seconds.
        timeout_seconds: f64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::TransferTimeout { rank, target, attempts, waited_seconds } => write!(
                f,
                "one-sided get by rank {rank} from rank {target} timed out after \
                 {attempts} attempts ({waited_seconds:.3e} s simulated)"
            ),
            NetError::RangeOverflow {
                rank,
                target,
                first_row,
                num_rows,
                row_width,
                window_elements,
            } => write!(
                f,
                "indexed get by rank {rank} from rank {target}: run of {num_rows} rows from row \
                 {first_row} at {row_width} elements/row overflows the usize element offset \
                 (target window holds {window_elements} elements)"
            ),
            NetError::OutOfWindow { rank, window, target, range, exposed } => {
                write!(f, "one-sided get by rank {rank} from rank {target} in {window:?}: ")?;
                match exposed {
                    Some(len) => write!(f, "elements {range:?} exceed the {len} it exposes"),
                    None => write!(f, "it exposes no buffer there (elements {range:?} asked)"),
                }
            }
            NetError::RankStalled { rank, straggler, stalled_seconds, timeout_seconds } => write!(
                f,
                "rank {rank} observed straggler rank {straggler} lagging a collective by \
                 {stalled_seconds:.3e} s (stall timeout {timeout_seconds:.3e} s)"
            ),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions() {
        let plan = FaultPlan::heavy(42);
        for rank in 0..4 {
            for op in 0..64 {
                assert_eq!(
                    plan.injected_get_failures(rank, op),
                    plan.injected_get_failures(rank, op)
                );
                assert_eq!(plan.latency_spike(rank, op), plan.latency_spike(rank, op));
                assert_eq!(plan.meet_jitter(rank, op), plan.meet_jitter(rank, op));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_fault_streams() {
        let a = FaultPlan::heavy(1);
        let b = FaultPlan::heavy(2);
        let fails = |p: &FaultPlan| -> Vec<u32> {
            (0..256).map(|op| p.injected_get_failures(0, op)).collect()
        };
        assert_ne!(fails(&a), fails(&b));
    }

    #[test]
    fn failure_rate_zero_never_fails_and_one_always_fails() {
        let never = FaultPlan::seeded(3);
        let always = FaultPlan::seeded(3).with_get_failure_rate(1.0);
        for op in 0..32 {
            assert_eq!(never.injected_get_failures(0, op), 0);
            assert_eq!(always.injected_get_failures(0, op), always.retry.max_attempts);
        }
    }

    #[test]
    fn observed_failure_rate_tracks_the_configured_rate() {
        let plan = FaultPlan::seeded(9).with_get_failure_rate(0.3);
        let fails =
            (0..10_000).filter(|&op| plan.get_attempt_fails(1, op, 0)).count() as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&fails), "observed rate {fails}");
    }

    #[test]
    fn jitter_is_bounded() {
        let plan = FaultPlan::seeded(5).with_meet_jitter(3e-6);
        for meet in 0..1000 {
            let j = plan.meet_jitter(2, meet);
            assert!((0.0..3e-6).contains(&j), "jitter {j} out of bounds");
        }
    }

    #[test]
    fn spike_magnitude_is_half_to_three_halves() {
        let plan = FaultPlan::seeded(6).with_latency_spikes(1.0, 1e-5);
        for op in 0..1000 {
            let s = plan.latency_spike(0, op).expect("rate 1 always spikes");
            assert!((5e-6..1.5e-5).contains(&s), "spike {s} out of range");
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_seconds(0), 1e-6);
        assert_eq!(policy.backoff_seconds(3), 8e-6);
        assert!(policy.backoff_seconds(4) > policy.backoff_seconds(3));
    }

    #[test]
    fn quiescent_plans_are_faultless() {
        assert!(FaultPlan::quiescent(0).is_faultless());
        assert!(!FaultPlan::light(0).is_faultless());
        assert!(!FaultPlan::seeded(0).with_slow_rank(1, 0.5).is_faultless());
        // A slow rank with zero extra injects nothing.
        assert!(FaultPlan::seeded(0).with_slow_rank(1, 0.0).is_faultless());
    }

    #[test]
    fn slow_extra_sums_entries_for_the_same_rank() {
        let plan = FaultPlan::seeded(0).with_slow_rank(2, 0.5).with_slow_rank(2, 0.25);
        assert_eq!(plan.slow_extra(2), 0.75);
        assert_eq!(plan.slow_extra(0), 0.0);
    }

    #[test]
    fn errors_display_with_units() {
        let e = NetError::TransferTimeout { rank: 1, target: 3, attempts: 5, waited_seconds: 2e-4 };
        let s = e.to_string();
        assert!(s.contains("5 attempts") && s.contains("s simulated"), "{s}");
        let e = NetError::RankStalled {
            rank: 0,
            straggler: 2,
            stalled_seconds: 4.0,
            timeout_seconds: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("straggler rank 2") && s.contains("stall timeout"), "{s}");
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::heavy(11).with_slow_rank(1, 0.25).with_stall_timeout(2.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::seeded(0).with_get_failure_rate(1.5);
    }

    #[test]
    fn reseeded_preserves_policy_but_derives_the_seed() {
        let plan = FaultPlan::heavy(42).with_slow_rank(1, 0.5).with_stall_timeout(3.0);
        let again = plan.reseeded(7);
        assert_ne!(again.seed, plan.seed);
        assert_eq!(again.reseeded(0).seed, plan.reseeded(7).reseeded(0).seed, "deterministic");
        assert_ne!(plan.reseeded(1).seed, plan.reseeded(2).seed);
        assert_eq!(FaultPlan { seed: plan.seed, ..again.clone() }, plan, "only the seed changes");
    }
}
