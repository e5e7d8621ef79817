//! Multicast chains: one rendezvous per chain, observably identical to its
//! steps run one by one.
//!
//! [`RankCtx::multicast_chain`](twoface_net::RankCtx::multicast_chain)
//! meets once and resolves every step from the step list all ranks share.
//! These tests pin what that must not change and what it must guarantee:
//!
//! * payloads, traces, clocks, events, metrics and the flight recorder
//!   match a loop of one-step chains bit for bit, under every fault setting
//!   and trace level;
//! * a stall inside a chain fails every rank with the same typed error, at
//!   the same place, on every run;
//! * malformed groups and disagreeing step lists fail at once instead of
//!   waiting out the meet watchdog.

#![forbid(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twoface_net::{
    Cluster, CostModel, FaultPlan, Lane, MulticastStep, NetError, Observability, Payload,
    PhaseClass, RankOutput, TraceLevel,
};

/// splitmix64: a seeded, std-only source of test shapes.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// An owned step: `(tag, root, dests)`.
type Step = (u64, usize, Vec<usize>);

fn borrow(steps: &[Step]) -> Vec<MulticastStep<'_>> {
    steps.iter().map(|(tag, root, dests)| MulticastStep { tag: *tag, root: *root, dests }).collect()
}

/// A random step list on `p` ranks mixing one-member, two-member and wide
/// groups with roots anywhere. Odd seeds leave some ranks out of every step
/// (their wide groups span the ranks left in); even seeds' wide groups span
/// every rank.
fn random_steps(p: usize, seed: u64) -> Vec<Step> {
    let mut rng = Rng(seed ^ ((p as u64) << 32));
    let idle: Vec<bool> = (0..p).map(|r| seed % 2 == 1 && r > 0 && rng.below(3) == 0).collect();
    let active: Vec<usize> = (0..p).filter(|&r| !idle[r]).collect();
    let steps = 6 + rng.below(10);
    (0..steps as u64)
        .map(|i| {
            let root = active[rng.below(active.len())];
            let others: Vec<usize> = active.iter().copied().filter(|&r| r != root).collect();
            let mut dests = match rng.below(4) {
                0 => Vec::new(),
                1 => others.get(rng.below(others.len().max(1))).into_iter().copied().collect(),
                2 => others,
                _ => others.into_iter().filter(|_| rng.below(2) == 0).collect(),
            };
            // Destination order is the caller's: shuffle it.
            for j in (1..dests.len()).rev() {
                dests.swap(j, rng.below(j + 1));
            }
            (3 * i + 1, root, dests)
        })
        .collect()
}

type Received = Result<Vec<(usize, Payload)>, NetError>;

/// Runs `steps` on a fresh `p`-rank cluster, as one chain or as a loop of
/// one-step chains, between skewed clocks and a closing barrier. Roots send
/// views of `bufs`.
fn run(
    p: usize,
    steps: &[Step],
    bufs: &[Arc<Vec<f64>>],
    plan: Option<FaultPlan>,
    level: TraceLevel,
    chained: bool,
) -> Vec<RankOutput<Received>> {
    let cluster = Cluster::new(p, CostModel::delta());
    cluster.set_fault_plan(plan);
    cluster.set_observability(Observability { level, ..Observability::off() });
    let steps = borrow(steps);
    cluster.run(|ctx| {
        let rank = ctx.rank();
        ctx.advance(Lane::Sync, 1e-6 * (rank % 3) as f64, PhaseClass::SyncComp);
        ctx.advance(Lane::Async, 2e-6 * (rank % 2) as f64, PhaseClass::AsyncComp);
        let payload = |i: usize| Payload::from(Arc::clone(&bufs[i]));
        let received = if chained {
            ctx.multicast_chain(&steps, payload)?
        } else {
            let mut received = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                let got = ctx.multicast_chain(std::slice::from_ref(step), |_| payload(i))?;
                received.extend(got.into_iter().map(|(_, buf)| (i, buf)));
            }
            received
        };
        ctx.barrier()?;
        Ok(received)
    })
}

/// Everything a rank records, with every float in a form that tells all
/// bit patterns apart.
fn recorded<T>(o: &RankOutput<T>) -> String {
    let clocks = o.lane_times.map(|t| t.seconds().to_bits());
    format!("{:?}", (&o.trace, clocks, &o.events, &o.metrics, &o.flight))
}

#[test]
fn a_chain_equals_its_steps_run_one_by_one() {
    for p in [1, 2, 5, 32] {
        for seed in 0..2 {
            let steps = random_steps(p, seed);
            let bufs: Vec<Arc<Vec<f64>>> = (0..steps.len())
                .map(|i| Arc::new((0..1 + i % 7).map(|j| (i * 10 + j) as f64 + 0.5).collect()))
                .collect();
            let plans = [None, Some(FaultPlan::light(seed)), Some(FaultPlan::heavy(seed + 100))];
            for plan in plans {
                for level in [TraceLevel::Off, TraceLevel::Comm, TraceLevel::Full] {
                    let case = format!("p {p}, seed {seed}, {plan:?}, {level:?}");
                    let chain = run(p, &steps, &bufs, plan.clone(), level, true);
                    let loop_ = run(p, &steps, &bufs, plan.clone(), level, false);
                    for (c, l) in chain.iter().zip(&loop_) {
                        let got = c.result.as_ref().expect("no stall timeout");
                        let want = l.result.as_ref().expect("no stall timeout");
                        let indices = |r: &[(usize, Payload)]| r.iter().map(|x| x.0).collect();
                        let (got_at, want_at): (Vec<usize>, Vec<usize>) =
                            (indices(got), indices(want));
                        assert_eq!(got_at, want_at, "{case}: rank {} steps", c.rank);
                        for ((i, a), (_, b)) in got.iter().zip(want) {
                            let bits = |x: &Payload| x.iter().map(|v| v.to_bits()).collect();
                            let (a_bits, b_bits): (Vec<u64>, Vec<u64>) = (bits(a), bits(b));
                            assert_eq!(a_bits, b_bits, "{case}: rank {} step {i}", c.rank);
                            let root = Payload::from(Arc::clone(&bufs[*i]));
                            assert!(a.shares_buffer(&root), "{case}: step {i} copied");
                        }
                        assert_eq!(recorded(c), recorded(l), "{case}: rank {}", c.rank);
                    }
                }
            }
        }
    }
}

/// A panic's message.
fn message(panic: Box<dyn Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(panic) => panic.downcast_ref::<&str>().map_or_else(String::new, |m| m.to_string()),
    }
}

#[test]
fn a_stall_inside_a_chain_fails_every_rank_the_same_way() {
    let started = Instant::now();
    let cluster = Cluster::new(5, CostModel::delta());
    let steps: Vec<Step> = vec![(0, 0, vec![1]), (1, 2, vec![3]), (2, 1, vec![2]), (3, 3, vec![0])];
    let steps = borrow(&steps);
    let chain_then_barrier = |ctx: &mut twoface_net::RankCtx| {
        ctx.multicast_chain(&steps, |i| Payload::from(vec![i as f64; 2]))?;
        ctx.barrier()
    };
    let mut first: Option<Vec<String>> = None;
    for _ in 0..20 {
        cluster.set_fault_plan(Some(
            FaultPlan::seeded(0).with_slow_rank(3, 5.0).with_stall_timeout(1.0),
        ));
        let out = cluster.run(chain_then_barrier);
        for o in &out {
            match o.result {
                Err(NetError::RankStalled {
                    rank,
                    straggler,
                    stalled_seconds,
                    timeout_seconds,
                }) => {
                    assert_eq!(rank, o.rank);
                    assert_eq!(straggler, 3, "rank {} blames the slow rank", o.rank);
                    assert_eq!((stalled_seconds, timeout_seconds), (5.0, 1.0));
                }
                ref other => panic!("rank {} got {other:?}, expected RankStalled", o.rank),
            }
        }
        // (arrival draws taken, multicasts completed): step 1 trips, so
        // ranks 2 and 3 fail there; ranks 0 and 1 complete step 0 and fail
        // at their next step; rank 4, in no step, fails at the barrier.
        let failed_at: Vec<(u64, u64)> =
            out.iter().map(|o| (o.trace.meets, o.trace.messages)).collect();
        assert_eq!(failed_at, [(2, 1), (2, 1), (1, 1), (1, 1), (1, 0)]);
        let run: Vec<String> =
            out.iter().map(|o| format!("{:?} {}", o.result, recorded(o))).collect();
        assert_eq!(first.get_or_insert_with(|| run.clone()), &run, "the outcome repeats");
    }
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
    cluster.set_fault_plan(None);
    let out = cluster.run(chain_then_barrier);
    assert!(out.iter().all(|o| o.result.is_ok()), "the next run starts clean");
}

#[test]
fn a_malformed_multicast_group_fails_at_once() {
    let started = Instant::now();
    for (group, fault) in
        [(vec![0, 0, 1], "member 0 is listed twice"), (vec![0, 1, 5], "member 5 is not a rank")]
    {
        let out = Cluster::new(2, CostModel::delta()).run(|ctx| {
            let data = (ctx.rank() == 0).then(|| Payload::from(vec![1.0]));
            let call = catch_unwind(AssertUnwindSafe(|| ctx.multicast(7, 0, &group, data)));
            message(call.expect_err("a malformed group panics"))
        });
        for o in out {
            assert!(o.result.contains("multicast 7") && o.result.contains(fault), "{}", o.result);
        }
    }
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
}

#[test]
fn participants_with_different_step_lists_fail_at_once() {
    let started = Instant::now();
    let out = Cluster::new(3, CostModel::delta()).run(|ctx| {
        // Same participants and first tag, but rank 2 has step 1 reversed.
        let second = if ctx.rank() == 2 { (2, [1]) } else { (1, [2]) };
        let steps = [
            MulticastStep { tag: 1, root: 0, dests: &[1] },
            MulticastStep { tag: 2, root: second.0, dests: &second.1 },
        ];
        let call = catch_unwind(AssertUnwindSafe(|| {
            ctx.multicast_chain(&steps, |_| Payload::from(vec![0.0]))
        }));
        call.err().map(message)
    });
    let messages: Vec<String> =
        out.into_iter().map(|o| o.result.expect("every rank fails")).collect();
    assert!(messages.iter().any(|m| m.contains("disagree on the chain's steps")), "{messages:?}");
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
}
