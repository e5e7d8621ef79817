//! Timing and counting helpers shared by the workloads: every number here
//! is taken from outside the program, around calls to its public APIs.

use crate::stats::median;
use crate::sys::Usage;
use std::time::{Duration, Instant};
use twoface_core::ExecutionReport;
use twoface_matrix::{CooMatrix, DenseMatrix};
use twoface_net::{Cluster, CostModel, RankTrace};

/// Fewest timed ops a run reports, however long they take.
const MIN_OPS: usize = 5;

/// Whether the timed phase that began at `start` is over.
pub fn done(start: Option<Instant>, seconds: Duration, timed_ops: usize) -> bool {
    start.is_some_and(|start| start.elapsed() >= seconds && timed_ops >= MIN_OPS)
}

/// Runs `f`, returning its wall seconds, resource usage and result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, Usage, T) {
    let usage = Usage::now();
    let start = Instant::now();
    let result = f();
    let wall = start.elapsed().as_secs_f64();
    (wall, Usage::now().since(usage), result)
}

/// Whether two matrices hold the same bits.
pub fn bitwise_eq(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Sums of the exact per-rank counters of one execution.
pub struct NetCounts {
    pub meets: u64,
    pub messages: u64,
    pub one_sided_ops: u64,
}

impl NetCounts {
    pub fn of(report: &ExecutionReport) -> NetCounts {
        let sum = |f: fn(&RankTrace) -> u64| report.rank_traces.iter().map(f).sum();
        NetCounts {
            meets: sum(|t| t.meets),
            messages: sum(|t| t.messages),
            one_sided_ops: sum(|t| t.one_sided_ops),
        }
    }
}

/// Median wall seconds of a no-op `Cluster::run` at `p` ranks.
pub fn spawn_s(p: usize, cost: &CostModel) -> f64 {
    let cluster = Cluster::new(p, *cost);
    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let start = Instant::now();
            cluster.run(|ctx| ctx.rank());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples[5..])
}

/// Median wall seconds of `CooMatrix::fingerprint` on `a`.
pub fn fingerprint_s(a: &CooMatrix) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(a.fingerprint());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}
