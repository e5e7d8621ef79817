//! Figure 10: breakdown of the total execution times of DS4 and Two-Face at
//! K = 128.
//!
//! Two-Face's time splits into a synchronous bar (Sync Comp + Sync Comm) and
//! an asynchronous bar (Async Comp + Async Comm) that run in parallel; the
//! execution time is the taller of the two. DS4 only has the synchronous
//! components. Everything is normalized to DS4, as in the paper.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{
    banner, default_cost, write_json, CommCounters, SuiteCache, DEFAULT_K, DEFAULT_P,
};
use twoface_core::{run_algorithm, Algorithm, Breakdown, ExecutionReport, RunError, RunOptions};
use twoface_matrix::gen::SuiteMatrix;
use twoface_net::{seconds_by_class, Observability, PhaseClass};

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    ds4: Option<BreakdownOut>,
    two_face: BreakdownOut,
    /// Two-Face execution time normalized to DS4 (the paper's y-axis).
    two_face_normalized: Option<f64>,
    /// Per-nonzero throughput of Two-Face in simulated time: `nnz /
    /// two_face.seconds`. Host-independent (derived from the deterministic
    /// simulation), so the fleet gate guards it hard.
    two_face_sim_nnz_per_second: f64,
    /// Two-Face communication counters summed across ranks.
    two_face_comm: CommCounters,
    /// The same counters per rank, indexed by rank.
    two_face_rank_comm: Vec<CommCounters>,
}

#[derive(Serialize)]
struct BreakdownOut {
    seconds: f64,
    sync_comm: f64,
    sync_comp: f64,
    async_comm: f64,
    async_comp: f64,
    other: f64,
}

impl BreakdownOut {
    fn new(seconds: f64, b: &Breakdown) -> BreakdownOut {
        BreakdownOut {
            seconds,
            sync_comm: b.sync_comm,
            sync_comp: b.sync_comp,
            async_comm: b.async_comm,
            async_comp: b.async_comp,
            other: b.other,
        }
    }
}

/// Asserts the coverage invariant on every rank: the per-class durations of
/// its event stream sum to its aggregate trace's per-class seconds. The two
/// accounting systems round independently (the aggregate adds wait + cost in
/// one step, events in two), so exact equality is not guaranteed — but
/// disagreement beyond float rounding means an operation was recorded in
/// one system and not the other.
fn assert_consistent(matrix: &str, report: &ExecutionReport) {
    for (rank, (events, trace)) in report.rank_events.iter().zip(&report.rank_traces).enumerate() {
        let from_trace = trace.class_seconds();
        let tolerance = 1e-9 * from_trace.iter().sum::<f64>().max(1e-30);
        let from_events = seconds_by_class(events);
        for (class, (e, t)) in PhaseClass::ALL.iter().zip(from_events.iter().zip(&from_trace)) {
            assert!(
                (t - e).abs() <= tolerance,
                "{matrix} rank {rank}: event stream disagrees with aggregate trace on {}: {t} vs {e}",
                class.label()
            );
        }
    }
}

fn main() {
    banner(
        "Figure 10: execution time breakdown, DS4 vs Two-Face (K = 128)",
        format!(
            "p = {DEFAULT_P}; components from the critical (slowest) rank's trace;\n\
             Two-Face's sync and async bars overlap in time."
        )
        .as_str(),
    );
    let cost = default_cost();
    let options = RunOptions { compute_values: false, ..Default::default() };
    // Two-Face runs with full event tracing so every rank's per-operation
    // stream can be cross-checked against its aggregate trace.
    let traced = RunOptions { observability: Observability::full(), ..options.clone() };
    let mut cache = SuiteCache::new();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:>9} | {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>8}",
        "matrix",
        "DS4 (s)",
        "DS4 comm",
        "DS4 comp",
        "TF s.comm",
        "TF s.comp",
        "TF a.comm",
        "TF a.comp",
        "TF other",
        "TF/DS4"
    );
    for m in SuiteMatrix::ALL {
        let problem = cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid");
        let ds4 = match run_algorithm(
            Algorithm::DenseShifting { replication: 4 },
            &problem,
            &cost,
            &options,
        ) {
            Ok(r) => Some(r),
            Err(RunError::OutOfMemory { .. }) => None,
            Err(e) => panic!("unexpected error: {e}"),
        };
        let tf = run_algorithm(Algorithm::TwoFace, &problem, &cost, &traced)
            .expect("Two-Face fits in memory on the whole suite");
        assert_consistent(m.short_name(), &tf);
        let normalized = ds4.as_ref().map(|d| tf.seconds / d.seconds);
        let b = &tf.critical_breakdown;
        match &ds4 {
            Some(d) => println!(
                "{:<12} {:>9.5} | {:>9.5} {:>9.5} | {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5} | {:>8.2}",
                m.short_name(),
                d.seconds,
                d.critical_breakdown.sync_comm,
                d.critical_breakdown.sync_comp,
                b.sync_comm,
                b.sync_comp,
                b.async_comm,
                b.async_comp,
                b.other,
                normalized.unwrap_or(f64::NAN),
            ),
            None => println!(
                "{:<12} {:>9} | {:>9} {:>9} | {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5} | {:>8}",
                m.short_name(),
                "OOM",
                "-",
                "-",
                b.sync_comm,
                b.sync_comp,
                b.async_comm,
                b.async_comp,
                b.other,
                "-",
            ),
        }
        rows.push(Row {
            matrix: m.short_name(),
            ds4: ds4.as_ref().map(|d| BreakdownOut::new(d.seconds, &d.critical_breakdown)),
            two_face: BreakdownOut::new(tf.seconds, &tf.critical_breakdown),
            two_face_normalized: normalized,
            two_face_sim_nnz_per_second: problem.a.nnz() as f64 / tf.seconds,
            two_face_comm: CommCounters::from_traces(&tf.rank_traces),
            two_face_rank_comm: tf.rank_traces.iter().map(CommCounters::from_trace).collect(),
        });
    }
    println!(
        "\nReading guide: for DS4 the communication column dominates (distributed\n\
         SpMM is communication-bound); Two-Face's win comes from shrinking sync\n\
         comm; mawi's async-comp column shows the atomics-bound pathology; on\n\
         twitter/friendster the sync comm column exceeds DS4's.\n\
         Every Two-Face run above was cross-checked: each rank's per-operation\n\
         event stream sums to its aggregate trace, class by class."
    );
    write_json("fig10_breakdown", &rows);
}
