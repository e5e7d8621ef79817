//! Flight-recorder overhead on the tracing-disabled hot path.
//!
//! The always-on flight recorder (a bounded ring of each rank's last
//! [`FLIGHT_CAPACITY_DEFAULT`] non-kernel events — meet waits, transfers,
//! retries, backoffs and faults — that the rank's one event recorder fills
//! with one fixed-size store per event even at `TraceLevel::Off`, so
//! faulted runs are post-mortem debuggable) must be effectively free on the
//! default path users hit. This binary runs the same Two-Face execution
//! with the ring at its default capacity and with the ring disabled
//! (`set_flight_capacity(0)`), in strict alternation on a caller-owned
//! cluster, and reports:
//!
//! * **gated** — the simulated seconds and communication counters of both
//!   configurations, asserted bit-identical (the ring never touches
//!   simulated clocks);
//! * **informational** — interleaved wall-clock medians per side and their
//!   ratio. Acceptance: the ratio stays within 2% of 1.0 on a quiet host
//!   (this container is time-shared; see `host_note`).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use twoface_bench::{banner, default_cost, write_json};
use twoface_core::{run_algorithm_on, Algorithm, Problem, RunOptions};
use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
use twoface_net::{Cluster, FLIGHT_CAPACITY_DEFAULT};

/// Timed (capacity-on, capacity-off) pairs, interleaved.
const PAIRS: usize = 9;

/// Untimed warmup runs per side before sampling.
const WARMUP: usize = 2;

fn main() -> ExitCode {
    banner(
        "observability: flight-recorder overhead, tracing disabled",
        "Two-Face, p = 8, K = 32, webcrawl 2048; ring at default capacity vs disabled",
    );
    let a = webcrawl(&WebcrawlConfig { n: 2048, hosts: 32, per_row: 8, ..Default::default() }, 13);
    let problem =
        Problem::with_generated_b(Arc::new(a), 32, 8, 64).expect("example problem is valid");
    let options = RunOptions::default();
    let cost = default_cost();
    let cluster = Cluster::new(8, options.config.effective_cost(&cost));

    let run = |capacity: usize| {
        cluster.set_flight_capacity(capacity);
        let started = Instant::now();
        let report = run_algorithm_on(&cluster, Algorithm::TwoFace, &problem, &cost, &options)
            .expect("no fault plan installed");
        (started.elapsed().as_nanos() as u64, report)
    };

    for _ in 0..WARMUP {
        run(FLIGHT_CAPACITY_DEFAULT);
        run(0);
    }

    let mut on_ns = Vec::new();
    let mut off_ns = Vec::new();
    let mut seconds_on = None;
    let mut seconds_off = None;
    let mut counters = None;
    for _ in 0..PAIRS {
        let (wall, report) = run(FLIGHT_CAPACITY_DEFAULT);
        on_ns.push(wall);
        assert_eq!(*seconds_on.get_or_insert(report.seconds), report.seconds, "determinism");
        counters
            .get_or_insert_with(|| twoface_bench::CommCounters::from_traces(&report.rank_traces));
        let (wall, report) = run(0);
        off_ns.push(wall);
        assert_eq!(*seconds_off.get_or_insert(report.seconds), report.seconds, "determinism");
    }
    let (seconds_on, seconds_off) = (seconds_on.unwrap(), seconds_off.unwrap());
    if seconds_on != seconds_off {
        eprintln!("error: flight recorder perturbed simulated time: {seconds_on} vs {seconds_off}");
        return ExitCode::FAILURE;
    }
    let counters = counters.unwrap();

    let on_median = median_ns(&mut on_ns);
    let off_median = median_ns(&mut off_ns);
    let ratio = on_median as f64 / off_median as f64;
    println!(
        "ring capacity {FLIGHT_CAPACITY_DEFAULT}: median {on_median} ns over {PAIRS} runs\n\
         ring disabled:    median {off_median} ns over {PAIRS} runs\n\
         on/off ratio: {ratio:.4} (acceptance: <= 1.02 on a quiet host)\n\
         simulated seconds (both sides, bit-identical): {seconds_on:.6}"
    );

    let payload = Payload {
        description: "wall-clock cost of the always-on flight recorder (bounded per-rank ring \
                      of the last comm ops) relative to a fully disabled ring, with tracing \
                      off either way"
            .into(),
        workload: "webcrawl n=2048, hosts=32, per_row=8, seed 13; Two-Face, K=32, 8 ranks, \
                   stripe width 64, full compute, interleaved pairs on one warm cluster"
            .into(),
        flight_capacity: FLIGHT_CAPACITY_DEFAULT as u64,
        simulated_seconds: seconds_on,
        counters,
        samples_per_side: PAIRS as u64,
        flight_on_median_wall_ns: on_median,
        flight_off_median_wall_ns: off_median,
        flight_on_over_off_median: ratio,
        acceptance: "disabled-path overhead <= 2%: the ring records one fixed-size entry per \
                     comm op with no allocation beyond warmup, and must never move simulated \
                     seconds (asserted bit-identical above)"
            .into(),
    };
    write_json("observability", &payload);
    ExitCode::SUCCESS
}

fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The `results/observability.json` payload. Wall medians and the ratio are
/// informational by field-name policy (`median`/`wall`); the simulated
/// seconds, counters, and capacity are deterministic and baseline-gated.
#[derive(serde::Serialize)]
struct Payload {
    description: String,
    workload: String,
    flight_capacity: u64,
    simulated_seconds: f64,
    counters: twoface_bench::CommCounters,
    samples_per_side: u64,
    flight_on_median_wall_ns: u64,
    flight_off_median_wall_ns: u64,
    flight_on_over_off_median: f64,
    acceptance: String,
}
