//! Event-stream ingestion and cross-checking for the observability layer.
//!
//! Two modes:
//!
//! * **No arguments** — run a chaos-seeded, fully traced Two-Face execution,
//!   write the event stream to `results/trace_summary.events.jsonl` and a
//!   Perfetto-loadable Chrome trace to `results/trace_summary.chrome.json`,
//!   then regenerate the Figure-10 breakdown and the §7.2 multicast profile
//!   *from the events alone* and cross-check both against the aggregate
//!   [`ExecutionReport`](twoface_core::ExecutionReport) counters. Any
//!   disagreement beyond float rounding aborts with a nonzero exit.
//! * **One path argument** — parse and validate an existing `.jsonl` event
//!   stream (the schema check CI runs), re-derive the same summaries from
//!   it, and exit nonzero if the stream is malformed or internally
//!   inconsistent.
//!
//! Either way the run ends with the top-N longest operations on the slowest
//! rank — the simulated critical path a Perfetto timeline would show.

use std::process::ExitCode;
use twoface_bench::{banner, results_dir};
use twoface_core::{run_algorithm, Algorithm, Breakdown, Problem, RunOptions};
use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
use twoface_net::{
    export, seconds_by_class, FaultPlan, Histogram, Observability, OpEvent, OpKind, PhaseClass,
    RankTrace,
};

/// Operations printed from the slowest rank's timeline.
const TOP_N: usize = 10;

/// Relative tolerance for event-vs-aggregate comparisons. The two systems
/// round independently (one addition vs two per operation), so exact
/// equality is not guaranteed; anything beyond this means a dropped or
/// double-counted operation.
const REL_TOLERANCE: f64 = 1e-9;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next() {
        Some(path) => validate_file(&path),
        None => run_traced_example(),
    }
}

/// Validation mode: parse a `.jsonl` stream and re-derive its summaries.
fn validate_file(path: &str) -> ExitCode {
    banner("trace_summary: validate an event stream", path);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match export::parse_events_jsonl(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: malformed event stream: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "parsed {} ranks, {} events",
        parsed.events_by_rank.len(),
        parsed.events_by_rank.iter().map(Vec::len).sum::<usize>()
    );
    if let Err(msg) = check_events_against_traces(&parsed.events_by_rank, &parsed.traces) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    println!("event stream is consistent with its per-rank summaries");
    print_summaries(&parsed.events_by_rank);
    ExitCode::SUCCESS
}

/// Example mode: a chaos-seeded traced run, exported and cross-checked.
fn run_traced_example() -> ExitCode {
    banner(
        "trace_summary: traced chaos run",
        "Two-Face, p = 8, K = 32, webcrawl 4096, heavy fault plan (seed 41)",
    );
    let a = webcrawl(&WebcrawlConfig { n: 4096, hosts: 64, per_row: 8, ..Default::default() }, 17);
    let problem = Problem::with_generated_b(std::sync::Arc::new(a), 32, 8, 64)
        .expect("example problem is valid");
    let options = RunOptions {
        compute_values: false,
        fault_plan: Some(FaultPlan::heavy(41)),
        observability: Observability::full(),
        ..Default::default()
    };
    let cost = twoface_bench::default_cost();
    let report = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)
        .expect("the heavy plan's retry budget absorbs its faults");

    // Export both formats.
    let dir = results_dir();
    let jsonl = export::events_jsonl(&report.rank_events, &report.rank_traces, false);
    let chrome = export::chrome_trace_json(&report.rank_events, false);
    let jsonl_path = dir.join("trace_summary.events.jsonl");
    let chrome_path = dir.join("trace_summary.chrome.json");
    std::fs::write(&jsonl_path, &jsonl).expect("can write results");
    std::fs::write(&chrome_path, &chrome).expect("can write results");
    println!("events  -> {}", jsonl_path.display());
    println!("perfetto-> {}", chrome_path.display());

    // The exported stream must round-trip.
    let parsed = match export::parse_events_jsonl(&jsonl) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: freshly exported stream failed to parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.events_by_rank != report.rank_events {
        eprintln!("error: JSONL round-trip changed the event stream");
        return ExitCode::FAILURE;
    }

    // Cross-check events against the independent aggregate accounting.
    if let Err(msg) = check_events_against_traces(&report.rank_events, &report.rank_traces) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    let event_breakdown = Breakdown::from_events(&report.rank_events[report.critical_rank]);
    let total_diff = (event_breakdown.total() - report.critical_breakdown.total()).abs();
    println!(
        "critical rank {}: event-derived breakdown matches the aggregate within {:.1e}s",
        report.critical_rank, total_diff
    );
    let event_recipients = multicast_recipients(&report.rank_events);
    match (event_recipients, report.mean_multicast_recipients) {
        (Some(e), Some(a)) if (e - a).abs() <= REL_TOLERANCE * a.max(1.0) => {
            println!("§7.2 profile from events: {e:.2} mean recipients (aggregate agrees)");
        }
        (e, a) => {
            eprintln!("error: multicast profile mismatch: events {e:?} vs aggregate {a:?}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{} faults injected; {:.2e}s of recovery backoff on the critical rank",
        report.faults_injected, report.critical_breakdown.recovery
    );

    print_summaries(&report.rank_events);
    ExitCode::SUCCESS
}

/// Checks the coverage invariant: per-class event durations must sum to the
/// aggregate trace's per-class seconds, for every rank.
fn check_events_against_traces(
    events_by_rank: &[Vec<OpEvent>],
    traces: &[RankTrace],
) -> Result<(), String> {
    for (rank, (events, trace)) in events_by_rank.iter().zip(traces).enumerate() {
        let from_events = seconds_by_class(events);
        let from_trace = trace.class_seconds();
        for (class, (e, t)) in PhaseClass::ALL.iter().zip(from_events.iter().zip(&from_trace)) {
            if (e - t).abs() > REL_TOLERANCE * t.abs().max(1e-30) {
                return Err(format!(
                    "rank {rank} {}: events account for {e}s but the trace recorded {t}s",
                    class.label()
                ));
            }
        }
    }
    Ok(())
}

/// Per-op-kind simulated-duration quantiles from the mergeable log₂-bucket
/// sketch — the same [`Histogram::quantile`] read the profile artifacts use.
fn print_duration_quantiles(events_by_rank: &[Vec<OpEvent>]) {
    let mut sketches: Vec<(OpKind, Histogram)> = Vec::new();
    for e in events_by_rank.iter().flatten() {
        let ns = (e.duration_seconds() * 1e9).round() as u64;
        match sketches.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, h)) => h.observe(ns),
            None => {
                let mut h = Histogram::default();
                h.observe(ns);
                sketches.push((e.kind, h));
            }
        }
    }
    sketches.sort_by_key(|(k, _)| k.index());
    println!("\n===== Simulated duration quantiles per op kind (ns) =====");
    println!("{:<14}{:>10}{:>14}{:>14}{:>14}", "op", "events", "p50", "p95", "p99");
    for (kind, h) in &sketches {
        let q = |at: f64| h.quantile(at).unwrap_or(0.0);
        println!(
            "{:<14}{:>10}{:>14.0}{:>14.0}{:>14.0}",
            kind.label(),
            h.count(),
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
}

/// Mean recipients across every root-side multicast event, if any.
fn multicast_recipients(events_by_rank: &[Vec<OpEvent>]) -> Option<f64> {
    let counts: Vec<usize> = events_by_rank
        .iter()
        .flatten()
        .filter(|e| e.kind == OpKind::Multicast && e.initiator)
        .map(|e| e.peers.len())
        .collect();
    if counts.is_empty() {
        None
    } else {
        Some(counts.iter().sum::<usize>() as f64 / counts.len() as f64)
    }
}

/// Prints the event-derived Figure-10 breakdown per rank plus the top-N
/// longest operations on the slowest rank.
fn print_summaries(events_by_rank: &[Vec<OpEvent>]) {
    println!("\n===== Figure-10 breakdown, derived from events (seconds) =====");
    let header: String = PhaseClass::ALL.iter().map(|c| format!("{:>12}", c.label())).collect();
    println!("{:<6}{header}{:>12}", "rank", "finish");
    let mut slowest = 0usize;
    let mut slowest_finish = f64::NEG_INFINITY;
    for (rank, events) in events_by_rank.iter().enumerate() {
        let by_class = seconds_by_class(events);
        let finish = events.iter().map(|e| e.end_seconds).fold(0.0, f64::max);
        if finish > slowest_finish {
            slowest_finish = finish;
            slowest = rank;
        }
        let cells: String = by_class.iter().map(|s| format!("{s:>12.6}")).collect();
        println!("{rank:<6}{cells}{finish:>12.6}");
    }

    print_duration_quantiles(events_by_rank);

    println!("\n===== Top {TOP_N} operations on the slowest rank ({slowest}) =====");
    println!(
        "{:>10} {:<12} {:<10} {:>12} {:>12} {:>10}",
        "seq", "op", "class", "start (s)", "dur (s)", "elements"
    );
    let mut ops: Vec<&OpEvent> = events_by_rank[slowest].iter().collect();
    ops.sort_by(|a, b| {
        b.duration_seconds()
            .partial_cmp(&a.duration_seconds())
            .expect("durations are finite")
            .then(a.seq.cmp(&b.seq))
    });
    for e in ops.iter().take(TOP_N) {
        println!(
            "{:>10} {:<12} {:<10} {:>12.6} {:>12.3e} {:>10}",
            e.seq,
            e.kind.label(),
            e.class.label(),
            e.start_seconds,
            e.duration_seconds(),
            e.elements
        );
    }
}
