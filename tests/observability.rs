//! Integration suite for the observability layer: the per-operation event
//! recorder, the exporters, the metrics registry, and the `TWOFACE_TRACE`
//! environment knob.
//!
//! The load-bearing properties:
//!
//! * **Off by default, free when off** — a default run records nothing.
//! * **Coverage** — at `TraceLevel::Full` with no sampling, the event stream
//!   is a second, independent accounting of the run: each rank's per-class
//!   durations sum to its aggregate [`RankTrace`] seconds, the classes the
//!   report's Figure-10 breakdowns are read from.
//! * **Determinism** — chaos-seeded traced runs produce bitwise-identical
//!   event streams across replays *and* real-worker counts; host wall-time
//!   is segregated so it can never leak into comparisons.
//!
//! Every test here serializes on one lock: `TWOFACE_TRACE` is process-global
//! state read by every `run_algorithm` call, so a concurrently running env
//! test would promote its siblings' runs to full tracing.

use serde::Value;
use std::sync::{Arc, Mutex, MutexGuard};
use twoface_core::{run_algorithm, Algorithm, ExecutionReport, Problem, RunOptions};
use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
use twoface_net::{
    export, seconds_by_class, CostModel, FaultPlan, Observability, OpKind, PhaseClass,
    ProfileSummary, RetryPolicy, FLIGHT_CAPACITY_DEFAULT,
};

/// Serializes the whole file: see the module docs.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Relative tolerance for event-vs-aggregate comparisons: the two systems
/// round independently (one addition vs two per operation).
fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1e-30);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

/// The chaos fixture: dense stripes (multicasts) plus sparse scatter
/// (one-sided gets), so both lanes produce events.
fn fixture() -> Problem {
    let a = webcrawl(
        &WebcrawlConfig { n: 512, hosts: 16, per_row: 6, intra_host: 0.7, ..Default::default() },
        31,
    );
    Problem::with_generated_b(Arc::new(a), 8, 4, 32).expect("fixture is valid")
}

fn traced(observability: Observability) -> RunOptions {
    RunOptions { compute_values: false, observability, ..Default::default() }
}

fn run(problem: &Problem, options: &RunOptions) -> ExecutionReport {
    run_algorithm(Algorithm::TwoFace, problem, &CostModel::delta_scaled(), options)
        .expect("fixture runs recover")
}

/// A traced chaos run whose heavy plan actually forced at least one retry
/// (small fixtures can draw zero failures for some seeds, so scan).
fn chaotic_run(problem: &Problem, workers: Option<usize>) -> (RunOptions, ExecutionReport) {
    for seed in 0xC4A05u64.. {
        let options = RunOptions {
            fault_plan: Some(FaultPlan::heavy(seed)),
            workers,
            ..traced(Observability::full())
        };
        let report = run(problem, &options);
        if report.rank_traces.iter().map(|t| t.retries).sum::<u64>() > 0 {
            return (options, report);
        }
        assert!(seed < 0xC4A05 + 64, "no heavy seed in a 64-seed scan injected a retry");
    }
    unreachable!("the scan either returns or panics")
}

#[test]
fn tracing_is_off_by_default() {
    let _guard = lock();
    let problem = fixture();
    let report = run(&problem, &RunOptions { compute_values: false, ..Default::default() });
    assert!(report.rank_events.iter().all(Vec::is_empty), "default runs must record no events");
    assert!(report.metrics.is_empty(), "default runs must record no metrics");
    assert!(!RunOptions::default().observability.enabled());
}

/// The coverage invariant: at `Full` with no sampling, the event stream
/// independently reproduces the aggregate accounting — per-class seconds,
/// per-rank finish times, and the critical rank's Figure-10 total.
#[test]
fn full_trace_covers_the_aggregate_accounting() {
    let _guard = lock();
    let problem = fixture();
    let report = run(&problem, &traced(Observability::full()));
    assert_eq!(report.rank_events.len(), report.p);
    for (rank, (events, trace)) in report.rank_events.iter().zip(&report.rank_traces).enumerate() {
        assert!(!events.is_empty(), "rank {rank} recorded nothing at Full");
        let from_events = seconds_by_class(events);
        for (class, (e, t)) in
            PhaseClass::ALL.iter().zip(from_events.iter().zip(&trace.class_seconds()))
        {
            assert_close(*e, *t, &format!("rank {rank} {}", class.label()));
        }
        let finish = events.iter().map(|e| e.end_seconds).fold(0.0, f64::max);
        assert_close(finish, report.rank_seconds[rank], &format!("rank {rank} finish"));
        // Without `wall_time` no event may carry host time.
        assert!(events.iter().all(|e| e.wall_nanos.is_none()));
    }
    let critical = seconds_by_class(&report.rank_events[report.critical_rank]);
    assert_close(critical.iter().sum(), report.critical_breakdown.total(), "critical total");
    assert!(
        report.rank_events.iter().flatten().any(|e| e.kind == OpKind::Kernel),
        "Full level must include local kernel spans"
    );
}

/// `Comm` level drops kernel spans (so the stream undercounts compute) but
/// still fills the metrics registry with the diagnostic distributions.
#[test]
fn comm_level_skips_kernels_but_keeps_metrics() {
    let _guard = lock();
    let problem = fixture();
    let report = run(&problem, &traced(Observability::comm()));
    assert!(report.rank_events.iter().flatten().all(|e| e.kind != OpKind::Kernel));

    let m = &report.metrics;
    assert!(m.counter("ops.multicast") > 0, "fixture schedules multicasts");
    assert!(m.counter("ops.rget_rows") > 0, "fixture issues fine-grained gets");
    let one_sided = m.counter("ops.get") + m.counter("ops.rget_rows");
    let sizes = m.histogram("one_sided_get_elements").expect("get sizes recorded");
    assert_eq!(sizes.count(), one_sided, "one size sample per one-sided op");
    assert!(sizes.sum() > 0);
    let retries = m.histogram("retries_per_op").expect("retry counts recorded");
    assert_eq!(retries.count(), one_sided, "one retry sample per one-sided op");
    assert_eq!(retries.max(), Some(0), "no faults were installed");
    // Fan-out is sampled root-side only: one sample per distinct multicast,
    // while `ops.multicast` counts every participant (root and receivers).
    let fanout = m.histogram("multicast_fanout").expect("§7.2 fan-out recorded");
    let roots = report
        .rank_events
        .iter()
        .flatten()
        .filter(|e| e.kind == OpKind::Multicast && e.initiator)
        .count() as u64;
    assert_eq!(fanout.count(), roots, "one fan-out sample per root-side multicast");
    assert!(fanout.count() < m.counter("ops.multicast"), "receivers don't sample fan-out");
    assert_close(
        fanout.mean().expect("fan-out has samples"),
        report.mean_multicast_recipients.expect("fixture multicasts"),
        "fan-out histogram mean vs §7.2 aggregate",
    );
    let runs = m.histogram("rget_runs_per_op").expect("coalescing recorded");
    assert_eq!(runs.count(), m.counter("ops.rget_rows"));
    // The algorithm body's own metric: per-run coalesced lengths.
    let run_rows = m.histogram("coalesced_run_rows").expect("run lengths recorded");
    assert_eq!(run_rows.count(), runs.sum(), "one length sample per coalesced run");
    assert!(m.histogram("meet_arrival_spread_ns").is_some());
}

/// The determinism contract under chaos: the same heavy fault plan yields
/// byte-identical event streams and metrics across replays and across real
/// worker counts, with recovery visible in the events.
#[test]
fn chaos_streams_are_bitwise_identical_across_replays_and_workers() {
    let _guard = lock();
    let problem = fixture();
    let (options, first) = chaotic_run(&problem, Some(2));
    let replay = run(&problem, &options);
    let narrow = run(&problem, &RunOptions { workers: Some(1), ..options.clone() });

    assert_eq!(first.rank_events, replay.rank_events, "replay changed the event stream");
    assert_eq!(first.rank_events, narrow.rank_events, "worker count changed the event stream");
    assert_eq!(first.metrics, replay.metrics);
    assert_eq!(first.metrics, narrow.metrics);
    let jsonl = export::events_jsonl(&first.rank_events, &first.rank_traces, false);
    assert_eq!(jsonl, export::events_jsonl(&replay.rank_events, &replay.rank_traces, false));
    assert_eq!(jsonl, export::events_jsonl(&narrow.rank_events, &narrow.rank_traces, false));

    assert!(first.faults_injected > 0);
    let events: Vec<_> = first.rank_events.iter().flatten().collect();
    assert!(events.iter().any(|e| e.kind == OpKind::Fault), "faults must appear as events");
    assert!(
        events.iter().any(|e| e.class == PhaseClass::Recovery),
        "retry backoff must appear as Recovery-class events"
    );
    assert!(first.metrics.histogram("retries_per_op").expect("recorded").max() > Some(0));
}

/// The Chrome export is valid JSON with one process per rank, named
/// per-class tracks, and fault instants on the dedicated track 0.
#[test]
fn chrome_export_is_valid_json_with_fault_instants() {
    let _guard = lock();
    let problem = fixture();
    let (_, report) = chaotic_run(&problem, None);
    let text = export::chrome_trace_json(&report.rank_events, false);
    let root: Value = serde_json::from_str(&text).expect("export is valid JSON");
    let events = root.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");

    // One process_name plus one thread_name per track (Faults + 6 classes).
    let metas = events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"));
    assert_eq!(metas.count(), report.p * (2 + PhaseClass::ALL.len()));
    let spans: Vec<&Value> =
        events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
    assert!(!spans.is_empty());
    for span in &spans {
        for key in ["pid", "tid", "name", "cat", "ts", "dur", "args"] {
            assert!(span.get(key).is_some(), "span missing `{key}`");
        }
    }
    let fault_instants: Vec<&Value> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("i")
                && e.get("tid").and_then(Value::as_u64) == Some(0)
        })
        .collect();
    assert_eq!(
        fault_instants.len() as u64,
        report.faults_injected,
        "every injected fault must appear as an instant on the Faults track"
    );
}

/// Wall-time is opt-in, segregated, and stripped by the exporters: two runs
/// whose kernels took different host time still export identical streams.
#[test]
fn wall_time_is_segregated_from_deterministic_exports() {
    let _guard = lock();
    let problem = fixture();
    let options = RunOptions {
        observability: Observability { wall_time: true, ..Observability::full() },
        ..Default::default() // compute_values on: kernels really run
    };
    let a = run(&problem, &options);
    let b = run(&problem, &options);
    let timed =
        |r: &ExecutionReport| r.rank_events.iter().flatten().any(|e| e.wall_nanos.is_some());
    assert!(timed(&a) && timed(&b), "wall_time must stamp real kernel spans");
    // A one-shot rank sums its sync nonzeros while it walks its slice of A;
    // its sync span carries that host time.
    let sync_spans = a.rank_events.iter().flatten().filter(|e| e.class == PhaseClass::SyncComp);
    assert!(sync_spans.clone().count() > 0);
    assert!(sync_spans.into_iter().all(|e| e.wall_nanos.is_some()), "every sync span is timed");
    // Host timings differ run to run, but the deterministic export does not.
    let strip = |r: &ExecutionReport| export::events_jsonl(&r.rank_events, &r.rank_traces, false);
    assert_eq!(strip(&a), strip(&b));
    let parsed = export::parse_events_jsonl(&strip(&a)).expect("round-trips");
    assert!(parsed.events_by_rank.iter().flatten().all(|e| e.wall_nanos.is_none()));
    // With include_wall the stamps survive the round-trip.
    let kept =
        export::parse_events_jsonl(&export::events_jsonl(&a.rank_events, &a.rank_traces, true))
            .expect("round-trips");
    assert_eq!(kept.events_by_rank, a.rank_events);
    assert_eq!(kept.traces, a.rank_traces);
}

/// Sampling keeps every `sample_every`-th candidate with its original `seq`,
/// so a sampled stream is exactly the unsampled stream filtered.
#[test]
fn sampling_thins_the_stream_preserving_sequence_numbers() {
    let _guard = lock();
    let problem = fixture();
    let full = run(&problem, &traced(Observability::full()));
    let sampled =
        run(&problem, &traced(Observability { sample_every: 4, ..Observability::full() }));
    let mut kept_fewer = false;
    for (rank, (full_events, sampled_events)) in
        full.rank_events.iter().zip(&sampled.rank_events).enumerate()
    {
        let expected: Vec<_> = full_events.iter().filter(|e| e.seq % 4 == 0).cloned().collect();
        assert_eq!(
            sampled_events, &expected,
            "rank {rank}: sampled stream must be the filtered full stream"
        );
        kept_fewer |= sampled_events.len() < full_events.len();
    }
    assert!(kept_fewer, "sampling at 4 must drop events somewhere");
}

/// Removes the observability env knobs even if the test panics, so a
/// failure here cannot corrupt the other tests' runs.
struct EnvGuard;
impl Drop for EnvGuard {
    fn drop(&mut self) {
        std::env::remove_var(twoface_core::TRACE_ENV);
        std::env::remove_var(twoface_core::PROFILE_ENV);
    }
}

/// `TWOFACE_TRACE=<path>` promotes an untraced run to `Full` and writes the
/// stream after the run; later runs in the same process get unique suffixes
/// instead of clobbering the first file.
#[test]
fn trace_env_promotes_recording_and_writes_unique_files() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("twoface_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    let path = dir.join("trace.jsonl");
    std::env::set_var(twoface_core::TRACE_ENV, &path);
    let _env = EnvGuard;

    let problem = fixture();
    let options = RunOptions { compute_values: false, ..Default::default() };
    let report = run(&problem, &options);
    assert!(
        report.rank_events.iter().all(|e| !e.is_empty()),
        "the env knob must promote recording to Full"
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let parsed = export::parse_events_jsonl(&text).expect("written trace parses");
    assert_eq!(parsed.events_by_rank, report.rank_events);
    assert_eq!(parsed.traces, report.rank_traces);

    // A second traced run must not clobber the first destination.
    run(&problem, &options);
    let second = dir.join("trace.1.jsonl");
    assert!(second.exists(), "second run should write {}", second.display());
    export::parse_events_jsonl(&std::fs::read_to_string(&second).expect("readable"))
        .expect("suffixed trace parses");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `TWOFACE_PROFILE=<path>` promotes an untraced run to `Comm` and leaves a
/// `ProfileSummary` artifact behind; a second run in the same process folds
/// into the *same* artifact (one merged profile per destination, so
/// multi-run bench binaries produce one blessable sidecar).
#[test]
fn profile_env_writes_a_merged_blessable_artifact() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("twoface_prof_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    let path = dir.join("run.profile.json");
    std::env::set_var(twoface_core::PROFILE_ENV, &path);
    let _env = EnvGuard;

    let problem = fixture();
    let options = RunOptions { compute_values: false, ..Default::default() };
    let report = run(&problem, &options);
    assert!(
        report.rank_events.iter().all(|e| !e.is_empty()),
        "the profile knob must promote recording"
    );
    let text = std::fs::read_to_string(&path).expect("profile artifact written");
    let one = ProfileSummary::from_json(&text).expect("artifact validates");
    assert_eq!((one.runs, one.ranks), (1, report.p));
    assert!(!one.cells.is_empty());
    assert_close(
        one.total_seconds(),
        ProfileSummary::from_events(&report.rank_events).total_seconds(),
        "artifact matches the run's own events",
    );

    // Second run: same destination, merged in place — not a suffixed file.
    run(&problem, &options);
    let merged = ProfileSummary::from_json(&std::fs::read_to_string(&path).expect("readable"))
        .expect("merged artifact validates");
    assert_eq!(merged.runs, 2);
    for cell in &one.cells {
        let m = merged.cell(cell.class, cell.kind).expect("cell survives the merge");
        assert_eq!(m.events, cell.events * 2, "{}: deterministic runs double", cell.label());
    }
    assert_close(merged.total_seconds(), 2.0 * one.total_seconds(), "seconds accumulate");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (b): a corrupted trace file produces a typed [`export::ParseError`]
/// naming the failing line — never a panic.
#[test]
fn corrupted_trace_file_is_a_typed_error_naming_the_line() {
    let _guard = lock();
    let problem = fixture();
    let report = run(&problem, &traced(Observability::full()));
    let jsonl = export::events_jsonl(&report.rank_events, &report.rank_traces, false);

    // Truncate the third line mid-record, as a half-written file would.
    let mut lines: Vec<String> = jsonl.lines().map(str::to_string).collect();
    assert!(lines.len() > 3, "fixture stream is long enough to corrupt");
    let half = lines[2].len() / 2;
    lines[2].truncate(half);
    let corrupted = lines.join("\n");
    let dir = std::env::temp_dir().join(format!("twoface_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    let file = dir.join("corrupted.jsonl");
    std::fs::write(&file, &corrupted).expect("can write fixture");

    let err = export::parse_events_jsonl(&std::fs::read_to_string(&file).expect("readable"))
        .expect_err("a truncated record must not parse");
    assert_eq!(err.line, Some(3), "the error names the corrupted line: {err}");
    assert!(!err.message.is_empty());
    assert!(err.to_string().contains("line 3"), "Display carries the line: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The always-on flight recorder: with tracing fully off, a run that dies
/// of an exhausted retry budget still carries the last comm ops in its
/// error context, bounded by the default ring capacity.
#[test]
fn run_errors_carry_the_flight_tail_with_tracing_off() {
    let _guard = lock();
    let problem = fixture();
    let plan = FaultPlan::seeded(0xF11)
        .with_get_failure_rate(1.0)
        .with_retry(RetryPolicy { max_attempts: 3, ..Default::default() });
    let options =
        RunOptions { compute_values: false, fault_plan: Some(plan), ..Default::default() };
    let err = run_algorithm(Algorithm::AsyncFine, &problem, &CostModel::delta_scaled(), &options)
        .expect_err("every get fails forever");
    let flight = err.flight();
    assert!(!flight.is_empty(), "the ring records even at TraceLevel::Off");
    assert!(flight.len() <= FLIGHT_CAPACITY_DEFAULT);
    assert!(
        flight.iter().any(|e| matches!(e.kind, OpKind::Get | OpKind::Retry)),
        "the tail shows the failing one-sided traffic: {flight:?}"
    );
    assert!(
        flight.iter().any(|e| e.fault.is_some()),
        "the injected failure is visible in the tail: {flight:?}"
    );
    let text = err.to_string();
    assert!(text.contains("[flight recorder"), "Display dumps the tail: {text}");
}
