//! `twoface-fleet` — the experiment-fleet driver and regression gate.
//!
//! ```text
//! twoface-fleet [--filter SUBSTR] [--no-build] [--timeout-secs N]   run + check
//! twoface-fleet --check                                             diff-only gate
//! twoface-fleet --explain FILE                                      profile attribution
//! twoface-fleet --bless [--filter SUBSTR]                           rewrite baselines
//! twoface-fleet --list [--filter SUBSTR]                            show the matrix
//! ```
//!
//! The default mode replaces `run_all_experiments.sh`: it builds the bench
//! binaries, runs every (filtered) job with a timeout and one retry, writes
//! `results/fleet_report.json`, then diffs every gated report against
//! `baselines/` and exits non-zero on any job failure or out-of-band field.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use twoface_fleet::{attribution, diff, matrix, report, run, today_utc, workspace_root};

struct Args {
    check: bool,
    bless: bool,
    list: bool,
    no_build: bool,
    filter: Option<String>,
    timeout_override: Option<u64>,
    explain: Option<String>,
}

const USAGE: &str = "\
twoface-fleet: run the experiment matrix and gate results against baselines

USAGE:
    twoface-fleet [OPTIONS]             run the (filtered) matrix, then check
    twoface-fleet --check               diff results/BENCH reports vs baselines/
    twoface-fleet --explain FILE        attribute one report's drift from its
                                        profile sidecar, without a full check
    twoface-fleet --bless [--filter F]  accept current reports as the baseline
    twoface-fleet --list                print the experiment matrix

OPTIONS:
    --filter SUBSTR      select jobs whose name or tag contains SUBSTR
                         (e.g. --filter fast, --filter chaos, --filter fig07)
    --no-build           skip the upfront `cargo build` of the bench bins
    --timeout-secs N     override every job's per-attempt timeout
    -h, --help           this text

Tolerance policy: simulated seconds, per-nonzero throughput, counters, and
schema identity are gated (bit-exact or a declared band); wall-clock fields
and report metadata (date/harness/host_note/...) are informational only.
When a gated field fails, the check prints a ranked attribution derived
from the report's results/<name>.profile.json sidecar vs the blessed copy.";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        bless: false,
        list: false,
        no_build: false,
        filter: None,
        timeout_override: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check = true,
            "--bless" => args.bless = true,
            "--list" => args.list = true,
            "--no-build" => args.no_build = true,
            "--filter" => {
                args.filter = Some(it.next().ok_or("--filter needs a value")?);
            }
            "--timeout-secs" => {
                let v = it.next().ok_or("--timeout-secs needs a value")?;
                args.timeout_override =
                    Some(v.parse().map_err(|_| format!("bad --timeout-secs value: {v}"))?);
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or(
                    "--explain needs a report path, e.g. \
                                          results/fig10_breakdown.json",
                )?);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}\n\n{USAGE}")),
        }
    }
    if args.check && args.bless {
        return Err("--check and --bless are mutually exclusive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = workspace_root();
    let jobs = matrix::experiment_matrix();
    let selected = matrix::select(&jobs, args.filter.as_deref());

    if args.list {
        println!("{} job(s){}:", selected.len(), filter_note(&args));
        for j in &selected {
            println!(
                "  {:<36} tags [{}]  outputs [{}]  timeout {}s",
                j.name,
                j.tags.join(", "),
                j.outputs.join(", "),
                j.timeout.as_secs()
            );
        }
        return ExitCode::SUCCESS;
    }

    if args.bless {
        return match diff::bless_tree(&root) {
            Ok(blessed) => {
                for b in &blessed {
                    println!("blessed {b}");
                }
                println!("{} report(s) accepted into baselines/", blessed.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(file) = &args.explain {
        return match attribution::explain_file(&root, file) {
            Ok(e) => {
                println!(
                    "attribution for {} (profile {} vs baselines/{}):",
                    e.report, e.profile, e.profile
                );
                for line in &e.lines {
                    println!("  {line}");
                }
                ExitCode::SUCCESS
            }
            Err(reason) => {
                eprintln!("error: no attribution for {file}: {reason}");
                ExitCode::FAILURE
            }
        };
    }

    if args.check {
        return print_check(&root, diff::check_tree(&root));
    }

    // Default mode: build, run the matrix, write the report, then check.
    if selected.is_empty() {
        eprintln!("error: no jobs match{}", filter_note(&args));
        return ExitCode::from(2);
    }
    if !args.no_build {
        println!("building bench binaries (cargo build --release -p twoface-bench --bins)...");
        let build = std::process::Command::new("cargo")
            .args(["build", "--release", "-p", "twoface-bench", "--bins"])
            .current_dir(&root)
            .status();
        match build {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: bench build failed with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: could not invoke cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let date = today_utc();
    let mut outcomes = Vec::new();
    for (i, job) in selected.iter().enumerate() {
        let mut job = (*job).clone();
        if let Some(t) = args.timeout_override {
            job.timeout = Duration::from_secs(t);
        }
        println!("[{}/{}] {} ...", i + 1, selected.len(), job.name);
        let outcome = run::run_job(&root, &job, &date);
        println!(
            "[{}/{}] {} -> {:?} in {:.1}s ({} attempt(s), log {})",
            i + 1,
            selected.len(),
            outcome.name,
            outcome.status,
            outcome.wall_seconds,
            outcome.attempts,
            outcome.log
        );
        outcomes.push(outcome);
    }

    let check = diff::check_tree(&root);
    let all_jobs_passed = outcomes.iter().all(|o| o.passed());
    let fleet = report::FleetReport::new(date, args.filter.clone(), outcomes, Some(check));
    match fleet.write(&root) {
        Ok(path) => println!("\nfleet report written to {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write fleet report: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "jobs: {} passed, {} failed, {} retried to success",
        fleet.summary.passed, fleet.summary.failed, fleet.summary.retried_to_success
    );
    if !all_jobs_passed {
        for j in fleet.jobs.iter().filter(|j| !j.passed()) {
            eprintln!("FAILED job {}: {:?} (see {})", j.name, j.status, j.log);
        }
    }
    let check_code = print_check(&root, fleet.check.expect("check ran"));
    if !all_jobs_passed {
        return ExitCode::FAILURE;
    }
    check_code
}

fn filter_note(args: &Args) -> String {
    args.filter.as_deref().map_or(String::new(), |f| format!(" (--filter {f})"))
}

fn print_check(root: &Path, check: diff::CheckReport) -> ExitCode {
    let failures: Vec<_> = check.failures().collect();
    let info = check.diffs.iter().filter(|d| !d.gated).count();
    println!(
        "baseline check: {} file(s) compared, {} out-of-band field(s), {} informational change(s)",
        check.files_compared,
        failures.len(),
        info
    );
    for d in check.diffs.iter().filter(|d| !d.gated) {
        println!("  {d}");
    }
    if failures.is_empty() {
        println!("baseline check PASSED");
        ExitCode::SUCCESS
    } else {
        for d in &failures {
            eprintln!("  {d}");
        }
        // Attribution: for each failing report, explain the drift from its
        // profile sidecar (which phase class / op kind moved, and where).
        for (file, explained) in attribution::explain_failures(root, &check) {
            match explained {
                Ok(e) => {
                    eprintln!("why {file} drifted (from {}):", e.profile);
                    for line in &e.lines {
                        eprintln!("    {line}");
                    }
                }
                Err(reason) => eprintln!("why {file} drifted: no attribution ({reason})"),
            }
        }
        eprintln!(
            "baseline check FAILED: {} out-of-band field(s); if the change is intended, \
             regenerate and run `twoface-fleet --bless`",
            failures.len()
        );
        ExitCode::FAILURE
    }
}
