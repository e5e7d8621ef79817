//! Subprocess execution: each job runs with a wall-clock timeout and one
//! retry, stdout/stderr captured to `results/fleet_logs/<job>.log`.

use crate::matrix::{JobSpec, SCRUBBED_ENV};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Terminal state of one job after up to [`MAX_ATTEMPTS`] attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Exited zero.
    Passed,
    /// Exited non-zero (or was killed by a signal) on the final attempt.
    Failed {
        /// The exit code, when the OS reported one.
        exit_code: Option<i32>,
    },
    /// Exceeded the per-attempt timeout on the final attempt and was killed.
    TimedOut,
    /// The process could not be spawned at all (missing binary, ...).
    SpawnError {
        /// The OS error text.
        error: String,
    },
}

impl serde::Serialize for JobStatus {
    // Serialized as a `kind`-tagged object (the vendored serde derive has no
    // support for data-carrying enum variants, so this is written out).
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let tag = |kind: &str| ("kind".to_string(), Value::String(kind.to_string()));
        Value::Object(match self {
            JobStatus::Passed => vec![tag("passed")],
            JobStatus::Failed { exit_code } => {
                let code = exit_code.map_or(Value::Null, |c| Value::Int(i64::from(c)));
                vec![tag("failed"), ("exit_code".to_string(), code)]
            }
            JobStatus::TimedOut => vec![tag("timed_out")],
            JobStatus::SpawnError { error } => {
                vec![tag("spawn_error"), ("error".to_string(), Value::String(error.clone()))]
            }
        })
    }
}

/// Attempts per job: one run plus one retry, like the 0sim runner.
pub const MAX_ATTEMPTS: u32 = 2;

/// Outcome of one job, as recorded in `fleet_report.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct JobOutcome {
    /// Job name from the matrix.
    pub name: String,
    /// The command line that ran.
    pub command: String,
    /// Job-specific environment overrides (inherited knobs are scrubbed).
    pub env: Vec<(String, String)>,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts actually made.
    pub attempts: u32,
    /// Total wall-clock seconds across attempts (informational: host time
    /// varies between runs).
    pub wall_seconds: f64,
    /// Per-attempt timeout the job ran under, in seconds.
    pub timeout_seconds: u64,
    /// Repo-relative log file with the captured stdout/stderr.
    pub log: String,
    /// Peak resident-set size of the job process in bytes (informational;
    /// the maximum `VmHWM` observed across attempts while polling, `null`
    /// where the platform exposes no `/proc/<pid>/status`).
    pub peak_rss_bytes: Option<u64>,
    /// Gated reports this job regenerates.
    pub outputs: Vec<String>,
}

impl JobOutcome {
    /// Whether the job ended in success.
    pub fn passed(&self) -> bool {
        self.status == JobStatus::Passed
    }
}

/// Runs `job` from `root` with the date env and scrubbed knobs, retrying
/// once on any failure or timeout.
pub fn run_job(root: &Path, job: &JobSpec, date: &str) -> JobOutcome {
    let log_rel = format!("results/fleet_logs/{}.log", job.name.replace('/', "__"));
    let log_path = root.join(&log_rel);
    if let Some(parent) = log_path.parent() {
        std::fs::create_dir_all(parent).expect("can create fleet log directory");
    }
    let started = Instant::now();
    let mut status = JobStatus::SpawnError { error: "no attempt ran".into() };
    let mut attempts = 0;
    let mut peak_rss_bytes = None;
    for attempt in 1..=MAX_ATTEMPTS {
        attempts = attempt;
        let (s, rss) = run_attempt(root, job, date, &log_path, attempt);
        status = s;
        peak_rss_bytes = peak_rss_bytes.max(rss);
        if status == JobStatus::Passed {
            break;
        }
    }
    JobOutcome {
        name: job.name.clone(),
        command: job.command.join(" "),
        env: job.env.clone(),
        status,
        attempts,
        wall_seconds: started.elapsed().as_secs_f64(),
        timeout_seconds: job.timeout.as_secs(),
        log: log_rel,
        peak_rss_bytes,
        outputs: job.outputs.clone(),
    }
}

fn run_attempt(
    root: &Path,
    job: &JobSpec,
    date: &str,
    log_path: &Path,
    attempt: u32,
) -> (JobStatus, Option<u64>) {
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(attempt == 1)
        .append(attempt > 1)
        .open(log_path)
        .expect("can open job log");
    writeln!(log, "=== {} attempt {attempt}/{MAX_ATTEMPTS}: {:?}", job.name, job.command).ok();
    let stdout = log.try_clone().expect("can clone log handle");
    let stderr = log.try_clone().expect("can clone log handle");

    let mut cmd = std::process::Command::new(&job.command[0]);
    cmd.args(&job.command[1..])
        .current_dir(root)
        .stdin(std::process::Stdio::null())
        .stdout(stdout)
        .stderr(stderr);
    for knob in SCRUBBED_ENV {
        cmd.env_remove(knob);
    }
    cmd.env(BENCH_DATE_ENV, date);
    for (k, v) in &job.env {
        cmd.env(k, v);
    }

    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return (JobStatus::SpawnError { error: e.to_string() }, None),
    };
    let deadline = Instant::now() + job.timeout;
    // Piggyback on the wait-poll cadence to track the child's high-water
    // RSS; `VmHWM` is monotone, so the last successful probe is the peak.
    let mut peak_rss = None;
    loop {
        match child.try_wait() {
            Ok(Some(exit)) => {
                let status = if exit.success() {
                    JobStatus::Passed
                } else {
                    JobStatus::Failed { exit_code: exit.code() }
                };
                return (status, peak_rss);
            }
            Ok(None) => {
                peak_rss = peak_rss.max(probe_vm_hwm(child.id()));
                if Instant::now() >= deadline {
                    writeln!(log, "=== killed: exceeded {:?} timeout", job.timeout).ok();
                    child.kill().ok();
                    child.wait().ok();
                    return (JobStatus::TimedOut, peak_rss);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return (JobStatus::SpawnError { error: e.to_string() }, peak_rss);
            }
        }
    }
}

/// The high-water resident-set size of `pid` in bytes, from
/// `/proc/<pid>/status` (`VmHWM` is reported in kB). `None` off Linux or
/// once the process is gone.
fn probe_vm_hwm(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The env var carrying the run date into report envelopes (mirrors
/// `twoface_bench::BENCH_DATE_ENV` without a crate dependency: the fleet
/// drives prebuilt binaries and must not rebuild the whole stack).
pub const BENCH_DATE_ENV: &str = "TWOFACE_BENCH_DATE";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::JobSpec;

    fn job(name: &str, command: &[&str], timeout: Duration) -> JobSpec {
        JobSpec {
            name: format!("test/{name}-{}", std::process::id()),
            command: command.iter().map(|s| s.to_string()).collect(),
            env: Vec::new(),
            tags: vec![],
            outputs: vec![],
            timeout,
        }
    }

    #[test]
    fn passing_job_runs_once() {
        let root = std::env::temp_dir();
        let out = run_job(&root, &job("pass", &["true"], Duration::from_secs(30)), "2026-01-01");
        assert!(out.passed());
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn failing_job_is_retried_once_and_reports_the_exit_code() {
        let root = std::env::temp_dir();
        let out = run_job(&root, &job("fail", &["false"], Duration::from_secs(30)), "2026-01-01");
        assert_eq!(out.status, JobStatus::Failed { exit_code: Some(1) });
        assert_eq!(out.attempts, MAX_ATTEMPTS);
    }

    #[test]
    fn hung_job_times_out_and_is_killed() {
        let root = std::env::temp_dir();
        let started = Instant::now();
        let out = run_job(
            &root,
            &job("hang", &["sleep", "600"], Duration::from_millis(200)),
            "2026-01-01",
        );
        assert_eq!(out.status, JobStatus::TimedOut);
        assert_eq!(out.attempts, MAX_ATTEMPTS);
        assert!(started.elapsed() < Duration::from_secs(60), "kill actually happened");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn long_enough_jobs_report_a_peak_rss() {
        let root = std::env::temp_dir();
        let out =
            run_job(&root, &job("rss", &["sleep", "0.3"], Duration::from_secs(30)), "2026-01-01");
        assert!(out.passed());
        // The 50ms poll cadence guarantees several VmHWM probes landed.
        assert!(out.peak_rss_bytes.is_some_and(|b| b > 0), "got {:?}", out.peak_rss_bytes);
    }

    #[test]
    fn unspawnable_job_is_a_spawn_error() {
        let root = std::env::temp_dir();
        let out = run_job(
            &root,
            &job("missing", &["./definitely-not-a-binary-on-this-host"], Duration::from_secs(5)),
            "2026-01-01",
        );
        assert!(matches!(out.status, JobStatus::SpawnError { .. }));
    }
}
