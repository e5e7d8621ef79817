//! Host-time benchmark of the Two-Face reproduction.
//!
//! ```text
//! perfbench --workload <oneshot_web|serve_gnn|streamed_rmat> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop with one client on the driver thread,
//! calling the repository's public APIs. Inputs are generated from the seed
//! before set-up. With `--trace 0` the run measures the end-to-end metrics;
//! with `--trace 1` a separate run times each layer's public calls from
//! outside and reports the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod measure;
mod oneshot;
mod serve;
mod stats;
mod streamed;
mod sys;

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_cpu_s", "s"), ("peak_rss_mb", "MiB"), ("sim_s", "s")];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload's op does not pass through reports 0 for its counts.
const PER_LAYER: &[(&str, &str)] = &[
    ("matrix.read_binary_s", "s"),
    ("matrix.fingerprint_s", "s"),
    ("prepare.plan_s", "s"),
    ("prepare.build_s", "s"),
    ("prepare.rank_build_s", "s"),
    ("execute.run_s", "s"),
    ("execute.batch_s", "s"),
    ("execute.flops", "count"),
    ("execute.b_bytes", "bytes"),
    ("net.spawn_s", "s"),
    ("net.meets", "count"),
    ("net.messages", "count"),
    ("net.one_sided_ops", "count"),
    ("net.vol_ctx_switches", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.requests_per_batch", "count"),
    ("serve.fused_k_mean", "count"),
    ("frontend.deadline_hit_ratio", "ratio"),
    ("frontend.close.deadline_pressure", "count"),
    ("frontend.close.flush", "count"),
    ("frontend.rejected_frac", "ratio"),
    ("stream.spilled_mb", "MiB"),
    ("stream.peak_shard_mb", "MiB"),
    ("stream.estimated_host_mb", "MiB"),
    ("host.cpu_s", "s"),
    ("host.steal_frac", "ratio"),
    ("unattributed_s", "s"),
    ("host.trace_overhead", "ratio"),
];

/// Environment knobs that change what the program does; scrubbed so a
/// stray setting cannot turn tracing, profiling or a worker override on.
const SCRUBBED_ENV: &[&str] =
    &["TWOFACE_THREADS", "TWOFACE_TRACE", "TWOFACE_PROFILE", "TWOFACE_STREAM_DEBUG"];

/// Where per-run scratch files go, relative to the working directory.
const WORK_ROOT: &str = ".perfbench_work";

pub type BoxError = Box<dyn Error + Send + Sync>;

/// What one invocation measures.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    pub trace: bool,
    pub work: inputs::WorkDir,
}

/// Op accounting, whole-run checks, and the metrics of one run.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one attempted op; a failed one prints `why`.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            println!("FAILED op {}: {why}", self.attempted);
        }
    }

    /// Records a whole-run check (one that no single op owns).
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("FAILED check: {what}");
            self.broken.push(what.to_string());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.broken.is_empty()
    }

    /// The result line, after checking the metrics are exactly `expected`.
    fn json(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in expected {
            let values: Vec<f64> =
                self.metrics.iter().filter(|(n, _)| n == name).map(|&(_, v)| v).collect();
            match values[..] {
                [value] if value.is_finite() => fields
                    .push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")),
                [value] => return Err(format!("metric {name} is not finite ({value})")),
                _ => return Err(format!("metric {name} reported {} times", values.len())),
            }
        }
        if let Some((extra, _)) =
            self.metrics.iter().find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: Args) -> Result<Outcome, BoxError> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: inputs::WorkDir::create(Path::new(WORK_ROOT))?,
    };
    let cpu_before = sys::CpuTimes::now();
    let mut outcome = match args.workload.as_str() {
        "oneshot_web" => oneshot::run(&ctx)?,
        "serve_gnn" => serve::run(&ctx)?,
        "streamed_rmat" => streamed::run(&ctx)?,
        other => return Err(format!("unknown workload {other}").into()),
    };
    let steal = match (cpu_before, sys::CpuTimes::now()) {
        (Some(before), Some(after)) => after.steal_frac_since(before),
        _ => 0.0,
    };
    println!("host.steal_frac: {steal:.4} of host CPU time over the run");
    if ctx.trace {
        outcome.metric("host.steal_frac", steal);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <oneshot_web|serve_gnn|streamed_rmat> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload {}, seed {}, seconds {}, trace {}; nproc {nproc}, workers {} \
         (program default)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        twoface_core::pool::resolve_workers(None)
    );
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let outcome = match run(args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match outcome.json(expected) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(manifest.matches("\"name\":").count(), END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn json_requires_exactly_the_declared_metrics() {
        let mut outcome = Outcome::default();
        outcome.op(None);
        outcome.metric("setup_s", 0.5);
        assert!(outcome.json(&[("setup_s", "s"), ("sim_s", "s")]).is_err());
        outcome.metric("sim_s", 1e-3);
        let line = outcome.json(&[("setup_s", "s"), ("sim_s", "s")]).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        outcome.metric("op_cpu_s", 1.0);
        assert!(outcome.json(&[("setup_s", "s"), ("sim_s", "s")]).is_err());
    }
}
