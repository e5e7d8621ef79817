//! Fingerprint stability contract for the serving layer's cache keys.
//!
//! The plan cache key and the `PreparedMatrix` content fingerprint must be
//! pure functions of `(A, execution options, cluster shape, K)`: worker
//! counts are deliberately excluded (preprocessing is deterministic across
//! workers), and — since the fleet runner re-invokes every experiment as a
//! subprocess with whatever environment CI hands it — env-inherited knobs
//! (`TWOFACE_THREADS`, `TWOFACE_TRACE`) must not leak into the keys either.
//! A leak would make warm caches miss (or worse, collide) across fleet
//! invocations that only differ in inherited environment.
//!
//! The subprocess leg re-runs this very test binary in child mode under
//! different `TWOFACE_THREADS` values and compares the printed keys.

use std::process::Command;
use std::sync::Arc;
use twoface_core::{Algorithm, PreparedMatrix, Problem, RunOptions};
use twoface_matrix::gen::erdos_renyi;
use twoface_net::CostModel;
use twoface_serve::{ServeConfig, SpmmService};

/// Set in the child re-invocation: print the keys and exit.
const CHILD_ENV: &str = "TWOFACE_FP_CHILD";

const K: usize = 16;
const P: usize = 4;
const STRIPE_WIDTH: usize = 32;

fn fixed_problem() -> Problem {
    let a = Arc::new(erdos_renyi(256, 256, 4_000, 7));
    Problem::with_generated_b(a, K, P, STRIPE_WIDTH).expect("fixture problem is valid")
}

/// The fingerprints under contract: the service's plan-cache key (for an
/// explicit algorithm and for `Auto`, which must resolve to the same
/// concrete choice in every environment) and the prepared artifact's
/// content fingerprint, on a fixed problem.
fn compute_keys(workers: Option<usize>) -> (u64, u64, u64) {
    let cost = CostModel::delta_scaled();
    let problem = fixed_problem();
    let mut service = SpmmService::new(ServeConfig::new(P, cost));
    let handle = service
        .register_matrix(Arc::clone(&problem.a), STRIPE_WIDTH)
        .expect("fixture matrix registers");
    let cache_key = service.plan_cache_key(handle, Algorithm::TwoFace, K).expect("handle is known");
    let auto_key = service.plan_cache_key(handle, Algorithm::Auto, K).expect("handle is known");
    let options = RunOptions { workers, ..RunOptions::default() };
    let prepared = PreparedMatrix::build(&problem, &cost, &options).expect("fixture preprocesses");
    (cache_key, auto_key, prepared.fingerprint())
}

#[test]
fn fingerprints_are_stable_across_workers_and_subprocess_env() {
    let (cache_key, auto_key, prep_fp) = compute_keys(None);

    if std::env::var(CHILD_ENV).is_ok() {
        // Child mode: report what this environment computes and stop.
        println!("FP_CACHE_KEY={cache_key} FP_AUTO={auto_key} FP_PREP={prep_fp}");
        return;
    }

    // Explicit worker counts in-process: same keys.
    for workers in [1, 2, 7] {
        let (k, a, p) = compute_keys(Some(workers));
        assert_eq!(
            (k, a, p),
            (cache_key, auto_key, prep_fp),
            "keys drifted at workers = {workers}"
        );
    }

    // Fleet-style subprocess re-invocation under env-inherited knobs: the
    // child is this same test binary, filtered to this test, with
    // TWOFACE_THREADS (and a throwaway TWOFACE_TRACE) injected.
    // The children trace into a directory of this process's own, removed
    // with whatever they wrote.
    let exe = std::env::current_exe().expect("test binary path");
    let trace_dir = std::env::temp_dir().join(format!("twoface-fp-trace-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir).expect("temp dir is writable");
    for threads in ["1", "3", "8"] {
        let trace_sink = trace_dir.join(format!("{threads}.jsonl"));
        let output = Command::new(&exe)
            .args([
                "fingerprints_are_stable_across_workers_and_subprocess_env",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD_ENV, "1")
            .env("TWOFACE_THREADS", threads)
            .env("TWOFACE_TRACE", &trace_sink)
            .output()
            .expect("child test process spawns");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "child with TWOFACE_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        // The key line may share a line with libtest's `test <name> ... `
        // prefix (printed without a trailing newline), so search by
        // substring rather than line start.
        let start = stdout
            .find("FP_CACHE_KEY=")
            .unwrap_or_else(|| panic!("child printed no keys:\n{stdout}"));
        let line = stdout[start..].lines().next().expect("key line terminates");
        assert_eq!(
            line.trim(),
            format!("FP_CACHE_KEY={cache_key} FP_AUTO={auto_key} FP_PREP={prep_fp}"),
            "env-inherited TWOFACE_THREADS={threads} leaked into a cache key"
        );
    }
    std::fs::remove_dir_all(&trace_dir).expect("trace dir is removable");
}
