//! Memory-layout + streaming bench (`results/layout.json`).
//!
//! Two sections:
//!
//! 1. **Streamed (out-of-core)**: a 10^7-nonzero R-MAT Two-Face run through
//!    [`run_twoface_streamed`] under a small declared host memory budget,
//!    with the process peak RSS (`VmHWM`) asserted against a hard bound.
//!    This section runs *first* — `VmHWM` is a process-lifetime high-water
//!    mark, so the streamed reading is only meaningful before the resident
//!    runs inflate it.
//! 2. **Resident**: end-to-end Two-Face (prepare + execute, 1 worker) on
//!    the 10^7 suite at K ∈ {8, 32, 128}.
//!
//! Field policy for the fleet gate: simulated seconds, communication
//! counters, nonzero counts, spill sizes, and the simulated-time throughput
//! are deterministic and gated exactly; anything wall-clock- or
//! host-dependent carries `wall` in its field name (informational, see the
//! report's `host_note`).
//!
//! `TWOFACE_LAYOUT_LARGE=1` additionally runs the 10^8-nonzero acceptance
//! section (streamed under a declared budget, then the resident path at the
//! same scale for the peak-RSS comparison). It asserts its own bounds and
//! only prints its numbers, so the gated report has the same shape in both
//! modes.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twoface_bench::{default_cost, write_json};
use twoface_core::{
    peak_rss_bytes, run_algorithm, run_twoface_streamed, Algorithm, PreparedMatrix, Problem,
    RunOptions, StreamOptions, StreamedRun,
};
use twoface_matrix::gen::{rmat, webcrawl, RmatChunks, RmatConfig, WebcrawlConfig};
use twoface_matrix::CooMatrix;
use twoface_net::CostModel;

const P: usize = 32;

/// Streamed-section budget: 384 MiB hosts the dense blocks, the spill
/// chunk, and the per-stripe transients at 10^7 nonzeros with room to
/// spare, while sitting far below what the resident path needs end to end.
const STREAM_BUDGET: usize = 384 << 20;

/// Hard peak-RSS bound for the streamed 10^7 section (budget + allocator /
/// binary overhead). The resident path at the same scale peaks well above
/// 1 GiB, so this bound fails if streaming ever silently materializes.
const STREAM_RSS_BOUND: usize = 768 << 20;

fn rmat10m_config() -> RmatConfig {
    RmatConfig { scale: 19, edge_factor: 20, a: 0.57, b: 0.19, c: 0.19, noise: 0.05 }
}

#[derive(Serialize)]
struct StreamedSection {
    matrix: &'static str,
    k: usize,
    stripe_width: usize,
    memory_budget_bytes: usize,
    realized_nnz: usize,
    spilled_bytes: usize,
    peak_shard_bytes: usize,
    estimated_host_bytes: usize,
    simulated_seconds: f64,
    /// Deterministic per-nonzero throughput of the *simulated* cluster.
    sim_throughput_nnz_per_sim_s: f64,
    peak_rss_wall_mb: Option<f64>,
    rss_bound_wall_mb: f64,
    pipeline_wall_s: f64,
}

#[derive(Serialize)]
struct ResidentEntry {
    matrix: &'static str,
    k: usize,
    nnz: usize,
    simulated_seconds: f64,
    sim_throughput_nnz_per_sim_s: f64,
    prep_wall_s: f64,
    exec_wall_s: f64,
    e2e_wall_s: f64,
    wall_mnnz_per_s: f64,
}

#[derive(Serialize)]
struct Report {
    p: usize,
    workers: usize,
    streamed: StreamedSection,
    resident: Vec<ResidentEntry>,
    resident_peak_rss_wall_mb: Option<f64>,
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn run_streamed(
    name: &'static str,
    config: &RmatConfig,
    seed: u64,
    k: usize,
    stripe_width: usize,
    budget: usize,
    cost: &CostModel,
) -> (StreamedRun, f64) {
    let mut source = RmatChunks::new(config, seed);
    let options =
        StreamOptions { workers: Some(1), memory_budget: Some(budget), ..Default::default() };
    let t0 = Instant::now();
    let run = run_twoface_streamed(&mut source, k, P, stripe_width, cost, &options)
        .unwrap_or_else(|e| panic!("streamed {name} run failed: {e}"));
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "streamed {name} K={k}: {} nnz, spilled {:.0} MiB (peak shard {:.0} MiB), \
         est host {:.0} MiB under {:.0} MiB budget, sim {:.6}s, wall {wall:.1}s",
        run.realized_nnz,
        mb(run.spilled_bytes),
        mb(run.peak_shard_bytes),
        mb(run.estimated_host_bytes),
        mb(budget),
        run.report.seconds,
    );
    (run, wall)
}

fn resident_suite() -> Vec<(&'static str, CooMatrix, usize)> {
    let t0 = Instant::now();
    let r = rmat(&rmat10m_config(), 0x10a);
    eprintln!("gen rmat10m: {} nnz in {:.1}s", r.nnz(), t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let w = webcrawl(
        &WebcrawlConfig {
            n: 1 << 18,
            hosts: 2048,
            per_row: 40,
            intra_host: 0.985,
            portal_bias: 0.95,
            portals: 24,
        },
        0x10b,
    );
    eprintln!("gen web10m: {} nnz in {:.1}s", w.nnz(), t0.elapsed().as_secs_f64());
    vec![("rmat10m", r, 1024), ("web10m", w, 512)]
}

/// The 10^8-nonzero acceptance section (`TWOFACE_LAYOUT_LARGE=1`):
/// streamed under a declared budget, then resident at the same scale, with
/// the streamed peak RSS required to stay at ≤ 1/4 of the resident peak.
fn run_large(cost: &CostModel) {
    let config = RmatConfig { scale: 22, edge_factor: 24, a: 0.57, b: 0.19, c: 0.19, noise: 0.05 };
    let budget: usize = 4 << 30;
    // 10x the matrix needs bigger *simulated* nodes than the ~1:256-scaled
    // Table-2 default (the simulated OutOfMemory gate is orthogonal to the
    // host budget this section is actually exercising).
    let cost = &CostModel { memory_per_node: 2 << 30, ..*cost };
    let (run, wall) = run_streamed("rmat100m", &config, 0x10c, 8, 2048, budget, cost);
    let streamed_rss = peak_rss_bytes().expect("Linux host exposes VmHWM");
    println!(
        "large streamed: peak RSS {:.0} MiB (budget {:.0} MiB), wall {wall:.1}s",
        mb(streamed_rss),
        mb(budget)
    );
    assert!(
        streamed_rss <= budget,
        "streamed 10^8 run peak RSS {:.0} MiB exceeds its declared {:.0} MiB budget",
        mb(streamed_rss),
        mb(budget)
    );

    // Resident at the same scale, same seed: the RSS yardstick and the
    // overlap-scale output check.
    let t0 = Instant::now();
    let a = Arc::new(rmat(&config, 0x10c));
    eprintln!("gen rmat100m resident: {} nnz in {:.1}s", a.nnz(), t0.elapsed().as_secs_f64());
    assert_eq!(a.nnz(), run.realized_nnz, "streamed and resident normalization disagree");
    let problem = Problem::with_generated_b(a, 8, P, 2048).expect("resident 10^8 fits this host");
    let options = RunOptions { workers: Some(1), ..Default::default() };
    let t0 = Instant::now();
    let report =
        run_algorithm(Algorithm::TwoFace, &problem, cost, &options).expect("resident run fits");
    assert_eq!(
        report.seconds, run.report.seconds,
        "streamed and resident simulated time disagree at 10^8"
    );
    let resident_rss = peak_rss_bytes().expect("Linux host exposes VmHWM");
    let ratio = streamed_rss as f64 / resident_rss as f64;
    println!(
        "large resident: sim {:.6}s, wall {:.1}s, peak RSS {:.0} MiB -> streamed/resident \
         RSS ratio {ratio:.3}",
        report.seconds,
        t0.elapsed().as_secs_f64(),
        mb(resident_rss)
    );
    assert!(
        ratio <= 0.25,
        "streamed peak RSS must stay at <= 1/4 of the resident path's ({:.0} vs {:.0} MiB)",
        mb(streamed_rss),
        mb(resident_rss)
    );
}

fn main() {
    let cost = default_cost();

    // Section 1 (first: VmHWM is monotone): streamed 10^7 under budget.
    let (streamed_run, streamed_wall) =
        run_streamed("rmat10m", &rmat10m_config(), 0x10a, 8, 1024, STREAM_BUDGET, &cost);
    let streamed_rss = peak_rss_bytes();
    if let Some(rss) = streamed_rss {
        println!("streamed peak RSS {:.0} MiB (bound {:.0} MiB)", mb(rss), mb(STREAM_RSS_BOUND));
        assert!(
            rss <= STREAM_RSS_BOUND,
            "streamed 10^7 peak RSS {:.0} MiB exceeds the {:.0} MiB bound — the \
             out-of-core pipeline is materializing something it should stream",
            mb(rss),
            mb(STREAM_RSS_BOUND)
        );
    }
    let streamed = StreamedSection {
        matrix: "rmat10m",
        k: 8,
        stripe_width: 1024,
        memory_budget_bytes: STREAM_BUDGET,
        realized_nnz: streamed_run.realized_nnz,
        spilled_bytes: streamed_run.spilled_bytes,
        peak_shard_bytes: streamed_run.peak_shard_bytes,
        estimated_host_bytes: streamed_run.estimated_host_bytes,
        simulated_seconds: streamed_run.report.seconds,
        sim_throughput_nnz_per_sim_s: streamed_run.realized_nnz as f64
            / streamed_run.report.seconds,
        peak_rss_wall_mb: streamed_rss.map(mb),
        rss_bound_wall_mb: mb(STREAM_RSS_BOUND),
        pipeline_wall_s: streamed_wall,
    };

    if std::env::var("TWOFACE_LAYOUT_LARGE").is_ok_and(|v| v == "1") {
        run_large(&cost);
    }

    // Section 2: the resident 10^7 suite at 1 worker.
    let mut resident = Vec::new();
    for (name, a, stripe_width) in resident_suite() {
        let nnz = a.nnz();
        let a = Arc::new(a);
        for k in [8usize, 32, 128] {
            let problem = Problem::with_generated_b(Arc::clone(&a), k, P, stripe_width)
                .expect("suite problem is valid");
            let options = RunOptions { workers: Some(1), ..Default::default() };
            let t0 = Instant::now();
            let prepared =
                Arc::new(PreparedMatrix::build(&problem, &cost, &options).expect("prepare"));
            let prep_s = t0.elapsed().as_secs_f64();
            let options = RunOptions { prepared: Some(prepared), ..options };
            let t1 = Instant::now();
            let report = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)
                .expect("two-face fits");
            let exec_s = t1.elapsed().as_secs_f64();
            let e2e = prep_s + exec_s;
            println!(
                "{name} K={k}: prep {prep_s:.3}s exec {exec_s:.3}s e2e {e2e:.3}s \
                 ({:.1} Mnnz/s) sim {:.6}s",
                nnz as f64 / e2e / 1e6,
                report.seconds
            );
            resident.push(ResidentEntry {
                matrix: name,
                k,
                nnz,
                simulated_seconds: report.seconds,
                sim_throughput_nnz_per_sim_s: nnz as f64 / report.seconds,
                prep_wall_s: prep_s,
                exec_wall_s: exec_s,
                e2e_wall_s: e2e,
                wall_mnnz_per_s: nnz as f64 / e2e / 1e6,
            });
        }
    }
    let resident_rss = peak_rss_bytes();

    write_json(
        "layout",
        &Report {
            p: P,
            workers: 1,
            streamed,
            resident,
            resident_peak_rss_wall_mb: resident_rss.map(mb),
        },
    );
}
