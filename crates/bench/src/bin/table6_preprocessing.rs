//! Table 6: the overhead of Two-Face preprocessing, normalized to one SpMM.
//!
//! Reproduces both columns: `t_norm_IO` (preprocessing including reading the
//! matrix from textual Matrix Market and writing the bespoke binary format)
//! and `t_norm` (classification + structure building only). Preprocessing is
//! single-threaded wall-clock work proportional to nnz, and one SpMM is
//! simulated seconds; both scale linearly with matrix size, so the ratio is
//! directly comparable to the paper's (up to single-core speed differences).

#![forbid(unsafe_code)]

use serde::Serialize;
use std::time::Instant;
use twoface_bench::{banner, default_cost, write_json, SuiteCache, DEFAULT_K, DEFAULT_P};
use twoface_core::{
    prepare_plan, run_algorithm, Algorithm, RankMatrices, RunOptions, TwoFaceConfig,
};
use twoface_matrix::gen::SuiteMatrix;
use twoface_matrix::io::{read_market, write_binary, write_market};
use twoface_matrix::{CooMatrix, Triplet};
use twoface_partition::ModelCoefficients;

#[derive(Serialize)]
struct Row {
    matrix: &'static str,
    prep_wall_seconds_with_io: f64,
    prep_wall_seconds: f64,
    spmm_seconds: f64,
    t_norm_io_wall: f64,
    t_norm_wall: f64,
    /// SpMM operations needed before Two-Face (including preprocessing)
    /// beats DS2 (the paper reports an average of 15 at K = 128).
    amortization_wall_ops: Option<f64>,
}

fn main() {
    banner(
        "Table 6: preprocessing overhead normalized to one SpMM (K = 128)",
        format!("p = {DEFAULT_P}; t_norm_IO includes MatrixMarket read + binary write.").as_str(),
    );
    let cost = default_cost();
    let coefficients = ModelCoefficients::from(&cost);
    let options = RunOptions { compute_values: false, ..Default::default() };
    let config = TwoFaceConfig::default();
    let mut cache = SuiteCache::new();
    let tmp = std::env::temp_dir().join("twoface-table6");
    std::fs::create_dir_all(&tmp).expect("can create temp dir");

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10} {:>8} {:>10}",
        "matrix", "prep+IO (s)", "prep (s)", "SpMM (s)", "t_norm_IO", "t_norm", "amortize"
    );
    let mut rows = Vec::new();
    for m in SuiteMatrix::ALL {
        let problem = cache.problem(m, DEFAULT_K, DEFAULT_P).expect("suite problems are valid");
        // Stage the textual input, as SuiteSparse distributes it (untimed).
        let mtx_path = tmp.join(format!("{}.mtx", m.short_name()));
        {
            let file = std::fs::File::create(&mtx_path).expect("can create mtx");
            write_market(std::io::BufWriter::new(file), &problem.a).expect("can write mtx");
        }

        // Preprocessing including I/O: read text, classify, build the two
        // Figure-6 matrices, write them in the bespoke binary format.
        let start = Instant::now();
        let a =
            read_market(std::fs::File::open(&mtx_path).expect("mtx exists")).expect("mtx parses");
        let plan = prepare_plan(&problem, &coefficients, &cost);
        let per_rank: Vec<RankMatrices> = (0..DEFAULT_P)
            .map(|rank| RankMatrices::build(&a, &plan, rank, config.row_panel_height))
            .collect::<Result<_, _>>()
            .expect("the plan is the matrix's own");
        let offsets: Vec<usize> =
            (0..DEFAULT_P).map(|rank| plan.layout().row_range(rank).start).collect();
        write_structures(&tmp, m.short_name(), &a, &per_rank, &offsets);
        let prep_io = start.elapsed().as_secs_f64();

        // Preprocessing without I/O: classification + structure building on
        // the in-memory matrix.
        let start = Instant::now();
        let plan = prepare_plan(&problem, &coefficients, &cost);
        let _per_rank: Vec<RankMatrices> = (0..DEFAULT_P)
            .map(|rank| RankMatrices::build(&problem.a, &plan, rank, config.row_panel_height))
            .collect::<Result<_, _>>()
            .expect("the plan is the matrix's own");
        let prep = start.elapsed().as_secs_f64();
        drop(plan);

        let tf = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)
            .expect("Two-Face fits on the whole suite");
        let ds2 =
            run_algorithm(Algorithm::DenseShifting { replication: 2 }, &problem, &cost, &options)
                .expect("DS2 fits at K = 128");
        let saved_per_op = ds2.seconds - tf.seconds;
        let amortization = (saved_per_op > 0.0).then(|| prep / saved_per_op);

        let row = Row {
            matrix: m.short_name(),
            prep_wall_seconds_with_io: prep_io,
            prep_wall_seconds: prep,
            spmm_seconds: tf.seconds,
            t_norm_io_wall: prep_io / tf.seconds,
            t_norm_wall: prep / tf.seconds,
            amortization_wall_ops: amortization,
        };
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>12.5} {:>10.1} {:>8.1} {:>10}",
            row.matrix,
            row.prep_wall_seconds_with_io,
            row.prep_wall_seconds,
            row.spmm_seconds,
            row.t_norm_io_wall,
            row.t_norm_wall,
            row.amortization_wall_ops.map_or("never".to_string(), |a| format!("{a:.0} ops")),
        );
        rows.push(row);
        std::fs::remove_file(&mtx_path).ok();
    }
    let avg_io: f64 = rows.iter().map(|r| r.t_norm_io_wall).sum::<f64>() / rows.len() as f64;
    let avg: f64 = rows.iter().map(|r| r.t_norm_wall).sum::<f64>() / rows.len() as f64;
    println!("\nAverage t_norm_IO = {avg_io:.1} (paper: 134.35), t_norm = {avg:.1} (paper: 24.27)");
    write_json("table6_preprocessing", &rows);
}

/// Writes the synchronous/local-input and asynchronous matrices of every
/// rank in the bespoke binary format, as the paper's preprocessing does.
fn write_structures(
    dir: &std::path::Path,
    name: &str,
    a: &CooMatrix,
    per_rank: &[RankMatrices],
    offsets: &[usize],
) {
    let mut sync_triplets: Vec<Triplet> = Vec::new();
    let mut async_triplets: Vec<Triplet> = Vec::new();
    for (rank, m) in per_rank.iter().enumerate() {
        // Rebase local rows back to global for a single container file.
        let offset = offsets[rank];
        sync_triplets.extend(
            m.sync_local
                .entries()
                .iter()
                .map(|t| t.widen())
                .map(|t| Triplet::new(t.row + offset, t.col, t.val)),
        );
        for stripe in m.asynchronous.stripes() {
            async_triplets.extend(
                stripe
                    .entries
                    .iter()
                    .map(|t| t.widen())
                    .map(|t| Triplet::new(t.row + offset, t.col, t.val)),
            );
        }
    }
    for (suffix, triplets) in [("sync", sync_triplets), ("async", async_triplets)] {
        let matrix = CooMatrix::from_triplets(a.rows(), a.cols(), triplets)
            .expect("rebased coordinates stay in bounds");
        let path = dir.join(format!("{name}.{suffix}.bin"));
        let file = std::fs::File::create(&path).expect("can create binary");
        write_binary(std::io::BufWriter::new(file), &matrix).expect("can write binary");
        std::fs::remove_file(&path).ok();
    }
}
