//! Golden bits: the output `C` of one fixed problem, pinned by committed
//! digests.
//!
//! The other suites compare runs with each other — algorithms, worker
//! counts, streamed and resident — on one host, and the fleet baselines
//! gate simulated seconds, not `C`. This suite pins the bits themselves, so
//! a kernel that rounds differently on some host (another vector ISA, a
//! fused multiply-add, a reordered sum) fails here wherever it runs.

use std::sync::Arc;
use twoface_core::{
    run_algorithm, run_twoface_streamed, Algorithm, PreparedMatrix, Problem, RunOptions,
    StreamOptions,
};
use twoface_matrix::gen::{assemble, RmatChunks, RmatConfig};
use twoface_matrix::{DenseMatrix, Fingerprint};
use twoface_net::CostModel;

const P: usize = 4;
const STRIPE_WIDTH: usize = 64;
const SEED: u64 = 17;

/// Per `K` (fixed widths and a generic one): the digest of Two-Face's `C`,
/// one-shot, prepared and streamed alike, and of Allgather's.
const GOLDEN: [(usize, u64, u64); 3] = [
    (8, 0x7fe7_30d9_0493_6822, 0xb250_3b52_b017_9c0f),
    (20, 0xffe3_d2eb_61e0_e79b, 0xac1b_be80_6773_9b53),
    (128, 0x5391_703f_a281_92bb, 0xb05e_f552_dfea_f16d),
];

fn source() -> RmatChunks {
    RmatChunks::new(&RmatConfig { scale: 10, edge_factor: 8, ..Default::default() }, SEED)
}

/// The digest of `c`'s shape and the bits of every element, row-major.
fn digest(c: &DenseMatrix) -> u64 {
    let mut f = Fingerprint::new();
    f.mix_usize(c.rows()).mix_usize(c.cols());
    for &x in c.as_slice() {
        f.mix_f64(x);
    }
    f.finish()
}

#[test]
fn c_matches_its_committed_digest_on_every_path() {
    let cost = CostModel::delta_scaled();
    let a = Arc::new(assemble(&mut source()));
    for (k, twoface, allgather) in GOLDEN {
        let problem =
            Problem::with_generated_b(Arc::clone(&a), k, P, STRIPE_WIDTH).expect("feasible");
        let run = |algorithm, options: &RunOptions| {
            let report = run_algorithm(algorithm, &problem, &cost, options).expect("runs");
            digest(report.output.as_ref().expect("computes values"))
        };
        let prepared =
            PreparedMatrix::build(&problem, &cost, &RunOptions::default()).expect("builds");
        let with_artifact = RunOptions { prepared: Some(Arc::new(prepared)), ..Default::default() };
        let streamed = run_twoface_streamed(
            &mut source(),
            k,
            P,
            STRIPE_WIDTH,
            &cost,
            &StreamOptions::default(),
        )
        .expect("fits");
        let paths = [
            ("one-shot Two-Face", run(Algorithm::TwoFace, &RunOptions::default()), twoface),
            ("prepared Two-Face", run(Algorithm::TwoFace, &with_artifact), twoface),
            ("streamed Two-Face", digest(streamed.report.output.as_ref().expect("C")), twoface),
            ("Allgather", run(Algorithm::Allgather, &RunOptions::default()), allgather),
        ];
        for (path, got, want) in paths {
            assert_eq!(got, want, "{path} at K = {k}: C digests to {got:#018x}, not {want:#018x}");
        }
    }
}
