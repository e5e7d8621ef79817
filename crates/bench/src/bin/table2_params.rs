//! Table 2: the constant runtime parameters of Two-Face.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, write_json};
use twoface_core::TwoFaceConfig;

#[derive(Serialize)]
struct Params {
    async_comm_threads: usize,
    async_comp_threads: usize,
    sync_comp_threads: usize,
    row_panel_height: usize,
    coalesce_distance_k32: usize,
    coalesce_distance_k128: usize,
    coalesce_distance_k512: usize,
}

fn main() {
    banner(
        "Table 2: Constant runtime parameters used in Two-Face",
        "Thread counts scale the cost model (per-rank execution is serial and\n\
         deterministic in this reproduction); the coalescing rule is (127/K)+1.",
    );
    let c = TwoFaceConfig::default();
    let params = Params {
        async_comm_threads: c.async_comm_threads,
        async_comp_threads: c.async_comp_threads,
        sync_comp_threads: c.sync_comp_threads,
        row_panel_height: c.row_panel_height,
        coalesce_distance_k32: c.max_coalesce_distance(32),
        coalesce_distance_k128: c.max_coalesce_distance(128),
        coalesce_distance_k512: c.max_coalesce_distance(512),
    };
    println!("{:<52} {:>6}", "Async Communication Threads per Node", params.async_comm_threads);
    println!("{:<52} {:>6}", "Async Computation Threads per Node", params.async_comp_threads);
    println!(
        "{:<52} {:>6}",
        "Sync/Local-Input Computation Threads per Node", params.sync_comp_threads
    );
    println!("{:<52} {:>6}", "Row Panel Height (rows)", params.row_panel_height);
    println!(
        "{:<52} {:>6} / {} / {}",
        "Max Async Coalescing Distance (K=32/128/512)",
        params.coalesce_distance_k32,
        params.coalesce_distance_k128,
        params.coalesce_distance_k512,
    );
    write_json("table2_params", &params);
}
