//! Table 4: the SpMM algorithms under comparison and their MPI transfer
//! operations.

#![forbid(unsafe_code)]

use serde::Serialize;
use twoface_bench::{banner, write_json};
use twoface_core::Algorithm;

#[derive(Serialize)]
struct Row {
    name: String,
    mpi_operations: &'static str,
    uses_plan: bool,
}

fn main() {
    banner(
        "Table 4: SpMM algorithms being compared",
        "All algorithms use 1D partitioning; they differ in how B moves.",
    );
    let algorithms = [
        Algorithm::DenseShifting { replication: 2 },
        Algorithm::OneFiveD { replication: 4 },
        Algorithm::Summa,
        Algorithm::Slicing,
        Algorithm::Allgather,
        Algorithm::AsyncCoarse,
        Algorithm::TwoFace,
        Algorithm::AsyncFine,
        Algorithm::Auto,
    ];
    println!("{:<24} {:<28} {:>10}", "Algorithm", "MPI Transfer Operations", "Uses plan");
    let mut out = Vec::new();
    for a in algorithms {
        let row =
            Row { name: a.name(), mpi_operations: a.mpi_operations(), uses_plan: a.uses_plan() };
        println!("{:<24} {:<28} {:>10}", row.name, row.mpi_operations, row.uses_plan);
        out.push(row);
    }
    write_json("table4_algorithms", &out);
}
