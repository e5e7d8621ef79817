//! Criterion benchmarks for the preprocessing pipeline: per-node and
//! all-node profiling, stripe classification, and full plan construction.
//!
//! Preprocessing cost is the subject of Table 6; these benchmarks expose
//! where it goes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use twoface_matrix::gen::{rmat, RmatConfig};
use twoface_partition::{
    classify_node, profile_all_nodes, ModelCoefficients, NodeProfile, OneDimLayout, PartitionPlan,
    PlanOptions,
};

fn bench_preprocessing(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("preprocessing");
    group.sample_size(20);
    for scale in [12u32, 14] {
        let a = rmat(&RmatConfig { scale, edge_factor: 8, ..Default::default() }, 3);
        let n = a.rows();
        let layout = OneDimLayout::new(n, n, 8, n / 256);
        let coeffs = ModelCoefficients::table3();
        group.throughput(Throughput::Elements(a.nnz() as u64));

        group.bench_with_input(BenchmarkId::new("profile_node", n), &a, |bench, a| {
            bench.iter(|| NodeProfile::build(black_box(a), &layout, 0));
        });

        // Every rank's profile at the one-shot benchmark's node count: the
        // total must stay one walk of the matrix, not one per rank.
        let layout32 = OneDimLayout::new(n, n, 32, n / 256);
        group.bench_with_input(BenchmarkId::new("profile_all_nodes_p32", n), &a, |bench, a| {
            bench.iter(|| profile_all_nodes(black_box(a), &layout32));
        });

        let profile = NodeProfile::build(&a, &layout, 0);
        group.bench_with_input(BenchmarkId::new("classify_node", n), &profile, |bench, p| {
            bench.iter(|| classify_node(black_box(p), &layout, &coeffs, 128));
        });

        group.bench_with_input(BenchmarkId::new("full_plan", n), &a, |bench, a| {
            bench.iter(|| {
                PartitionPlan::build(
                    black_box(a),
                    layout.clone(),
                    &coeffs,
                    128,
                    PlanOptions::default(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_preprocessing);
criterion_main!(benches);
