//! **Figure 1** — the SYNAPSE/NCMIR domain map and its closure
//! operations.
//!
//! Series reproduced: map construction from DL axioms, resolution,
//! `dc(has_a)` (the paper's `has_a_star`) vs. materializing
//! `tc(has_a_star)` on growing anatomies — the paper's claim that the
//! materialization "would be wasteful" shows up as the widening gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kind_bench::closure_map;
use kind_dm::{figures, Resolved};
use std::hint::black_box;

fn bench_figure1(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_build");
    g.bench_function("figure1_from_axioms", |b| {
        b.iter(|| black_box(figures::figure1()))
    });
    let dm = figures::figure1();
    g.bench_function("resolve", |b| b.iter(|| black_box(Resolved::new(&dm))));
    let r = Resolved::new(&dm);
    g.bench_function("dc_has", |b| b.iter(|| black_box(r.dc_pairs("has"))));
    let pc = dm.lookup("Purkinje_Cell").unwrap();
    let py = dm.lookup("Pyramidal_Cell").unwrap();
    g.bench_function("lub", |b| b.iter(|| black_box(r.lub(&[pc, py]))));
    g.finish();
}

fn bench_closure_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_closures");
    for (depth, fanout) in [(3usize, 3usize), (4, 3), (5, 3)] {
        let dm = closure_map(depth, fanout);
        let r = Resolved::new(&dm);
        let n = dm.node_count();
        g.bench_with_input(BenchmarkId::new("dc_direct", n), &r, |b, r| {
            b.iter(|| black_box(r.dc_pairs("has_a").len()))
        });
        g.bench_with_input(BenchmarkId::new("tc_materialized", n), &r, |b, r| {
            b.iter(|| black_box(r.tc_of_dc("has_a").len()))
        });
        let root = dm.lookup("Nervous_System").unwrap();
        g.bench_with_input(BenchmarkId::new("downward_closure", n), &r, |b, r| {
            b.iter(|| black_box(r.downward_closure("has_a", root).len()))
        });
    }
    g.finish();
}

/// Warm (memoized) vs cold closure operations: a mediator asks for the
/// same ancestor cones and regions over and over across a query session,
/// so repeat cost is what §5 latency tracks.
fn bench_memoized_closures(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_warm");
    let dm = closure_map(5, 3);
    let root = dm.lookup("Nervous_System").unwrap();
    let warm = Resolved::new(&dm);
    // Prime the memo tables once; iterations then measure warm cost.
    warm.downward_closure("has_a", root);
    g.bench_function("downward_closure_warm", |b| {
        b.iter(|| black_box(warm.downward_closure("has_a", root).len()))
    });
    g.bench_function("downward_closure_cold", |b| {
        b.iter(|| {
            let r = Resolved::new(&dm);
            black_box(r.downward_closure("has_a", root).len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_figure1,
    bench_closure_scaling,
    bench_memoized_closures
);
criterion_main!(benches);
