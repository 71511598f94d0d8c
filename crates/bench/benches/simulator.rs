//! Criterion benchmarks of the discrete-event engine itself: program
//! construction (`build_programs/*`) and event throughput on
//! pipeline-shaped programs (`simulate/*`), same problem on both sides
//! so the two halves of a sweep point can be read against each other.

use cluster_sim::builders::ClusterProblem;
use cluster_sim::engine::{simulate, SimConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tiling_core::prelude::*;

fn mini_problem(steps: i64) -> ClusterProblem {
    ClusterProblem::new(
        Tiling::rectangular(&[4, 4, 16]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[16, 16, 16 * steps]),
        2,
    )
    .expect("valid layout")
}

fn bench_builders(c: &mut Criterion) {
    let machine = MachineParams::paper_cluster();
    let p = mini_problem(64);
    c.bench_function("build_programs/blocking_16r_64steps", |b| {
        b.iter(|| black_box(p.blocking_programs(&machine)))
    });
    c.bench_function("build_programs/overlap_16r_64steps", |b| {
        b.iter(|| black_box(p.overlapping_programs(&machine)))
    });
}

fn bench_engine(c: &mut Criterion) {
    let machine = MachineParams::paper_cluster();
    let cfg = SimConfig::new(machine).with_trace(false);
    let p = mini_problem(64);
    let blocking = p.blocking_programs(&machine);
    let overlap = p.overlapping_programs(&machine);
    c.bench_function("simulate/blocking_16r_64steps", |b| {
        b.iter(|| black_box(simulate(cfg, blocking.clone()).unwrap().makespan))
    });
    c.bench_function("simulate/overlap_16r_64steps", |b| {
        b.iter(|| black_box(simulate(cfg, overlap.clone()).unwrap().makespan))
    });
    // Trace recording overhead.
    let cfg_tr = SimConfig::new(machine).with_trace(true);
    c.bench_function("simulate/overlap_with_trace", |b| {
        b.iter(|| black_box(simulate(cfg_tr, overlap.clone()).unwrap().makespan))
    });
}

criterion_group!(benches, bench_builders, bench_engine);
criterion_main!(benches);
