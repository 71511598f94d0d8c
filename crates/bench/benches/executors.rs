//! Criterion benchmarks of the real threaded executors: blocking vs
//! overlapping wall-clock time on scaled-down instances of the paper's
//! workload, with injected wire latency.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use stencil::dist2d::{run_dist2d_with, Decomp2D};
use stencil::dist3d::{run_dist3d_with, try_run_rank3d_plan, Decomp3D, ExecMode};
use stencil::kernel::{Example1, Paper3D};

fn bench_dist3d(c: &mut Criterion) {
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 1024,
        pi: 2,
        pj: 2,
        v: 64,
        boundary: 1.0,
    };
    let cfg = WorldConfig::new(LatencyModel {
        startup_us: 200.0,
        per_byte_us: 0.02,
    });
    let run = |mode| run_dist3d_with(Paper3D, d, &cfg, mode).unwrap().1;
    let mut g = c.benchmark_group("dist3d_8x8x1024_4ranks");
    g.sample_size(10);
    g.bench_function("blocking", |b| {
        b.iter(|| black_box(run(ExecMode::Blocking)))
    });
    g.bench_function("overlapping", |b| {
        b.iter(|| black_box(run(ExecMode::Overlapping)))
    });
    g.finish();
}

fn bench_dist2d(c: &mut Criterion) {
    let d = Decomp2D {
        nx: 2048,
        ny: 16,
        ranks: 4,
        v: 128,
        boundary: 1.0,
    };
    let cfg = WorldConfig::new(LatencyModel {
        startup_us: 150.0,
        per_byte_us: 0.02,
    });
    let run = |mode| run_dist2d_with(Example1, d, &cfg, mode).unwrap().1;
    let mut g = c.benchmark_group("dist2d_2048x16_4ranks");
    g.sample_size(10);
    g.bench_function("blocking", |b| {
        b.iter(|| black_box(run(ExecMode::Blocking)))
    });
    g.bench_function("overlapping", |b| {
        b.iter(|| black_box(run(ExecMode::Overlapping)))
    });
    g.finish();
}

fn bench_recording(c: &mut Criterion) {
    use msgpass::recording::record_sequential;
    use stencil::engine::NoopObserver;
    use stencil::kernel::KernelTier;
    use stencil::plan::Compiled3D;
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 256,
        pi: 2,
        pj: 2,
        v: 32,
        boundary: 1.0,
    };
    let plan = Compiled3D::compile(d, ExecMode::Overlapping).unwrap();
    let mut g = c.benchmark_group("trace_driven");
    g.sample_size(10);
    g.bench_function("record_4ranks_8steps", |b| {
        b.iter(|| {
            black_box(record_sequential::<f32, _, _>(4, |comm| {
                let tier = KernelTier::Bitwise;
                try_run_rank3d_plan(comm, Paper3D, &plan, tier, &mut NoopObserver)
            }))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dist3d, bench_dist2d, bench_recording);
criterion_main!(benches);
