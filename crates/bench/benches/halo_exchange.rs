//! Micro-benchmark of one halo exchange in isolation:
//! pack → send → recv → unpack, without any tile computation.
//!
//! Runs on a single-rank world sending to itself (the transport path —
//! channel, latency bookkeeping, buffer pool — is identical to the
//! neighbor case): row-chunked `stencil::halo` copies on either side of
//! `send_from`/`recv_into`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use msgpass::comm::Communicator;
use msgpass::thread_backend::{run_threads, LatencyModel};
use std::time::{Duration, Instant};
use stencil::dist3d::Decomp3D;
use stencil::halo::{pack_rows, unpack_rows};

/// Exchange geometry: the i-face of an 8×16×4096 block at V = 256.
const BX: usize = 8;
const BY: usize = 16;
const NZ: usize = 4096;
const V: usize = 256;

fn decomp() -> Decomp3D {
    Decomp3D {
        nx: BX,
        ny: BY,
        nz: NZ,
        pi: 1,
        pj: 1,
        v: V,
        boundary: 0.0,
    }
}

/// Time `iters` exchanges inside a one-rank world.
fn chunked_exchanges(iters: u64) -> Duration {
    let d = decomp();
    let (mut times, _) =
        run_threads::<f32, Duration, _>(1, LatencyModel::zero(), move |mut comm| {
            let block: Vec<f32> = (0..BX * BY * NZ).map(|x| x as f32).collect();
            let mut halo = vec![0.0f32; BY * NZ];
            let mut face = vec![0.0f32; BY * V];
            let mut recv = vec![0.0f32; BY * V];
            let base = (BX - 1) * BY * NZ;
            let start = Instant::now();
            for it in 0..iters {
                let k = (it as usize) % d.steps();
                let k0 = k * V;
                pack_rows(&block, base, NZ, k0, V, &mut face);
                comm.send_from(0, it, &face);
                comm.recv_into(0, it, &mut recv);
                unpack_rows(&recv, &mut halo, 0, NZ, k0, V);
                black_box(halo[k0]);
            }
            start.elapsed()
        });
    times.pop().expect("one rank")
}

fn bench_halo_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("halo_exchange");
    group.throughput(Throughput::Bytes(
        (BY * V * std::mem::size_of::<f32>()) as u64,
    ));
    group.bench_function("chunked_pooled", |b| b.iter_custom(chunked_exchanges));
    group.finish();
}

criterion_group!(benches, bench_halo_exchange);
criterion_main!(benches);
