//! Ignored-by-default microbenchmarks of the wave kernel paths:
//! `cargo test -p stencil --release --test wave_micro -- --ignored --nocapture`.
//! `ci.sh` runs them for the four assertions in here — a wave must beat
//! the pencil loop it replaces, a small tile may cost only so much more
//! per cell than a large one, the verifier must stay well under the
//! naive sequential loop it replays and the cell-by-cell check well
//! under the verifier — same-process ratios that hold on a noisy box;
//! the absolute rates are the repo benchmark's
//! `stencil.tile.cells_per_s.*` probes.

use std::time::Instant;
use stencil::kernel::{Kernel3D, Paper3D, Wave, MAX_WAVE};
use stencil::seq::{follows_recurrence, max_abs_diff_from_seq3d, run_seq3d};

/// ns/cell of `m` pencils of `len` cells through `eval_wave` or through
/// one `eval_pencil` each, fastest of 20 timed batches.
fn bench(m: usize, len: usize, wave_mode: bool) -> f64 {
    let src: Vec<Vec<f32>> = (0..m)
        .map(|n| {
            (0..len)
                .map(|z| 1.0 + ((n * 7 + z) % 13) as f32 * 0.1)
                .collect()
        })
        .collect();
    let mut rows: Vec<Vec<f32>> = vec![vec![0.0; len]; m];
    let k = Paper3D;
    let reps = 200_000 / (m * len);
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let t0 = Instant::now();
        for _ in 0..reps {
            if wave_mode {
                let mut wave = Wave::new();
                for (n, row) in rows.iter_mut().enumerate() {
                    wave.push(
                        1 + n as i64,
                        1,
                        1,
                        &src[n],
                        &src[(n + 1) % m],
                        1.5,
                        1.5,
                        row,
                    );
                }
                k.eval_wave(&mut wave);
            } else {
                for (n, row) in rows.iter_mut().enumerate() {
                    k.eval_pencil(
                        1 + n as i64,
                        1,
                        1,
                        &src[n],
                        &src[(n + 1) % m],
                        1.5,
                        1.5,
                        row,
                    );
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert!(rows[0][len / 2].is_finite());
    best * 1e9 / (m * len * reps) as f64
}

#[test]
#[ignore]
fn single_rank_tile_micro() {
    use msgpass::thread_backend::{LatencyModel, WorldConfig};
    use stencil::dist3d::{run_dist3d_with, Decomp3D, ExecMode};
    for &(nx, nz) in &[
        (4usize, 4096usize),
        (4, 4096 + 64),
        (4, 4096 + 16),
        (8, 4096),
        (8, 4096 + 16),
    ] {
        let d = Decomp3D {
            nx,
            ny: nx,
            nz,
            pi: 1,
            pj: 1,
            v: 256,
            boundary: 1.0,
        };
        let cfg = WorldConfig::new(LatencyModel::zero()).without_preflight();
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            let (g, _, _) = run_dist3d_with(Paper3D, d, &cfg, ExecMode::Overlapping).unwrap();
            let secs = t0.elapsed().as_secs_f64();
            assert!(g.data()[1].is_finite());
            best = best.min(secs);
        }
        let cells = (nx * nx * nz) as f64;
        println!(
            "single-rank {nx}x{nx}x{nz}: {:6.2} ns/cell (best of 5)",
            best * 1e9 / cells
        );
    }
}

/// The tile walk with the arithmetic taken out: what a tile costs
/// before its first cell.
#[derive(Clone, Copy)]
struct CarveOnly;

impl Kernel3D for CarveOnly {
    fn eval(&self, _: i64, _: i64, _: i64, _: f32, _: f32, _: f32, _: f32) -> f32 {
        0.0
    }

    fn eval_wave(&self, _: &mut Wave<'_>) {}
}

/// µs per tile of one rank's `fine-grain` share (4×8×16384, a 1×1
/// world, so no message is sent) at tile height `v`: the parallel
/// region of the fastest of 15 runs on a warm world.
fn tile_us<K: Kernel3D>(kernel: K, v: usize) -> f64 {
    use msgpass::thread_backend::{build_world_with, LatencyModel, WorldConfig};
    use stencil::dist3d::{Decomp3D, ExecMode};
    use stencil::kernel::KernelTier;
    use stencil::plan::{run3d_on_world, Compiled3D};
    let d = Decomp3D {
        nx: 4,
        ny: 8,
        nz: 16384,
        pi: 1,
        pj: 1,
        v,
        boundary: 1.0,
    };
    let plan = Compiled3D::compile_unchecked(d, ExecMode::Overlapping).unwrap();
    let mut world = build_world_with::<f32>(1, &WorldConfig::new(LatencyModel::zero()));
    let run = |_| {
        let (g, elapsed, _) =
            run3d_on_world(kernel, &plan, KernelTier::Bitwise, &mut world).unwrap();
        assert!(g.data()[1].is_finite());
        elapsed.as_secs_f64()
    };
    let best = (0..15).map(run).fold(f64::INFINITY, f64::min);
    best * 1e6 / d.steps() as f64
}

#[test]
#[ignore]
fn small_tile_micro() {
    println!(
        "4x8x16384 share, 1x1 world:   V  paper3d us/tile  ns/cell  carve-only us/tile  ns/cell"
    );
    let mut ns_per_cell = Vec::new();
    for v in [8usize, 16, 32, 64, 256] {
        let (full, carve) = (tile_us(Paper3D, v), tile_us(CarveOnly, v));
        let per_cell = |us: f64| us * 1e3 / (4 * 8 * v) as f64;
        println!(
            "{v:32} {full:16.2} {:8.2} {carve:19.2} {:8.2}",
            per_cell(full),
            per_cell(carve)
        );
        ns_per_cell.push(per_cell(full));
    }
    let (small, large) = (ns_per_cell[0], ns_per_cell[4]);
    assert!(
        small <= 3.0 * large,
        "a V = 8 tile costs {small:.2} ns/cell, over 3.0 x the {large:.2} of V = 256"
    );
}

#[test]
#[ignore]
fn wave_vs_pencil_micro() {
    println!("paper3d, 64-cell pencils, ns/cell:   m  pencil    wave");
    let mut at_max = (0.0, 0.0);
    for m in [1usize, 2, 3, 4, 5, 8, 12, MAX_WAVE] {
        at_max = (bench(m, 64, false), bench(m, 64, true));
        println!("{m:38} {:7.2} {:7.2}", at_max.0, at_max.1);
    }
    for len in [32usize, 128, 256] {
        println!("eval_wave m= 8 len={len:3}: {:6.2}", bench(8, len, true));
    }
    let (pencil, wave) = at_max;
    assert!(
        wave < pencil,
        "eval_wave at m = {MAX_WAVE} ran {wave:.2} ns/cell, {MAX_WAVE} x eval_pencil {pencil:.2}"
    );
}

/// ns/cell of `follows_recurrence` and of `max_abs_diff_from_seq3d`
/// certifying a correct Paper3D grid, and of the naive `run_seq3d`
/// that made it, fastest of 7 each.
fn check_verify_and_naive_ns(nx: usize, ny: usize, nz: usize) -> [f64; 3] {
    let cells = (nx * ny * nz) as f64;
    let fastest = |run: &mut dyn FnMut()| {
        let time = |_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        };
        (0..7).map(time).fold(f64::INFINITY, f64::min) * 1e9 / cells
    };
    let mut reference = None;
    let naive = fastest(&mut || reference = Some(run_seq3d(Paper3D, nx, ny, nz, 1.0)));
    let grid = reference.unwrap();
    let verify = fastest(&mut || assert_eq!(max_abs_diff_from_seq3d(Paper3D, &grid), 0.0));
    let check = fastest(&mut || assert!(follows_recurrence(Paper3D, &grid)));
    [check, verify, naive]
}

#[test]
#[ignore]
fn verify_vs_naive_micro() {
    println!("paper3d, ns/cell:          shape   check  verify   naive  c/v  v/n");
    for (name, (nx, ny, nz)) in [
        ("compute-bound", (16, 16, 8192)),
        ("fine-grain", (8, 8, 16384)),
    ] {
        let [check, verify, naive] = check_verify_and_naive_ns(nx, ny, nz);
        let (by_cell, ratio) = (check / verify, verify / naive);
        println!("{name:>31} {check:7.2} {verify:7.2} {naive:7.2} {by_cell:4.2} {ratio:4.2}");
        assert!(
            ratio <= 0.4,
            "{name}: the verifier ran {verify:.2} ns/cell, {ratio:.2} x the naive loop's {naive:.2}"
        );
        assert!(
            by_cell <= 0.7,
            "{name}: the cell-by-cell check ran {check:.2} ns/cell, {by_cell:.2} x the verifier's {verify:.2}"
        );
    }
}
