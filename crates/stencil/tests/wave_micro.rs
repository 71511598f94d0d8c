//! Ignored-by-default microbenchmarks of the tile sweep's kernel paths:
//! `cargo test -p stencil --release --test wave_micro -- --ignored --nocapture`.
//! `ci.sh` runs them for the four assertions in here — lane blocks must
//! beat stepping the same rows one pencil at a time, a small tile may cost
//! only so much more per cell than a large one, the verifier must stay
//! well under the naive sequential loop it replays and the cell-by-cell
//! check well under the verifier — same-process ratios that hold on a
//! noisy box; the absolute rates are the repo benchmark's
//! `stencil.tile.cells_per_s.*` probes.

use std::time::Instant;
use stencil::kernel::{Kernel3D, LaneBlock, Paper3D, LANES};
use stencil::seq::{follows_recurrence, max_abs_diff_from_seq3d, run_seq3d};

/// ns/cell of `chains` Paper3D pencils of `len` cells in rows of
/// [`LANES`], each pencil reading the one before it in its row as its
/// `i−1` input (the first a fixed row of lifted values, as are every
/// pencil's `j−1` inputs): in [`LaneBlock`]s, lane `l` one cell behind
/// lane `l − 1` and every row of a block in flight together as in a
/// super-round, or one pencil at a time through `step` and `lift`.
/// Fastest of 20 batches.
fn chains_ns(chains: usize, len: usize, lanes: bool) -> f64 {
    let src: Vec<Vec<f32>> = (0..chains)
        .map(|n| {
            (0..len + LANES)
                .map(|z| 1.0 + ((n * 7 + z) % 13) as f32 * 0.1)
                .collect()
        })
        .collect();
    let mut rows: Vec<Vec<f32>> = vec![vec![0.0; len + LANES]; chains];
    let k = Paper3D;
    let (lift, step) = (
        |x| k.lift(x),
        |i, j, kz, a, c, d, s| k.step(i, j, kz, a, c, d, s),
    );
    let reps = 200_000 / (chains * len);
    let mut state = vec![[0.0f32; LANES]; chains / LANES];
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let t0 = Instant::now();
        for _ in 0..reps {
            if lanes {
                state.iter_mut().for_each(|s| *s = [k.lift(1.5); LANES]);
                for z0 in (0..len + LANES - 1).step_by(LANES) {
                    let groups = rows.chunks_exact_mut(LANES).zip(&mut state);
                    for (g, (outs, s)) in groups.enumerate() {
                        let mut blk = LaneBlock {
                            km1: *s,
                            diag: [1.5; LANES],
                            corner: src[g * LANES][z0..][..LANES].try_into().unwrap(),
                            ..LaneBlock::default()
                        };
                        for l in 0..LANES {
                            let n = g * LANES + l;
                            let c = &src[(n + 1) % chains][z0..];
                            (blk.i[l], blk.j[l], blk.k[l]) = (n as i64, 1, z0 as i64 - l as i64);
                            (0..LANES).for_each(|z| blk.jm1[z][l] = c[z]);
                        }
                        let (out, up) = match z0 {
                            0 => blk.run::<true>(lift, step),
                            _ => blk.run::<false>(lift, step),
                        };
                        *s = up[LANES - 1];
                        for (l, o) in outs.iter_mut().enumerate() {
                            (0..LANES).for_each(|z| o[z0 + z] = out[z][l]);
                        }
                    }
                }
            } else {
                for n in 0..chains {
                    let (done, row) = rows.split_at_mut(n);
                    let a = match n % LANES {
                        0 => &src[n][..],
                        _ => &done[n - 1][..],
                    };
                    let c = &src[(n + 1) % chains];
                    let (mut s, mut d) = (k.lift(1.5), 1.5);
                    for (z, o) in row[0].iter_mut().take(len).enumerate() {
                        *o = k.step(n as i64, 1, z as i64, a[z], c[z], d, s);
                        (s, d) = (k.lift(*o), c[z]);
                    }
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert!(rows[0][len / 2].is_finite());
    best * 1e9 / (chains * len * reps) as f64
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

/// The tile sweep with the arithmetic taken out: what a tile costs
/// besides its cells' steps — the rounds, the loads and the stores.
#[derive(Clone, Copy)]
struct CarveOnly;

impl Kernel3D for CarveOnly {
    fn eval(&self, _: i64, _: i64, _: i64, _: f32, _: f32, _: f32, _: f32) -> f32 {
        0.0
    }

    fn lift(&self, _: f32) -> f32 {
        0.0
    }

    fn step(&self, _: i64, _: i64, _: i64, _: f32, _: f32, _: f32, _: f32) -> f32 {
        0.0
    }
}

/// V values `small_tile_micro` compares.
const TILE_VS: [usize; 5] = [8, 16, 32, 64, 256];

/// µs per tile of one rank's `fine-grain` share (4×8×16384, a 1×1
/// world, so no message is sent) at every tile height of [`TILE_VS`],
/// with Paper3D and with [`CarveOnly`]: the parallel region of the
/// fastest of 40 runs on a warm world. The runs go round the heights
/// and kernels in turn, so a slow spell of the host is shared by all of
/// them rather than landing on one. A process that lands on the host's
/// fast state (every tile ~1.8 × quicker) needs the 40: fastest of 15
/// there read the V = 8 tile at 2.0–2.3 × the V = 256 one per cell,
/// where its floor is 1.87 ×.
fn tile_us() -> [[f64; 2]; 5] {
    use msgpass::thread_backend::{build_world_with, LatencyModel, WorldConfig};
    use stencil::dist3d::{Decomp3D, ExecMode};
    use stencil::kernel::KernelTier;
    use stencil::plan::{run3d_on_world, Compiled3D};
    let d = |v| Decomp3D {
        nx: 4,
        ny: 8,
        nz: 16384,
        pi: 1,
        pj: 1,
        v,
        boundary: 1.0,
    };
    let plans =
        TILE_VS.map(|v| Compiled3D::compile_unchecked(d(v), ExecMode::Overlapping).unwrap());
    let mut world = build_world_with::<f32>(1, &WorldConfig::new(LatencyModel::zero()));
    let mut best = [[f64::INFINITY; 2]; 5];
    for _ in 0..40 {
        for (plan, best) in plans.iter().zip(&mut best) {
            let secs = |(g, elapsed, _): (stencil::grid::Grid3D, std::time::Duration, _)| {
                assert!(g.data()[1].is_finite());
                elapsed.as_secs_f64()
            };
            let full = run3d_on_world(Paper3D, plan, KernelTier::Bitwise, &mut world);
            let carve = run3d_on_world(CarveOnly, plan, KernelTier::Bitwise, &mut world);
            let per_tile = |s: f64| s * 1e6 / plan.decomp().steps() as f64;
            best[0] = best[0].min(per_tile(secs(full.unwrap())));
            best[1] = best[1].min(per_tile(secs(carve.unwrap())));
        }
    }
    best
}

/// The block shapes of a 2-rank `compute-bound` share (8×16) and of
/// its 4×32 and 16×8 alternatives, whose tiles [`group_block_micro`]
/// prices per group-block.
const SHARES: [(usize, usize); 3] = [(8, 16), (4, 32), (16, 8)];

/// The linear cost model of a tile: ns per group-block (one
/// [`LaneBlock`], [`LANES`] steps of [`LANES`] lanes) of each of
/// [`SHARES`] at V = 256, 32 tiles on a warm 1×1 world, the fastest of
/// 40 runs, the shapes taken in turn. A block of `bx × by` sweeps
/// `⌈bx/4⌉ · by` row groups, each `⌈(V + 3)/4⌉` blocks a tile. Printed,
/// not gated.
#[test]
#[ignore]
fn group_block_micro() {
    use msgpass::thread_backend::{build_world_with, LatencyModel, WorldConfig};
    use stencil::dist3d::{Decomp3D, ExecMode};
    use stencil::kernel::KernelTier;
    use stencil::plan::{run3d_on_world, Compiled3D};
    let plans = SHARES.map(|(nx, ny)| {
        let (nz, v, boundary) = (32 * 256, 256, 1.0);
        let d = Decomp3D {
            nx,
            ny,
            nz,
            pi: 1,
            pj: 1,
            v,
            boundary,
        };
        Compiled3D::compile_unchecked(d, ExecMode::Overlapping).unwrap()
    });
    let mut world = build_world_with::<f32>(1, &WorldConfig::new(LatencyModel::zero()));
    let mut best = [f64::INFINITY; 3];
    for _ in 0..40 {
        for (plan, best) in plans.iter().zip(&mut best) {
            let run = run3d_on_world(Paper3D, plan, KernelTier::Bitwise, &mut world);
            let (g, elapsed, _) = run.unwrap();
            assert!(g.data()[1].is_finite());
            let per_tile = elapsed.as_secs_f64() * 1e6 / plan.decomp().steps() as f64;
            *best = best.min(per_tile);
        }
    }
    println!("paper3d, V = 256, 1x1 world:  share  groups  group-blocks  us/tile  ns/cell  ns/group-block");
    for ((bx, by), us) in SHARES.into_iter().zip(best) {
        let groups = bx.div_ceil(LANES) * by;
        let blocks = groups * (256 + LANES - 1).div_ceil(LANES);
        let ns_per_cell = us * 1e3 / (bx * by * 256) as f64;
        println!(
            "{:>37} {groups:7} {blocks:13} {us:8.2} {ns_per_cell:8.3} {:15.2}",
            format!("{bx}x{by}"),
            us * 1e3 / blocks as f64
        );
    }
}

#[test]
#[ignore]
fn small_tile_micro() {
    println!(
        "4x8x16384 share, 1x1 world:   V  paper3d us/tile  ns/cell  carve-only us/tile  ns/cell"
    );
    let mut ns_per_cell = Vec::new();
    for (v, [full, carve]) in TILE_VS.into_iter().zip(tile_us()) {
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
        small <= 2.0 * large,
        "a V = 8 tile costs {small:.2} ns/cell, over 2.0 x the {large:.2} of V = 256"
    );
}

#[test]
#[ignore]
fn lanes_vs_chain_micro() {
    println!("paper3d, rows of 4 pencils, ns/cell:  chains  len   chain   lanes");
    let mut fine_grain = (0.0, 0.0);
    for (chains, len) in [(4usize, 64usize), (8, 64), (32, 8), (32, 64), (128, 256)] {
        let (chain, lanes) = (chains_ns(chains, len, false), chains_ns(chains, len, true));
        println!("{chains:44} {len:4} {chain:7.2} {lanes:7.2}");
        if (chains, len) == (32, 64) {
            fine_grain = (chain, lanes);
        }
    }
    let (chain, lanes) = fine_grain;
    assert!(
        lanes < chain,
        "32 chains of 64 cells ran {lanes:.2} ns/cell in lane blocks, {chain:.2} one chain at a time"
    );
}

/// ns/cell of `follows_recurrence` and of `max_abs_diff_from_seq3d`
/// certifying a correct Paper3D grid — the one the naive `run_seq3d`
/// made (row-major) and a 2-rank run's of tile height `v` (in the
/// sweep's layout) — and of that naive loop, fastest of 7 each.
fn check_verify_and_naive_ns(nx: usize, ny: usize, nz: usize, v: usize) -> [[f64; 3]; 2] {
    use msgpass::thread_backend::{LatencyModel, WorldConfig};
    use stencil::dist3d::{run_dist3d_with, Decomp3D, ExecMode};
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
    let d = Decomp3D {
        nx,
        ny,
        nz,
        pi: 2,
        pj: 1,
        v,
        boundary: 1.0,
    };
    let cfg = WorldConfig::new(LatencyModel::zero());
    let (swept, _, _) = run_dist3d_with(Paper3D, d, &cfg, ExecMode::Overlapping).unwrap();
    [reference.unwrap(), swept].map(|grid| {
        let verify = fastest(&mut || assert_eq!(max_abs_diff_from_seq3d(Paper3D, &grid), 0.0));
        let check = fastest(&mut || assert!(follows_recurrence(Paper3D, &grid)));
        [check, verify, naive]
    })
}

#[test]
#[ignore]
fn verify_vs_naive_micro() {
    println!("paper3d, ns/cell:          shape    layout   check  verify   naive  c/v  v/n");
    for (name, (nx, ny, nz, v)) in [
        ("compute-bound", (16, 16, 8192, 256)),
        ("fine-grain", (8, 8, 16384, 8)),
    ] {
        let layouts = ["row-major", "swept"].iter();
        for (layout, [check, verify, naive]) in
            layouts.zip(check_verify_and_naive_ns(nx, ny, nz, v))
        {
            let (by_cell, ratio) = (check / verify, verify / naive);
            println!(
                "{name:>31} {layout:>9} {check:7.2} {verify:7.2} {naive:7.2} {by_cell:4.2} {ratio:4.2}"
            );
            assert!(
                ratio <= 0.4,
                "{name}, {layout}: the verifier ran {verify:.2} ns/cell, {ratio:.2} x the naive loop's {naive:.2}"
            );
            assert!(
                by_cell <= 0.7,
                "{name}, {layout}: the cell-by-cell check ran {check:.2} ns/cell, {by_cell:.2} x the verifier's {verify:.2}"
            );
        }
    }
}
