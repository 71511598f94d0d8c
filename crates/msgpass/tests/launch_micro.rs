//! Ignored-by-default microbenchmark of a world's launch path:
//! `cargo test -p msgpass --release --test launch_micro -- --ignored --nocapture`.
//! `ci.sh` runs it for one same-process ratio: an empty-body run of a
//! kept 2-rank world, whose rank 1 is already resident, must cost at
//! most a quarter of an empty-body `run_threads_with` of the same size,
//! which builds a world, starts its thread and joins it. A launch path
//! that spawns per run again reads ≈ 1 and fails.

use msgpass::thread_backend::{build_world_with, run_threads_with, run_world};
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use std::time::Instant;

/// Median of `reps` timings of `op`, in µs.
fn median_us(reps: usize, mut op: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[reps / 2]
}

#[test]
#[ignore]
fn a_kept_world_launches_without_spawning() {
    let cfg = WorldConfig::new(LatencyModel::zero());
    let mut world = build_world_with::<f32>(2, &cfg);
    let kept = median_us(1000, || drop(run_world(&mut world, false, |_| ())));
    let fresh = median_us(300, || drop(run_threads_with::<f32, _, _>(2, &cfg, |_| ())));
    let ratio = kept / fresh;
    println!("empty 2-rank run: kept {kept:.2} µs, fresh {fresh:.2} µs, ratio {ratio:.3}");
    assert!(
        ratio <= 0.25,
        "a kept world's run costs {ratio:.3} × a fresh one's"
    );
}
