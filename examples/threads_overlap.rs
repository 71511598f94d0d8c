//! Real overlap, measured: run the paper's 3-D kernel on OS threads
//! with injected wire latency, both schedules, and verify the results
//! bit-for-bit against the sequential sweep.
//!
//! ```sh
//! cargo run --release --example threads_overlap
//! ```
//!
//! The threaded `msgpass` backend stamps every message at send time and
//! releases it to the receiver only after `t_s + b·t_t` has elapsed —
//! so a rank that computes while its neighbors' faces are "on the wire"
//! genuinely hides that latency in wall-clock time, which is the
//! physical effect the paper exploits.

use overlap_tiling::prelude::*;

fn main() {
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 4096,
        pi: 2,
        pj: 2,
        v: 256,
        boundary: 1.0,
    };
    let lat = LatencyModel {
        startup_us: 400.0,
        per_byte_us: 0.05,
    };
    println!(
        "space {}×{}×{} on {}×{} threads, tile height V = {}, {} steps",
        d.nx,
        d.ny,
        d.nz,
        d.pi,
        d.pj,
        d.v,
        d.steps()
    );
    println!(
        "injected wire latency: {} µs + {} µs/B\n",
        lat.startup_us, lat.per_byte_us
    );

    let seq_start = std::time::Instant::now();
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    println!(
        "sequential reference: {:.3} s",
        seq_start.elapsed().as_secs_f64()
    );

    let cfg = WorldConfig::new(lat);
    let (g_block, t_block, _) =
        run_dist3d_with(Paper3D, d, &cfg, ExecMode::Blocking).expect("valid decomposition");
    println!(
        "blocking  (ProcB):    {:.3} s   bitwise-correct: {}",
        t_block.as_secs_f64(),
        g_block.max_abs_diff(&seq) == 0.0
    );

    let (g_over, t_over, _) =
        run_dist3d_with(Paper3D, d, &cfg, ExecMode::Overlapping).expect("valid decomposition");
    println!(
        "overlap   (ProcNB):   {:.3} s   bitwise-correct: {}",
        t_over.as_secs_f64(),
        g_over.max_abs_diff(&seq) == 0.0
    );
    println!(
        "\nmeasured improvement: {:.0}%",
        (1.0 - t_over.as_secs_f64() / t_block.as_secs_f64()) * 100.0
    );
}
