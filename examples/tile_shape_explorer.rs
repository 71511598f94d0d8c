//! Explore tile shapes and sizes: communication volume per shape at a
//! fixed volume (the Boulet/Xue question, §2.4), and the completion-time
//! landscape over the tile height V of the tile schedule under both step
//! strategies (Blocking, eq. 3; Overlap, eq. 4).
//!
//! ```sh
//! cargo run --release --example tile_shape_explorer
//! ```

use overlap_tiling::prelude::*;
use tiling_core::optimize::{height_ladder, min_comm_rectangular_shape, rectangular_shapes};

fn main() {
    // Part 1: shape vs communication at fixed volume g = 64, for the
    // paper's 3-D unit dependences, mapped along dimension 2.
    let deps = DependenceSet::paper_3d();
    println!("shapes of volume 64 and their mapped communication (formula 2):");
    println!("{:>14} | V_comm", "shape");
    for shape in rectangular_shapes(64, 3) {
        // Only show a readable subset: shapes with no 1-sides except k.
        if shape[0] > 1 && shape[1] > 1 {
            let t = Tiling::rectangular(&shape);
            let c = v_comm_mapped(&t, &deps, 2);
            println!("{:>14} | {}", format!("{shape:?}"), c);
        }
    }
    let (shape, comm) = min_comm_rectangular_shape(64, &deps, 2).expect("some legal shape");
    println!("minimum-communication shape: {shape:?} with V_comm = {comm}\n");

    // Part 2: the V landscape of experiment i under the analytic models.
    let machine = MachineParams::paper_cluster();
    let space = IterationSpace::from_extents(&[16, 16, 16384]);
    let heights = height_ladder(4, 4096, 16);
    let points = sweep_tile_height(
        &space,
        &deps,
        &machine,
        &[4, 4],
        2,
        &heights,
        OverlapMode::Serialized,
    );
    println!("analytic completion time vs tile height (experiment i):");
    println!(
        "{:>6} {:>8} {:>14} {:>14}",
        "V", "g", "non-overlap(s)", "overlap(s)"
    );
    for p in &points {
        println!(
            "{:>6} {:>8} {:>14.4} {:>14.4}",
            p.v,
            p.g,
            p.total_us(StepStrategy::Blocking) * 1e-6,
            p.total_us(StepStrategy::Overlap) * 1e-6
        );
    }
    let [(bn_v, bn), (bo_v, bo)] = [StepStrategy::Blocking, StepStrategy::Overlap].map(|s| {
        let p = best(&points, s).expect("non-empty");
        (p.v, p.total_us(s))
    });
    println!("\nbest overlap:     V = {bo_v:>4}, T = {:.4} s", bo * 1e-6);
    println!("best non-overlap: V = {bn_v:>4}, T = {:.4} s", bn * 1e-6);
    println!("predicted improvement: {:.0}%", (1.0 - bo / bn) * 100.0);

    // Part 3: full shape search at fixed volume on Example 1 — the
    // total-time optimum beats the paper's square heuristic.
    let machine1 = MachineParams::example_1();
    let deps1 = DependenceSet::example_1();
    let space1 = IterationSpace::from_extents(&[10_000, 1_000]);
    let plan = best_rectangular_plan(&space1, &deps1, &machine1, 100, 0, OverlapMode::DuplexDma)
        .expect("feasible shapes");
    println!(
        "\nExample 1 shape search at g = 100: best shape {:?} → {:.4} s non-overlap \
         (the paper's 10×10 square gives 0.4000 s)",
        plan.sides,
        plan.total_us(StepStrategy::Blocking) * 1e-6
    );
}
