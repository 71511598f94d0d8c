//! Quickstart: tile a 2-D loop nest and compare the two schedules.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole pipeline of the paper on its own Example 1: model the
//! loop, extract dependences, pick a tiling, check legality, price the
//! communication, and predict completion time under the classical
//! non-overlapping schedule (§3) and the overlapping schedule (§4).

use overlap_tiling::prelude::*;

fn main() {
    // The loop of §3 Example 1:
    //   for i1 = 0..9999, i2 = 0..999:
    //     A[i1][i2] = A[i1-1][i2-1] + A[i1-1][i2] + A[i1][i2-1]
    let nest = LoopNest::example_1();
    let deps = nest.dependences().expect("lexicographically positive");
    println!("iteration space: {:?}", nest.space());
    println!("dependences:     {deps:?}\n");

    // Square 10×10 tiles (the paper's optimal choice for this machine).
    let tiling = Tiling::rectangular(&[10, 10]);
    println!(
        "tiling P = diag(10,10), g = {} points/tile",
        tiling.volume()
    );
    println!("legal (HD ≥ 0):          {}", tiling.is_legal(&deps));
    println!(
        "deps fit in one tile:    {}",
        tiling.contains_dependences(&deps)
    );

    // Communication pricing (§2.4).
    println!("V_comm all surfaces (1): {}", v_comm_total(&tiling, &deps));
    println!(
        "V_comm mapped on i1 (2): {}\n",
        v_comm_mapped(&tiling, &deps, 0)
    );

    // The machine of Example 1: t_c = 1 µs, t_s = 100 t_c, Ethernet.
    let machine = MachineParams::example_1();

    // One tile schedule, two step strategies: Blocking (§3, Π = (1,1),
    // a step costs A + B, eq. 3) and Overlap (§4, Π = (1,2), a step costs
    // max(A, B), eq. 4).
    let [no, ov] = [StepStrategy::Blocking, StepStrategy::Overlap].map(|strategy| {
        let schedule = TileSchedule::with_mapping(strategy, 2, 0);
        let r = schedule.analyze(&tiling, &deps, nest.space(), &machine, OverlapMode::DuplexDma);
        println!("{} schedule Π = {:?}:", strategy.name(), schedule.pi());
        println!("  P(g) = {} hyperplanes", r.schedule_length);
        println!(
            "  step = {:.0} µs from CPU lane A {:.0} (A1 {:.0} + A2 {:.0} + A3 {:.0}) and comm lane B {:.0}",
            r.step_us, r.a_us, r.a1_us, r.a2_us, r.a3_us, r.b_us
        );
        println!("  T    = {:.4} s\n", r.total_secs());
        r
    });
    println!(
        "overlap wins by {:.0}% — the paper's 0.4 s → 0.24 s result.",
        (1.0 - ov.total_us / no.total_us) * 100.0
    );
}
