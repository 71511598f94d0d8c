//! Trace-driven prediction: run the real distributed kernel once on
//! this machine with every rank's phases logged, and replay the plan's programs
//! — each tile priced at its *measured* compute time — through the
//! cluster simulator under the paper's 2001 machine model.
//!
//! ```sh
//! cargo run --release --example trace_driven
//! ```
//!
//! This answers "what would *my actual code* cost on that cluster?"
//! without owning the cluster: computation comes from measurement,
//! communication from the calibrated model. The same logs replay
//! under any `MachineParams` — swap in a faster network and re-predict.

use overlap_tiling::prelude::*;

fn main() {
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 2048,
        pi: 2,
        pj: 2,
        v: 128,
        boundary: 1.0,
    };
    println!(
        "tracing real execution: {}×{}×{} on {}×{} ranks, V = {}\n",
        d.nx, d.ny, d.nz, d.pi, d.pj, d.v
    );

    // Run both schedules on a thread world, every rank logged, and price
    // each plan's programs with the measured tile times.
    let cfg = WorldConfig::new(LatencyModel::zero());
    let logged = |comm: &ThreadComm<f32>| PhaseLog::new(comm.rank(), comm.epoch());
    let replay = |mode| {
        let plan = Compiled3D::compile(d, mode).expect("valid decomposition");
        let (grid, _, logs, _) =
            run3d_observed_with(Paper3D, &plan, &cfg, logged).expect("a fault-free world");
        let programs = replay_programs(&plan, &logs).expect("a compute phase per tile");
        (grid, programs)
    };
    let (grid_b, progs_blocking) = replay(ExecMode::Blocking);
    let (grid_o, progs_overlap) = replay(ExecMode::Overlapping);

    // The logged runs produced real, correct data: every cell of either
    // schedule's grid is the sequential reference's.
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    let correct = [&grid_b, &grid_o].iter().all(|g| **g == seq);
    println!("traced executions match the sequential reference cell for cell: {correct}");
    let ops: usize = progs_overlap.iter().map(|p| p.len()).sum();
    println!(
        "replaying {} simulator ops across {} ranks\n",
        ops,
        d.pi * d.pj
    );

    // Replay under the paper's cluster and under a 10× faster network.
    for (label, machine) in [
        ("paper 2001 cluster", MachineParams::paper_cluster()),
        (
            "10× faster network",
            MachineParams::paper_cluster().scale_communication(0.1),
        ),
    ] {
        let cfg = SimConfig::new(machine).with_trace(false);
        let b = simulate(cfg, progs_blocking.clone()).expect("no deadlock");
        let o = simulate(cfg, progs_overlap.clone()).expect("no deadlock");
        println!(
            "{label:>20}: blocking {:.4} s, overlapping {:.4} s → overlap wins {:.0}%",
            b.makespan.as_secs(),
            o.makespan.as_secs(),
            (1.0 - o.makespan.as_us() / b.makespan.as_us()) * 100.0
        );
    }
    println!(
        "\n(compute segments are measured on this machine; communication is the model.\n\
         With a modern CPU's tiny t_c the 2001 network dominates — the overlap run is\n\
         communication-bound — so the *faster* network moves the balance back towards\n\
         the regime where overlapping hides a larger fraction: §4's case analysis, live.)"
    );
}
