//! Trace-driven prediction: run the real distributed kernel once on
//! this machine, record its communication and *measured* compute
//! segments, and replay the recorded programs through the cluster
//! simulator under the paper's 2001 machine model.
//!
//! ```sh
//! cargo run --release --example trace_driven
//! ```
//!
//! This answers "what would *my actual code* cost on that cluster?"
//! without owning the cluster: computation comes from measurement,
//! communication from the calibrated model. The same recording replays
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
        "recording real execution: {}×{}×{} on {}×{} ranks, V = {}\n",
        d.nx, d.ny, d.nz, d.pi, d.pj, d.v
    );

    // Record both schedules by running the *actual* executors
    // sequentially (rank order is a topological order of the wavefront).
    let record = |mode| {
        let plan = Compiled3D::compile(d, mode).expect("valid decomposition");
        record_sequential::<f32, _, _>(plan.ranks(), |comm| {
            let tier = KernelTier::Bitwise;
            try_run_rank3d_plan(comm, Paper3D, &plan, tier, &mut NoopObserver)
                .expect("the recorder never fails a receive")
        })
    };
    let (blocks_b, progs_blocking) = record(ExecMode::Blocking);
    let (blocks_o, progs_overlap) = record(ExecMode::Overlapping);

    // The recorded runs produced real, correct data: every cell of
    // either schedule's rank blocks (`(i·by + j)·nz + k`, ranks row-major
    // over the processor grid) is the sequential reference's.
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    let (bx, by) = (d.bx(), d.by());
    let correct = [&blocks_b, &blocks_o].iter().all(|blocks| {
        blocks.iter().enumerate().all(|(rank, block)| {
            let (ci, cj) = (rank / d.pj, rank % d.pj);
            block.chunks_exact(d.nz).enumerate().all(|(p, pencil)| {
                let (i, j) = ((ci * bx + p / by) as i64, (cj * by + p % by) as i64);
                (pencil.iter().enumerate()).all(|(k, &x)| x == seq.get(i, j, k as i64))
            })
        })
    });
    println!("recorded executions match the sequential reference cell for cell: {correct}");
    let ops: usize = progs_overlap.iter().map(|p| p.len()).sum();
    println!(
        "recorded {} simulator ops across {} ranks\n",
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
