//! Cross-crate consistency of the trace-driven path: a logged run of
//! the real stencil executor, replayed as its plan's programs with
//! measured compute, has the *structure* the program builders generate
//! directly from the tiling — the two independent routes to a `ProcNB`
//! program must agree on every message (count, destination, bytes),
//! differing only in compute durations (measured vs modeled).

use cluster_sim::program::{Op, Program, ReqId};
use overlap_tiling::prelude::*;
use stencil::proto::{tag, DIR_I};

/// Run the paper kernel over `d` under `mode` on a thread world with
/// every rank logged; the result grid and the replayed programs.
fn replay(d: Decomp3D, mode: ExecMode) -> (Grid3D, Vec<Program>) {
    let plan = Compiled3D::compile(d, mode).expect("valid decomposition");
    let cfg = WorldConfig::new(LatencyModel::zero());
    let logged = |comm: &ThreadComm<f32>| PhaseLog::new(comm.rank(), comm.epoch());
    let (grid, _, logs, _) =
        run3d_observed_with(Paper3D, &plan, &cfg, logged).expect("a fault-free world");
    let programs = replay_programs(&plan, &logs).expect("a compute phase per tile");
    (grid, programs)
}

/// The multiset of communication ops (kind, peer, bytes), sorted. The
/// executor and the builder may order the two sends *within* one step
/// differently (i-face first vs sorted processor offsets) — semantically
/// equivalent — so the comparison is order-insensitive but exact on
/// counts, peers and payload sizes.
fn comm_signature(p: &Program) -> Vec<String> {
    let mut sig: Vec<String> = p
        .ops()
        .filter_map(|op| match op {
            Op::Send { to, bytes, .. } => Some(format!("S{to}:{bytes}")),
            Op::Recv { from, bytes, .. } => Some(format!("R{from}:{bytes}")),
            Op::Isend { to, bytes, .. } => Some(format!("IS{to}:{bytes}")),
            Op::Irecv { from, bytes, .. } => Some(format!("IR{from}:{bytes}")),
            _ => None,
        })
        .collect();
    sig.sort();
    sig
}

fn setup() -> (Decomp3D, ClusterProblem) {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 64,
        pi: 2,
        pj: 2,
        v: 16,
        boundary: 1.0,
    };
    let problem = ClusterProblem::new(
        Tiling::rectangular(&[2, 2, 16]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[4, 4, 64]),
        2,
    )
    .unwrap();
    (d, problem)
}

#[test]
fn recorded_blocking_matches_builder_structure() {
    let (d, problem) = setup();
    let machine = MachineParams::paper_cluster();
    let (_, recorded) = replay(d, ExecMode::Blocking);
    let built = problem.blocking_programs(&machine);
    for rank in 0..4 {
        assert_eq!(
            comm_signature(&recorded[rank]),
            comm_signature(&built[rank]),
            "rank {rank}"
        );
    }
}

#[test]
fn recorded_overlap_matches_builder_structure() {
    let (d, problem) = setup();
    let machine = MachineParams::paper_cluster();
    let (_, recorded) = replay(d, ExecMode::Overlapping);
    let built = problem.overlapping_programs(&machine);
    for rank in 0..4 {
        assert_eq!(
            comm_signature(&recorded[rank]),
            comm_signature(&built[rank]),
            "rank {rank}"
        );
    }
}

/// The communication ops of a replayed program, in program order.
/// `Compute` segments carry measured durations and are left out.
fn comm_ops(p: &Program) -> Vec<Op> {
    let is_comm = |op: &Op| !matches!(op, Op::Compute { .. });
    p.ops().filter(is_comm).collect()
}

#[test]
fn recorder_pins_the_engines_op_list_for_two_ranks() {
    // Two ranks along i, two steps, an 8-element (32-byte) i-face per
    // step: small enough to write every op down. The replay must keep
    // exactly the ops the engine ran — kind, order, peer, tag, bytes
    // and which request each wait completes.
    let d = Decomp3D {
        nx: 4,
        ny: 2,
        nz: 8,
        pi: 2,
        pj: 1,
        v: 4,
        boundary: 1.0,
    };
    let (t0, t1) = (tag(0, DIR_I), tag(1, DIR_I));
    let (r0, r1) = (ReqId(0), ReqId(1));
    let bytes = 32;

    let (_, overlap) = replay(d, ExecMode::Overlapping);
    let isend = |tag, req| Op::Isend {
        to: 1,
        tag,
        bytes,
        req,
    };
    let irecv = |tag, req| Op::Irecv {
        from: 0,
        tag,
        bytes,
        req,
    };
    let wait = |req| Op::Wait { req };
    assert_eq!(
        comm_ops(&overlap[0]),
        [isend(t0, r0), wait(r0), isend(t1, r1), wait(r1)]
    );
    assert_eq!(
        comm_ops(&overlap[1]),
        [irecv(t0, r0), irecv(t1, r1), wait(r0), wait(r1)]
    );

    let (_, blocking) = replay(d, ExecMode::Blocking);
    let send = |tag| Op::Send { to: 1, tag, bytes };
    let recv = |tag| Op::Recv {
        from: 0,
        tag,
        bytes,
    };
    assert_eq!(comm_ops(&blocking[0]), [send(t0), send(t1)]);
    assert_eq!(comm_ops(&blocking[1]), [recv(t0), recv(t1)]);
}

#[test]
fn recorded_programs_simulate_with_overlap_advantage() {
    // With compute durations replaced by the paper's t_c (modeled), the
    // recorded structure must show the same overlap-wins behaviour as
    // the built programs. Here we keep measured compute and check both
    // replays complete and rank deterministically.
    let (d, _) = setup();
    let (_, blocking) = replay(d, ExecMode::Blocking);
    let (_, overlap) = replay(d, ExecMode::Overlapping);
    let machine = MachineParams::paper_cluster();
    let cfg = SimConfig::new(machine).with_trace(false);
    let b = simulate(cfg, blocking).unwrap();
    let o = simulate(cfg, overlap).unwrap();
    // On this tiny instance with measured (modern, tiny) compute the
    // communication dominates; overlap must still not lose.
    assert!(
        o.makespan.as_us() <= b.makespan.as_us() * 1.02,
        "overlap {} vs blocking {}",
        o.makespan,
        b.makespan
    );
}

#[test]
fn recorded_executor_output_is_correct() {
    let (d, _) = setup();
    let (grid, _) = replay(d, ExecMode::Overlapping);
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    let bits = |g: &Grid3D| g.cells().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(&grid), bits(&seq));
}
