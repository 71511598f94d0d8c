//! The engine's event order *realizes* the tiling-core schedules.
//!
//! Under the Overlap strategy, replaying each rank's recorded phase
//! sequence through a unit-cost logical clock (compute = 1 tick, a
//! posted face arrives 1 tick after its post, everything else free)
//! must start tile `(ci, cj, k)` exactly at the paper's eq. 4 time
//! `TileSchedule::time_of = 2·(ci + cj) + k` under Overlap — the engine's
//! post-receive / post-send / compute / wait interleaving *is* the
//! overlapping schedule, not merely something that computes the same
//! values. Under Blocking, every step must be the serialized
//! *receive → compute → send* triplet of eq. 3. Under both, a face is
//! packed only from the tile computed last.

use msgpass::comm::Communicator;
use msgpass::thread_backend::{run_threads, LatencyModel};
use msgpass::topology::CartesianGrid;
use std::collections::HashMap;
use stencil::dist3d::{try_run_rank3d_plan, Decomp3D, ExecMode};
use stencil::engine::{Phase, PhaseLog};
use stencil::kernel::{KernelTier, Paper3D};
use stencil::plan::Compiled3D;
use tiling_core::schedule::{StepStrategy, TileSchedule};
use tiling_core::space::IterationSpace;

/// Run the 3-D executor on the thread backend and collect each rank's
/// logged phase order (rank order).
fn phase_logs(d: Decomp3D, mode: ExecMode) -> Vec<Vec<Phase>> {
    let plan = Compiled3D::compile(d, mode).expect("valid decomposition");
    run_threads::<f32, _, _>(plan.ranks(), LatencyModel::zero(), |mut comm| {
        let mut log = PhaseLog::new(comm.rank(), comm.epoch());
        let tier = KernelTier::Bitwise;
        try_run_rank3d_plan(&mut comm, Paper3D, &plan, tier, &mut log).expect("fault-free world");
        log.phases.into_iter().map(|(phase, ..)| phase).collect()
    })
    .0
}

#[test]
fn overlap_phase_order_realizes_eq4_times() {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 26,
        pi: 2,
        pj: 2,
        v: 4, // 7 steps, partial last tile
        boundary: 1.0,
    };
    let steps = d.steps();
    let logs = phase_logs(d, ExecMode::Overlapping);
    let grid = CartesianGrid::new(vec![d.pi, d.pj]);

    // Unit-cost replay. Ascending rank order is a topological order of
    // the wavefront (upstream neighbors have smaller row-major index),
    // so every send post is stamped before its receiver waits on it.
    let mut send_time: HashMap<(usize, usize, usize), i64> = HashMap::new();
    let mut start: HashMap<(usize, usize), i64> = HashMap::new();
    for (rank, log) in logs.iter().enumerate() {
        let up = [grid.neighbor(rank, &[-1, 0]), grid.neighbor(rank, &[0, -1])];
        let mut clock = 0i64;
        for ph in log {
            match *ph {
                Phase::PostSend { dir, step } => {
                    send_time.insert((rank, dir, step), clock);
                }
                Phase::WaitRecv { dir, step } => {
                    let src = up[dir].expect("engine only waits on upstream faces");
                    let arrival = send_time[&(src, dir, step)] + 1;
                    clock = clock.max(arrival);
                }
                Phase::Compute { step } => {
                    start.insert((rank, step), clock);
                    clock += 1;
                }
                _ => {}
            }
        }
    }

    // The §5 mapping: pipelined dimension i₃ of the (pi, pj, steps)
    // tiled space, so pi = [2, 2, 1] and t = 2·(ci + cj) + k.
    let sched = TileSchedule::with_mapping(StepStrategy::Overlap, 3, 2);
    let tiled = IterationSpace::from_extents(&[d.pi as i64, d.pj as i64, steps as i64]);
    for rank in 0..d.pi * d.pj {
        let c = grid.coords_of(rank);
        for k in 0..steps {
            let expected = sched.time_of(&[c[0] as i64, c[1] as i64, k as i64], &tiled);
            assert_eq!(
                start[&(rank, k)],
                expected,
                "rank {rank} (coords {c:?}) tile {k}: engine order disagrees with eq. 4"
            );
        }
    }
}

#[test]
fn blocking_phase_order_is_serialized_triplets() {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 12,
        pi: 2,
        pj: 2,
        v: 4,
        boundary: 1.0,
    };
    let steps = d.steps();
    let logs = phase_logs(d, ExecMode::Blocking);
    let grid = CartesianGrid::new(vec![d.pi, d.pj]);
    for (rank, log) in logs.iter().enumerate() {
        let up = [grid.neighbor(rank, &[-1, 0]), grid.neighbor(rank, &[0, -1])];
        let dn = [grid.neighbor(rank, &[1, 0]), grid.neighbor(rank, &[0, 1])];
        // Eq. 3 per step: receive every face, compute, send every face —
        // nothing posted ahead, nothing deferred.
        let mut expected = Vec::new();
        for step in 0..steps {
            for (dir, src) in up.iter().enumerate() {
                if src.is_some() {
                    expected.push(Phase::Recv { dir, step });
                    expected.push(Phase::Unpack { dir, step });
                }
            }
            expected.push(Phase::Compute { step });
            for (dir, dst) in dn.iter().enumerate() {
                if dst.is_some() {
                    expected.push(Phase::Pack { dir, step });
                    expected.push(Phase::Send { dir, step });
                }
            }
        }
        assert_eq!(*log, expected, "rank {rank}");
    }
}

/// `Block3D` keeps only the tile it computed last cut into units, so a
/// face can be packed from nothing else — which holds because of the
/// order the engine runs in, checked here rather than assumed there:
/// under both strategies every `Pack { step }` follows `Compute { step }`
/// with no other compute in between, the overlap strategy's deferred
/// sends and its epilogue included.
#[test]
fn only_the_last_computed_tile_is_ever_packed() {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 26,
        pi: 2,
        pj: 2,
        v: 4, // 7 steps, partial last tile
        boundary: 1.0,
    };
    let grid = CartesianGrid::new(vec![d.pi, d.pj]);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        for (rank, log) in phase_logs(d, mode).iter().enumerate() {
            let mut computed = None;
            let mut packs = 0;
            for ph in log {
                match *ph {
                    Phase::Compute { step } => computed = Some(step),
                    Phase::Pack { step, .. } => {
                        assert_eq!(computed, Some(step), "{mode:?} rank {rank}: {ph:?}");
                        packs += 1;
                    }
                    _ => {}
                }
            }
            let faces = [[1, 0], [0, 1]].map(|to| grid.neighbor(rank, &to));
            let downstream = faces.iter().flatten().count();
            assert_eq!(packs, downstream * d.steps(), "{mode:?} rank {rank}");
        }
    }
}
