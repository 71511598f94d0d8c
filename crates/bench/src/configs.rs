//! The shipped configurations: every decomposition, latency model and
//! plan request the `paper` harness runs, defined once.
//!
//! The subcommands and the "every shipped configuration compiles,
//! analyzer pre-flight included" test below draw from the same
//! builders, and the thread-backed subcommands compile their
//! [`planc::PlanRequest`]s from the same source of truth.

use autotune::TuneProblem;
use msgpass::thread_backend::LatencyModel;
use msgpass::transport::TransportKind;
use planc::PlanRequest;
use stencil::dist3d::{Decomp3D, ExecMode};
use tiling_core::machine::{MachineParams, PiecewiseCost};

/// `paper threads`: experiment i scaled to a 2×2 world.
pub fn threads_decomp() -> Decomp3D {
    Decomp3D {
        nx: 8,
        ny: 8,
        nz: 4096,
        pi: 2,
        pj: 2,
        v: 128,
        boundary: 1.0,
    }
}

/// `paper chaos`: the fault-injection workload.
pub fn chaos_decomp() -> Decomp3D {
    Decomp3D {
        nz: 2048,
        ..threads_decomp()
    }
}

/// `paper chaos`: the shallower traced run behind the stall Gantt.
pub fn chaos_gantt_decomp() -> Decomp3D {
    Decomp3D {
        nz: 512,
        v: 64,
        ..threads_decomp()
    }
}

/// `paper threads`: injected wire latency.
pub fn threads_latency() -> LatencyModel {
    LatencyModel {
        startup_us: 500.0,
        per_byte_us: 0.08,
    }
}

/// The demo-scale wire latency used by the thread-backend Gantt charts
/// and the chaos stall trace: visible against the compute without
/// swamping it.
pub fn demo_wire_latency() -> LatencyModel {
    LatencyModel {
        startup_us: 300.0,
        per_byte_us: 0.05,
    }
}

/// The plan request for a shipped 3-D decomposition, on the mpsc
/// transport the thread demos have always used.
pub fn plan_request(d: Decomp3D, mode: ExecMode) -> PlanRequest {
    PlanRequest::grid3(d.nx, d.ny, d.nz, d.pi, d.pj)
        .with_v(d.v)
        .with_mode(mode)
        .with_transport(TransportKind::Mpsc)
        .with_boundary(d.boundary)
}

/// `paper tune`: a measured wire-transfer curve with a rendezvous knee
/// — linear to the eager limit (~1 KiB), a protocol-switch cliff to
/// 1.5 KiB, then fragmented-transfer slope. The closed form keeps
/// predicting with the affine `t_t` wire model, which is exactly what
/// makes machines carrying this curve out-of-model.
///
/// # Panics
/// Never: the knots are static, increasing and finite (`paper tune`'s
/// tests build the curve).
#[allow(clippy::expect_used)] // LINT: static knots, valid by inspection
pub fn tune_transfer_curve() -> PiecewiseCost {
    PiecewiseCost::from_knots(&[
        (0.0, 15.0),
        (1024.0, 100.0),
        (1536.0, 700.0),
        (8192.0, 1800.0),
    ])
    .expect("static knots are valid")
}

/// `paper tune`: the machine the out-of-model acceptance rows simulate
/// — the paper cluster with [`tune_transfer_curve`] installed.
pub fn tune_machine() -> MachineParams {
    MachineParams::paper_cluster().with_transfer_curve(tune_transfer_curve())
}

/// `paper tune`: the partial-tile acceptance grid. 2100 planes do not
/// divide by the closed form's pick (V* = 98 ⇒ 21 full tiles plus a
/// 42-plane remainder), and at V* the 1568-byte faces sit past the
/// transfer curve's rendezvous knee — the tuner must find a
/// step-aligned height below the knee.
pub fn tune_partial_tile_problem() -> TuneProblem {
    TuneProblem {
        nx: 8,
        ny: 8,
        nz: 2100,
        pi: 2,
        pj: 2,
    }
}

/// `paper tune`: the heterogeneous 4×4-world acceptance grid
/// (node-speed spread [`TUNE_HETERO_SPREAD`], seed [`TUNE_HETERO_SEED`]).
pub fn tune_hetero_problem() -> TuneProblem {
    TuneProblem {
        nx: 16,
        ny: 16,
        nz: 4096,
        pi: 4,
        pj: 4,
    }
}

/// `paper tune`: node-speed spread of the heterogeneous acceptance row.
pub const TUNE_HETERO_SPREAD: f64 = 0.35;

/// `paper tune`: node-speed seed of the heterogeneous acceptance row.
pub const TUNE_HETERO_SEED: u64 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_decomps_compile() {
        let demo = crate::gantt::thread_demo_decomp();
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            for d in [threads_decomp(), chaos_decomp(), chaos_gantt_decomp(), demo] {
                let a = planc::compile(&plan_request(d, mode)).expect("shipped decomp compiles");
                assert_eq!(a.v(), d.v);
                assert_eq!(a.ranks(), d.pi * d.pj);
            }
        }
    }
}
