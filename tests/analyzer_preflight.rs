//! End-to-end checks of the pre-flight static analysis layer: every
//! decomposition the harness ships must pass, the report must agree
//! with the paper's schedule-length arithmetic, and the engine must
//! surface analyzer rejections as its own typed error.

use analyzer::plan::TAG_STRIDE;
use cluster_sim::program::{Op, Program};
use msgpass::comm::Communicator;
use msgpass::thread_backend::{LatencyModel, ThreadComm, WorldConfig};
use std::collections::HashMap;
use stencil::decomp::Decomp2D;
use stencil::dist3d::{run_dist3d_with, Decomp3D, ExecMode};
use stencil::engine::{EngineError, Phase, PhaseLog};
use stencil::kernel::{Example1, Kernel3D, Paper3D, Relax3D};
use stencil::plan::{run3d_observed_with, Compiled3D};
use stencil::preflight::check_plan3d;

fn shipped_3d() -> Vec<Decomp3D> {
    let base = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 4096,
        pi: 2,
        pj: 2,
        v: 128,
        boundary: 1.0,
    };
    vec![
        base,
        Decomp3D { nz: 2048, ..base },
        Decomp3D {
            nz: 512,
            v: 64,
            ..base
        },
        Decomp3D {
            nz: 65_536,
            v: 256,
            ..base
        },
        // Doc-example scale.
        Decomp3D {
            nx: 4,
            ny: 4,
            nz: 16,
            v: 4,
            ..base
        },
    ]
}

#[test]
fn every_shipped_3d_config_passes_preflight() {
    for d in shipped_3d() {
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let report = check_plan3d(&d, mode)
                .unwrap_or_else(|e| panic!("{d:?} under {mode:?} rejected: {e}"));
            assert_eq!(report.ranks, d.pi * d.pj);
            assert_eq!(report.steps, d.steps());
            // A 2×2 grid has 4 directed interior faces, one message
            // each per step.
            assert_eq!(report.messages, 4 * d.steps());
        }
    }
}

fn shipped_2d() -> [Decomp2D; 2] {
    [
        Decomp2D {
            nx: 10_000,
            ny: 1_000,
            ranks: 10,
            v: 10,
            boundary: 1.0,
        },
        // nx % v != 0: the last tile is partial.
        Decomp2D {
            nx: 30,
            ny: 8,
            ranks: 4,
            v: 7,
            boundary: 2.0,
        },
    ]
}

#[test]
fn every_shipped_2d_config_passes_preflight() {
    for d in shipped_2d() {
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let report = check_plan3d(&d.block(), mode)
                .unwrap_or_else(|e| panic!("{d:?} under {mode:?} rejected: {e}"));
            assert_eq!(report.ranks, d.ranks);
            assert_eq!(report.messages, (d.ranks - 1) * d.steps());
        }
    }
}

/// The shipped 3-D layouts plus one whose last tile is partial.
fn shipped_3d_and_partial() -> Vec<Decomp3D> {
    let partial = Decomp3D {
        nz: 50, // nz % v != 0: the last tile is partial
        v: 8,
        ..shipped_3d()[0]
    };
    shipped_3d().into_iter().chain([partial]).collect()
}

/// `events` and `messages` of every shipped layout's report — how many
/// ops pre-flight walked, how many sends it matched — in the order five
/// shipped 3-D layouts, the partial one, two 2-D; blocking, then
/// overlapping.
#[test]
fn preflight_counts_are_pinned() {
    let (mut events, mut messages) = (Vec::new(), Vec::new());
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let reports = (shipped_3d_and_partial().into_iter())
            .map(|d| check_plan3d(&d, mode))
            .chain(
                shipped_2d()
                    .into_iter()
                    .map(|d| check_plan3d(&d.block(), mode)),
            );
        for r in reports {
            let r = r.expect("shipped layout is clean");
            events.push(r.events);
            messages.push(r.messages);
        }
    }
    assert_eq!(events, PINNED_EVENTS);
    assert_eq!(messages, [128, 64, 32, 1024, 16, 28, 9000, 15].repeat(2));
}

const PINNED_EVENTS: [usize; 16] = [
    384, 192, 96, 3072, 48, 84, 28000, 50, 640, 320, 160, 5120, 80, 140, 46000, 80,
];

#[test]
fn makespan_matches_schedule_length_arithmetic() {
    // §3/§4: blocking finishes after (hops + steps) time hyperplanes,
    // overlap after (2·hops + steps) — more planes, each far cheaper.
    let d = Decomp3D {
        nx: 8,
        ny: 8,
        nz: 1024,
        pi: 2,
        pj: 2,
        v: 128,
        boundary: 1.0,
    };
    let hops = (d.pi - 1) + (d.pj - 1);
    let b = check_plan3d(&d, ExecMode::Blocking).expect("clean");
    let o = check_plan3d(&d, ExecMode::Overlapping).expect("clean");
    assert_eq!(b.logical_makespan, (hops + d.steps()) as i64);
    assert_eq!(o.logical_makespan, (2 * hops + d.steps()) as i64);
}

#[test]
fn engine_wraps_analyzer_rejections() {
    let err: EngineError = analyzer::AnalysisError::IllegalSchedule {
        pi: vec![1, -1],
        dep: vec![1, 1],
        dot: 0,
    }
    .into();
    let msg = err.to_string();
    assert!(
        msg.contains("pre-flight analysis rejected the plan"),
        "unexpected message: {msg}"
    );
    assert!(
        msg.contains("illegal schedule"),
        "unexpected message: {msg}"
    );
}

#[test]
fn preflight_gate_is_transparent_to_results() {
    // The default path analyzes before spawning; the opt-out path skips
    // it. Both must produce bitwise-identical grids.
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 32,
        pi: 2,
        pj: 2,
        v: 8,
        boundary: 1.0,
    };
    let checked = WorldConfig::new(LatencyModel::zero());
    assert!(!checked.skip_preflight);
    let unchecked = WorldConfig::new(LatencyModel::zero()).without_preflight();
    assert!(unchecked.skip_preflight);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let (a, _, _) =
            run_dist3d_with(Relax3D::default(), d, &checked, mode).expect("checked run");
        let (b, _, _) =
            run_dist3d_with(Relax3D::default(), d, &unchecked, mode).expect("unchecked run");
        assert_eq!(a.max_abs_diff(&b), 0.0, "{mode:?}");
    }
}

/// What an op or a phase does, to which face: `(kind, wire
/// direction, step)`. A wait names the kind and face of the request it
/// completes, a compute names its step only.
type Event = (&'static str, u64, usize);

/// The events of a program, in program order: a message's face comes
/// from its tag (`step · TAG_STRIDE + wire direction`).
fn program_events(p: &Program) -> Vec<Event> {
    let mut posted = HashMap::new();
    let face = |kind, tag: u64| (kind, tag % TAG_STRIDE, (tag / TAG_STRIDE) as usize);
    (p.ops())
        .map(|op| match op {
            Op::Compute { label, .. } => ("compute", 0, label as usize),
            Op::Send { tag, .. } => face("send", tag),
            Op::Recv { tag, .. } => face("recv", tag),
            Op::Isend { tag, req, .. } => {
                posted.insert(req, face("wait isend", tag));
                face("isend", tag)
            }
            Op::Irecv { tag, req, .. } => {
                posted.insert(req, face("wait irecv", tag));
                face("irecv", tag)
            }
            Op::Wait { req } => posted[&req],
        })
        .collect()
}

/// The events of a logged run, in execution order, packing and
/// unpacking left out. A block's halo direction is its wire direction
/// (`FACE_I` travels as `DIR_I`, `FACE_J` as `DIR_J`).
fn phase_events(log: &PhaseLog) -> Vec<Event> {
    (log.phases.iter())
        .filter_map(|&(phase, ..)| {
            let (kind, dir) = match phase {
                Phase::Pack { .. } | Phase::Unpack { .. } => return None,
                Phase::Compute { .. } => ("compute", 0),
                Phase::Send { dir, .. } => ("send", dir),
                Phase::Recv { dir, .. } => ("recv", dir),
                Phase::PostSend { dir, .. } => ("isend", dir),
                Phase::PostRecv { dir, .. } => ("irecv", dir),
                Phase::WaitSend { dir, .. } => ("wait isend", dir),
                Phase::WaitRecv { dir, .. } => ("wait irecv", dir),
            };
            Some((kind, dir as u64, phase.step()))
        })
        .collect()
}

/// The engine issues the ops it is given: every rank of a thread run of
/// each shipped layout performs the program pre-flight analyzed —
/// kind, order, face and step — op for op.
#[test]
fn executors_send_exactly_what_preflight_analyzed() {
    fn check<K: Kernel3D>(kernel: K, d: Decomp3D, mode: ExecMode) {
        let plan = Compiled3D::compile(d, mode).expect("shipped layout compiles");
        let cfg = WorldConfig::new(LatencyModel::zero());
        let logged = |comm: &ThreadComm<f32>| PhaseLog::new(comm.rank(), comm.epoch());
        let (_, _, logs, _) =
            run3d_observed_with(kernel, &plan, &cfg, logged).expect("a fault-free world");
        let analyzed = analyzer::programs(&d, &d.step_plan(mode)).expect("fewer than 2^32 steps");
        assert_eq!(logs.len(), analyzed.len(), "{d:?} {mode:?}");
        for (rank, (log, program)) in logs.iter().zip(&analyzed).enumerate() {
            let (ran, given) = (phase_events(log), program_events(program));
            assert_eq!(ran, given, "{d:?} {mode:?} rank {rank}");
        }
    }
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        for d in shipped_3d_and_partial() {
            check(Paper3D, d, mode);
        }
        for d in shipped_2d() {
            check(Example1, d.block(), mode);
        }
    }
}
