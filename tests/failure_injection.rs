//! Failure injection: corrupt generated programs in targeted ways and
//! check the simulator *diagnoses* the damage instead of hanging or
//! silently producing a result — deadlock detection, byte-mismatch
//! detection, and protocol validation.

use cluster_sim::program::{Op, Program};
use overlap_tiling::prelude::*;

fn problem() -> ClusterProblem {
    ClusterProblem::new(
        Tiling::rectangular(&[2, 2, 8]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[4, 4, 32]),
        2,
    )
    .unwrap()
}

fn machine() -> MachineParams {
    MachineParams::paper_cluster()
}

/// Rebuild a program with ops transformed by `f` (None drops the op).
fn mutate(p: &Program, mut f: impl FnMut(usize, &Op) -> Option<Op>) -> Program {
    let mut out = Program::new();
    for (i, op) in p.ops().enumerate() {
        if let Some(op) = f(i, &op) {
            out.push(op);
        }
    }
    out
}

#[test]
fn dropping_a_send_deadlocks_blocking_run() {
    let m = machine();
    let mut programs = problem().blocking_programs(&m);
    // Drop rank 0's first send: its dependents starve.
    let mut dropped = false;
    programs[0] = mutate(&programs[0], |_, op| {
        if !dropped && matches!(op, Op::Send { .. }) {
            dropped = true;
            None
        } else {
            Some(*op)
        }
    });
    assert!(dropped, "rank 0 must have sends");
    let err = simulate(SimConfig::new(m).with_trace(false), programs).unwrap_err();
    match err {
        SimError::Deadlock { blocked } => assert!(!blocked.is_empty()),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn dropping_an_isend_deadlocks_overlap_run() {
    let m = machine();
    let mut programs = problem().overlapping_programs(&m);
    // Drop one Isend *and* its matching Wait from rank 0.
    let mut dropped_req = None;
    programs[0] = mutate(&programs[0], |_, op| match op {
        Op::Isend { req, .. } if dropped_req.is_none() => {
            dropped_req = Some(*req);
            None
        }
        Op::Wait { req } if Some(*req) == dropped_req => None,
        _ => Some(*op),
    });
    assert!(dropped_req.is_some());
    let err = simulate(SimConfig::new(m).with_trace(false), programs).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err:?}");
}

#[test]
fn corrupting_message_size_is_detected() {
    let m = machine();
    let mut programs = problem().blocking_programs(&m);
    let mut corrupted = false;
    programs[0] = mutate(&programs[0], |_, op| match op {
        Op::Send { to, tag, bytes } if !corrupted => {
            corrupted = true;
            Some(Op::Send {
                to: *to,
                tag: *tag,
                bytes: bytes + 4,
            })
        }
        _ => Some(*op),
    });
    let err = simulate(SimConfig::new(m).with_trace(false), programs).unwrap_err();
    assert!(matches!(err, SimError::ByteMismatch { .. }), "{err:?}");
}

#[test]
fn retargeting_a_send_to_invalid_rank_is_rejected_upfront() {
    let m = machine();
    let mut programs = problem().blocking_programs(&m);
    let bad = programs.len() + 7;
    programs[0] = mutate(&programs[0], |_, op| match op {
        Op::Send { tag, bytes, .. } => Some(Op::Send {
            to: bad,
            tag: *tag,
            bytes: *bytes,
        }),
        _ => Some(*op),
    });
    let err = simulate(SimConfig::new(m).with_trace(false), programs).unwrap_err();
    assert!(matches!(err, SimError::BadRank { .. }), "{err:?}");
}

#[test]
fn duplicated_wait_rejected_by_validation() {
    let m = machine();
    let mut programs = problem().overlapping_programs(&m);
    // Duplicate the first Wait.
    let first_wait = programs[1]
        .ops()
        .find(|op| matches!(op, Op::Wait { .. }))
        .expect("has waits");
    programs[1] = mutate(&programs[1], |_, op| Some(*op));
    programs[1].push(first_wait);
    let err = simulate(SimConfig::new(m).with_trace(false), programs).unwrap_err();
    assert!(matches!(err, SimError::InvalidProgram { .. }), "{err:?}");
}

#[test]
fn swapped_tags_still_complete_but_change_timing() {
    // Swapping two *same-size* messages' tags on the sender side is not
    // an error the transport can see (same peer, same bytes) — the run
    // completes; the data would be wrong in a real execution, which is
    // exactly why the stencil crate verifies values bitwise.
    let m = machine();
    let base = problem().blocking_programs(&m);
    let mut programs = base.clone();
    let mut tags: Vec<u64> = Vec::new();
    programs[0] = mutate(&programs[0], |_, op| match op {
        Op::Send { to, tag, bytes } => {
            tags.push(*tag);
            // Swap tag parity pairs: 0↔2, 1↔3, 4↔6, …
            let swapped = match tag % 4 {
                0 => tag + 2,
                1 => tag + 2,
                2 => tag - 2,
                _ => tag - 2,
            };
            Some(Op::Send {
                to: *to,
                tag: swapped,
                bytes: *bytes,
            })
        }
        _ => Some(*op),
    });
    let res = simulate(SimConfig::new(m).with_trace(false), programs);
    // Either completes (messages are interchangeable sizes) — the
    // dangerous silent case — or deadlocks if an unmatched tag starves
    // a receive. Both are acceptable transport behaviours; neither may
    // panic or hang the host.
    match res {
        Ok(r) => assert!(r.makespan > SimTime::ZERO),
        Err(e) => assert!(matches!(e, SimError::Deadlock { .. }), "{e:?}"),
    }
}
