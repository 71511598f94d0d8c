//! Property tests of the plan-cache key: key equality must coincide
//! exactly with request equality — no collisions across nest, machine,
//! V, tier, transport, mode or boundary variations — and artifacts
//! compiled from equal keys must be the same plan.

use msgpass::transport::TransportKind;
use planc::{Compiler, KernelName, MachineSpec, PlanKey, PlanRequest};
use proptest::prelude::*;
use std::sync::Arc;
use stencil::engine::ExecMode;
use tiling_core::machine::{KernelTier, MachineParams};

/// One point in the request variation space, indexed per axis so the
/// property can compare requests structurally.
fn request_from(idx: (usize, usize, usize, usize, usize, usize, usize)) -> PlanRequest {
    let (w, m, v, mode, t, tier, b) = idx;
    let base = match w {
        0 => PlanRequest::grid3(8, 8, 64, 2, 2),
        1 => PlanRequest::grid3(8, 8, 128, 2, 2),
        2 => PlanRequest::grid3(8, 8, 64, 2, 2).with_kernel(KernelName::Relax3D),
        3 => PlanRequest::strip2(40, 12, 4),
        _ => PlanRequest::source(
            "FOR i1 = 1 TO 8 DO\n FOR i2 = 1 TO 8 DO\n  FOR i3 = 1 TO 64 DO\n   A(i1, i2, i3) = sqrt(A(i1-1, i2, i3)) + A(i1, i2-1, i3) + A(i1, i2, i3-1)\n  ENDFOR\n ENDFOR\nENDFOR",
            vec![2, 2],
        ),
    };
    let base = match m {
        0 => base.with_machine(MachineSpec::Example1),
        1 => base.with_machine(MachineSpec::Paper),
        2 => base.with_machine(MachineSpec::Gigabit),
        3 => base.with_machine(MachineSpec::OsBypass),
        // Bit-identical params to the paper preset, but spelled as
        // Custom — must still key differently from the preset name.
        _ => base.with_machine(MachineSpec::Custom(
            MachineParams::paper_cluster().scale_communication(2.0),
        )),
    };
    let base = match v {
        0 => base.with_v(8),
        1 => base.with_v(16),
        _ => base, // Auto
    };
    let base = match mode {
        0 => base.with_mode(ExecMode::Overlapping),
        _ => base.with_mode(ExecMode::Blocking),
    };
    let base = match t {
        0 => base.with_transport(TransportKind::Mpsc),
        1 => base.with_transport(TransportKind::SharedSlots { slots: 4 }),
        _ => base.with_transport(TransportKind::shared_slots()),
    };
    let base = match tier {
        0 => base.with_tier(KernelTier::Bitwise),
        _ => base.with_tier(KernelTier::Fast),
    };
    match b {
        0 => base.with_boundary(1.0),
        _ => base.with_boundary(0.5),
    }
}

fn axis_point() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize, usize)> {
    // miniprop tuples cap at arity 6: nest, then flatten.
    (
        (0usize..5, 0usize..5, 0usize..3),
        (0usize..2, 0usize..3, 0usize..2, 0usize..2),
    )
        .prop_map(|((w, m, v), (mode, t, tier, b))| (w, m, v, mode, t, tier, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Key equality ⟺ request equality: two independently drawn
    /// variation points key identically exactly when every axis
    /// matches. This is the no-collision property the cache's
    /// soundness rests on.
    #[test]
    fn key_equality_iff_request_equality(a in axis_point(), b in axis_point()) {
        let ra = request_from(a);
        let rb = request_from(b);
        let ka = PlanKey::of(&ra);
        let kb = PlanKey::of(&rb);
        prop_assert_eq!(ra == rb, ka == kb,
            "requests {:?} vs {:?}: request-eq and key-eq disagree", a, b);
        // Keys are deterministic: recomputing never changes them.
        prop_assert_eq!(&ka, &PlanKey::of(&ra));
    }

    /// Single-axis perturbations always change the key (each key
    /// component is actually reflected in the canonical form).
    #[test]
    fn every_axis_is_keyed(p in axis_point(), axis in 0usize..7, step in 1usize..3) {
        let bounds = [5usize, 5, 3, 2, 3, 2, 2];
        let mut q = [p.0, p.1, p.2, p.3, p.4, p.5, p.6];
        q[axis] = (q[axis] + step) % bounds[axis];
        let moved = (q[0], q[1], q[2], q[3], q[4], q[5], q[6]);
        prop_assume!(moved != p);
        let kp = PlanKey::of(&request_from(p));
        let kq = PlanKey::of(&request_from(moved));
        prop_assert!(kp != kq, "axis {} perturbation did not change the key", axis);
    }
}

/// Equal keys must hand back the *same* compiled artifact, and the
/// artifact must be sealed under exactly the key of its request —
/// across a compilable slice of every variation axis.
#[test]
fn equal_keys_share_artifacts_across_variations() {
    let c = Compiler::new(64);
    // Explicit-V points only (Auto on free-comm-like customs can
    // legitimately fail); every axis still varies.
    let points = [
        (0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 1),
        (0, 1, 0, 0, 1, 1, 0),
        (1, 2, 1, 1, 2, 0, 0),
        (2, 3, 0, 0, 0, 0, 0),
        (3, 0, 0, 0, 2, 0, 0),
        (4, 1, 1, 1, 0, 1, 0),
    ];
    let mut artifacts = Vec::new();
    for p in points {
        let req = request_from(p);
        let key = PlanKey::of(&req);
        let a = c.compile(&req).expect("variation point must compile");
        assert_eq!(a.key(), &key, "artifact sealed under a foreign key");
        let again = c.compile(&req).unwrap();
        assert!(
            Arc::ptr_eq(&a, &again),
            "equal key did not share the artifact"
        );
        artifacts.push((key, a));
    }
    // Distinct points → distinct keys → distinct artifacts.
    for i in 0..artifacts.len() {
        for j in i + 1..artifacts.len() {
            assert_ne!(
                artifacts[i].0, artifacts[j].0,
                "key collision between variations"
            );
            assert!(!Arc::ptr_eq(&artifacts[i].1, &artifacts[j].1));
        }
    }
    assert_eq!(c.stats().compiles, points.len() as u64);
}
