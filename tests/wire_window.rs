//! The slot window follows the wire, at the level the paper speaks:
//! eq. 4's overlapping schedule pays the wire once per pipeline, eq. 3's
//! blocking schedule pays it every step. (The only test of this binary:
//! it times a world and wants the two cores to itself.)

use std::time::Duration;

use msgpass::thread_backend::{LatencyModel, WorldConfig};
use msgpass::transport::TransportKind;
use stencil::dist3d::{Decomp3D, ExecMode};
use stencil::kernel::Paper3D;
use stencil::plan::{run3d_with, Compiled3D};
use stencil::seq::run_paper3d_seq;

#[test]
fn overlapping_pays_the_wire_once_and_blocking_every_step() {
    // 2×1 ranks, 24 one-slab steps of a few cells each, a 2 ms wire:
    // rank 0's 24 faces are all in flight before the first one lands.
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 24,
        pi: 2,
        pj: 1,
        v: 1,
        boundary: 1.0,
    };
    assert_eq!(d.steps(), 24);
    let wire = Duration::from_millis(2);
    let latency = LatencyModel {
        startup_us: wire.as_secs_f64() * 1e6,
        per_byte_us: 0.0,
    };
    let cfg = WorldConfig::new(latency).with_transport(TransportKind::shared_slots());
    let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
    let best_of_3 = |mode| {
        let plan = Compiled3D::compile(d, mode).expect("valid decomp");
        (0..3)
            .map(|_| {
                let (grid, elapsed, _) = run3d_with(Paper3D, &plan, &cfg).expect("fault-free");
                assert_eq!(grid.max_abs_diff(&seq), 0.0, "{mode:?} is not bitwise");
                elapsed
            })
            .min()
            .expect("three runs")
    };
    // An 8-slot window that counted the wire's own hold time against
    // the sender made this three wire times: 8 + 8 + 8 faces.
    let overlapping = best_of_3(ExecMode::Overlapping);
    assert!(
        overlapping < 2 * wire,
        "overlapping took {overlapping:?}: more than one pipeline fill of a {wire:?} wire"
    );
    let blocking = best_of_3(ExecMode::Blocking);
    assert!(
        blocking >= 24 * wire,
        "blocking took {blocking:?}: 24 sends of a {wire:?} wire cannot"
    );
}
