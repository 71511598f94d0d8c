//! Simulated numbers pinned across commits.
//!
//! The engine may change how it spends *host* time; it may not change a
//! simulated nanosecond. Each constant below is an FNV-64 fingerprint of
//! a whole result — every finish time, the makespan and every recorded
//! interval in recording order — taken at the commit *before* the
//! engine got its dense request tables and the inline-continuation
//! rule, so a reordering of same-timestamp events shows up here as a
//! changed constant rather than as a plausible-looking makespan.

use cluster_sim::prelude::*;
use tiling_core::machine::{AffineCost, MachineParams, NodeSpeeds};
use tiling_core::prelude::*;

fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Everything a traced result reports, bit for bit.
fn fingerprint(r: &SimResult) -> u64 {
    let finish = r.finish.iter().map(SimTime::as_nanos);
    let intervals = r.trace.intervals().iter().flat_map(|iv| {
        [
            iv.rank as u64,
            iv.activity.glyph() as u64,
            iv.start.as_nanos(),
            iv.end.as_nanos(),
        ]
    });
    fnv64(
        finish
            .chain([r.makespan.as_nanos(), r.trace.intervals().len() as u64])
            .chain(intervals),
    )
}

/// A machine whose communication costs nothing: fills are zero, and
/// with `t_t = 0` so is the wire. Every event of a pipeline step then
/// carries the timestamp of the compute that precedes it, which makes
/// the *order* of same-timestamp events the only thing that decides
/// who matches, who idles and in which order intervals are recorded.
fn tie_machine(t_t: f64) -> MachineParams {
    MachineParams {
        t_c_us: 1.0,
        t_s_us: 0.0,
        t_t_us_per_byte: t_t,
        bytes_per_elem: 4,
        fill_mpi_buffer: AffineCost::constant(0.0),
        fill_kernel_buffer: AffineCost::constant(0.0),
        transfer_curve: None,
    }
}

/// 2×2 ranks, 7 steps, first and last tiles clipped on every axis.
fn clipped_problem() -> ClusterProblem {
    ClusterProblem::new(
        Tiling::rectangular(&[4, 4, 6]),
        DependenceSet::paper_3d(),
        IterationSpace::new(vec![1, 2, 3], vec![6, 7, 40]),
        2,
    )
    .unwrap()
}

/// 4×4 ranks in lock step: the paper's layout in miniature.
fn lockstep_problem() -> ClusterProblem {
    ClusterProblem::new(
        Tiling::rectangular(&[2, 2, 8]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[8, 8, 96]),
        2,
    )
    .unwrap()
}

/// Fingerprints of both schedules under every lane/topology setting.
fn matrix(problem: &ClusterProblem, machine: MachineParams, speeds: &NodeSpeeds) -> Vec<u64> {
    let mut out = Vec::new();
    for overlap in [false, true] {
        for duplex in [false, true] {
            for topology in [NetworkTopology::Switched, NetworkTopology::SharedBus] {
                let programs = if overlap {
                    problem.overlapping_programs(&machine)
                } else {
                    problem.blocking_programs(&machine)
                };
                let cfg = SimConfig::new(machine)
                    .with_duplex(duplex)
                    .with_topology(topology);
                let r = simulate_heterogeneous(cfg, programs, speeds.clone()).unwrap();
                out.push(fingerprint(&r));
            }
        }
    }
    out
}

#[test]
fn zero_cost_communication_ties_resolve_as_pinned() {
    let homogeneous = NodeSpeeds::uniform(0);
    assert_eq!(
        matrix(&clipped_problem(), tie_machine(0.0), &homogeneous),
        PINNED_TIES_CLIPPED
    );
    assert_eq!(
        matrix(&lockstep_problem(), tie_machine(0.0), &homogeneous),
        PINNED_TIES_LOCKSTEP
    );
    // Zero fills but a real wire: posts still tie with the computes
    // around them, deliveries no longer do.
    assert_eq!(
        matrix(&lockstep_problem(), tie_machine(0.01), &homogeneous),
        PINNED_TIES_WIRE
    );
}

#[test]
fn paper_cluster_results_are_pinned() {
    let machine = MachineParams::paper_cluster();
    let problem = lockstep_problem();
    assert_eq!(
        matrix(&problem, machine, &NodeSpeeds::uniform(0)),
        PINNED_PAPER_HOMOGENEOUS
    );
    assert_eq!(
        matrix(&problem, machine, &problem.node_speeds(11, 0.3)),
        PINNED_PAPER_HETERO
    );
    assert_eq!(
        matrix(&clipped_problem(), machine, &NodeSpeeds::uniform(0)),
        PINNED_PAPER_CLIPPED
    );
}

/// The tie case in the open, not only as a hash: finish times and
/// makespan of the clipped problem's overlapping run on the free
/// machine are pure compute — tile volumes along the critical path.
#[test]
fn free_communication_makespan_is_the_critical_path() {
    let machine = tie_machine(0.0);
    let problem = clipped_problem();
    let r = simulate(
        SimConfig::new(machine),
        problem.overlapping_programs(&machine),
    )
    .unwrap();
    let finish: Vec<u64> = r.finish.iter().map(SimTime::as_nanos).collect();
    assert_eq!(finish, PINNED_FREE_FINISH_NS);
    assert_eq!(r.makespan.as_nanos(), PINNED_FREE_FINISH_NS[3]);
}

const PINNED_TIES_CLIPPED: [u64; 8] = [
    0xc46c1e78d0014c9d,
    0xc46c1e78d0014c9d,
    0xc46c1e78d0014c9d,
    0xc46c1e78d0014c9d,
    0xb4e9348a8f37ba9d,
    0xb4e9348a8f37ba9d,
    0xb4e9348a8f37ba9d,
    0xb4e9348a8f37ba9d,
];
const PINNED_TIES_LOCKSTEP: [u64; 8] = [
    0x9ad0c6eb44ad2c26,
    0x9ad0c6eb44ad2c26,
    0x9ad0c6eb44ad2c26,
    0x9ad0c6eb44ad2c26,
    0xe58b1f22b18ee4e6,
    0xe58b1f22b18ee4e6,
    0xe58b1f22b18ee4e6,
    0xe58b1f22b18ee4e6,
];
const PINNED_TIES_WIRE: [u64; 8] = [
    0x1d74d9ea566d4c28,
    0xb37ce2aeb6892373,
    0x1d74d9ea566d4c28,
    0xb37ce2aeb6892373,
    0xe56db7e9fde5b2d6,
    0x7daf7367c20ff0ea,
    0xe56db7e9fde5b2d6,
    0x7daf7367c20ff0ea,
];
const PINNED_PAPER_HOMOGENEOUS: [u64; 8] = [
    0x57ae5202c2d97c31,
    0x12f41bb27ce9872c,
    0x57ae5202c2d97c31,
    0x12f41bb27ce9872c,
    0xd3e1a04ebba05284,
    0x2976d08124c9a95f,
    0xb355e598885f2199,
    0x220998e0bcf389e4,
];
const PINNED_PAPER_HETERO: [u64; 8] = [
    0x1c4f7abd1882b483,
    0x345fd573c02d4b23,
    0x1c4f7abd1882b483,
    0x345fd573c02d4b23,
    0xd242573132caff5f,
    0x872726da13215dce,
    0x791f1886e755f121,
    0xefb10b711b4dca13,
];
const PINNED_PAPER_CLIPPED: [u64; 8] = [
    0xaa34b73b9afee0b2,
    0x9371c0442c3d6e50,
    0xaa34b73b9afee0b2,
    0x9371c0442c3d6e50,
    0xfb969fb0f8932072,
    0x84ad2a11761ece87,
    0xfc2648b9ee684d43,
    0x73551cf16d9dc803,
];
const PINNED_FREE_FINISH_NS: [u64; 4] = [228_000, 474_000, 264_000, 546_000];
