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
    matrix_at(problem, machine, speeds, 0.0)
}

fn matrix_at(
    problem: &ClusterProblem,
    machine: MachineParams,
    speeds: &NodeSpeeds,
    latency_us: f64,
) -> Vec<u64> {
    let mut out = Vec::new();
    for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
        for duplex in [false, true] {
            for topology in [NetworkTopology::Switched, NetworkTopology::SharedBus] {
                let programs = problem.programs(strategy, &machine);
                let cfg = SimConfig::new(machine)
                    .with_duplex(duplex)
                    .with_topology(topology)
                    .with_wire_latency_us(latency_us);
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

/// With a wire latency a blocking send's delivery is later than the
/// send's end — the one path no matrix above takes. One fingerprint of
/// five matrices.
#[test]
fn wire_latency_results_are_pinned() {
    let problem = lockstep_problem();
    let (uniform, hetero) = (NodeSpeeds::uniform(0), problem.node_speeds(11, 0.3));
    let (tie, paper) = (tie_machine(0.0), MachineParams::paper_cluster());
    let settings = [
        (tie, &uniform, 7.5),
        (tie, &hetero, 0.0),
        (tie, &hetero, 7.5),
        (paper, &uniform, 7.5),
        (paper, &hetero, 7.5),
    ];
    let got = fnv64(
        settings
            .iter()
            .flat_map(|&(m, s, us)| matrix_at(&problem, m, s, us)),
    );
    assert_eq!(got, PINNED_WIRE_LATENCY, "{got:#x}");
}

/// Both schedules, both lane and wire settings, with and without wire
/// latency, on a heterogeneous 8×8 fleet — and on the free machine,
/// where every step's events tie. Its queue is deep enough that an event
/// placed at the head sifts down several levels, which no 4-rank fleet
/// reaches. One fingerprint of five matrices, recorded before the event
/// loop touched the queue once per op.
#[test]
fn a_64_rank_fleet_is_pinned() {
    let problem = ClusterProblem::new(
        Tiling::rectangular(&[2, 2, 8]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[16, 16, 96]),
        2,
    )
    .unwrap();
    assert_eq!(problem.ranks(), 64);
    let (uniform, hetero) = (NodeSpeeds::uniform(0), problem.node_speeds(5, 0.3));
    let (tie, paper) = (tie_machine(0.0), MachineParams::paper_cluster());
    let settings = [
        (tie, &uniform, 0.0),
        (tie, &hetero, 7.5),
        (paper, &uniform, 0.0),
        (paper, &hetero, 0.0),
        (paper, &hetero, 7.5),
    ];
    let got = fnv64(
        settings
            .iter()
            .flat_map(|&(m, s, us)| matrix_at(&problem, m, s, us)),
    );
    assert_eq!(got, PINNED_FLEET_64, "{got:#x}");
}

/// One rank's program from words: `c<µs>` computes; `s`/`r` are a
/// blocking send / receive of 100 B and `S`/`R` a non-blocking one of
/// 1000 B, each followed by `<peer>.<tag>`; `w<n>` waits on the `n`-th
/// request the rank posted.
fn program(words: &str) -> Program {
    let (mut p, mut reqs) = (Program::new(), Vec::new());
    for word in words.split_whitespace() {
        let (op, arg) = word.split_at(1);
        let (n, tag) = arg.split_once('.').unwrap_or((arg, "0"));
        let (n, tag): (usize, u64) = (n.parse().unwrap(), tag.parse().unwrap());
        match op {
            "c" => p.compute(n as f64, 0),
            "s" => p.send(n, tag, 100),
            "r" => p.recv(n, tag, 100),
            "S" => reqs.push(p.isend(n, tag, 1000)),
            "R" => reqs.push(p.irecv(n, tag, 1000)),
            _ => p.wait(reqs[n]),
        }
    }
    p
}

/// Sends whose completion shares an instant with something else, one
/// rank per `|`.
const SEND_CORNERS: [&str; 7] = [
    // Isend, then Wait on it at once.
    "S1.0 w0 | R0.0 w0",
    // Nobody waits: the lanes drain after both programs ended.
    "S1.0 | R0.0",
    // Two A₁ end at the same nanosecond and want the one bus.
    "S2.0 w0 | S3.0 w0 | R0.0 w0 | R1.0 w0",
    // Rank 0's A₁ ends at 30 µs, the instant rank 1's message reaches
    // rank 0's half-duplex NIC.
    "c20 S1.1 R1.0 w1 w0 | S0.0 R0.1 w1 w0",
    // A blocking send into a rank parked in Recv, into one that posts
    // later, and into one parked on a different key.
    "s1.0 | r0.0",
    "s1.0 | c100 r0.0",
    "s2.0 | c100 s2.1 | r1.1 r0.0",
];

/// [`SEND_CORNERS`] on a shared bus with 10 µs fills and 0.01 µs/B, one
/// fingerprint per wire latency.
#[test]
fn send_completion_corner_cases_are_pinned() {
    let toy = MachineParams {
        t_s_us: 20.0,
        fill_mpi_buffer: AffineCost::constant(10.0),
        fill_kernel_buffer: AffineCost::constant(10.0),
        ..tie_machine(0.01)
    };
    let got = [0.0, 7.5].map(|latency| {
        let cfg = SimConfig::new(toy)
            .with_topology(NetworkTopology::SharedBus)
            .with_wire_latency_us(latency);
        fnv64(SEND_CORNERS.iter().map(|case| {
            let programs = case.split('|').map(program).collect();
            fingerprint(&simulate(cfg, programs).unwrap())
        }))
    });
    assert_eq!(got, PINNED_SEND_CORNERS, "{got:x?}");
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
const PINNED_WIRE_LATENCY: u64 = 0x94bf46715a07ad29;
const PINNED_FLEET_64: u64 = 0x0575683ca3c67ed2;
const PINNED_SEND_CORNERS: [u64; 2] = [0x573ecca4cf1a378b, 0x136face8a4d752b9];
