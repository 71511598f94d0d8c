//! Built programs pinned across commits.
//!
//! `blocking_programs` / `overlapping_programs` may change how they
//! emit; they may not change an op. Each constant is an FNV-64
//! fingerprint of every rank's program — per op its kind, peer, tag,
//! bytes, request, duration bits and label, in program order — so a
//! reordered wait or a re-numbered request shows up as a changed
//! constant even where the simulated makespan would not move.

use cluster_sim::prelude::*;
use tiling_core::machine::MachineParams;
use tiling_core::prelude::*;

fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// `[kind, peer, tag, bytes, request, µs bits, label]` of one op.
fn words(op: &Op) -> [u64; 7] {
    match *op {
        Op::Compute { us, label } => [0, 0, 0, 0, 0, us.to_bits(), label],
        Op::Send { to, tag, bytes } => [1, to as u64, tag, bytes, 0, 0, 0],
        Op::Recv { from, tag, bytes } => [2, from as u64, tag, bytes, 0, 0, 0],
        Op::Isend {
            to,
            tag,
            bytes,
            req,
        } => [3, to as u64, tag, bytes, u64::from(req.0), 0, 0],
        Op::Irecv {
            from,
            tag,
            bytes,
            req,
        } => [4, from as u64, tag, bytes, u64::from(req.0), 0, 0],
        Op::Wait { req } => [5, 0, 0, 0, u64::from(req.0), 0, 0],
    }
}

fn fingerprint(programs: &[Program]) -> u64 {
    fnv64(
        programs
            .iter()
            .flat_map(|p| std::iter::once(p.len() as u64).chain(p.ops().flat_map(|op| words(&op)))),
    )
}

fn problem(
    tile: &[i64],
    deps: DependenceSet,
    extents: &[i64],
    mapping_dim: usize,
) -> ClusterProblem {
    let space = IterationSpace::from_extents(extents);
    ClusterProblem::new(Tiling::rectangular(tile), deps, space, mapping_dim).unwrap()
}

/// The layouts: the paper's 3-D experiment on a 4×4 grid, a partial
/// last tile, Example 1's diagonal 2-D nest, the unit stencil on 12×20,
/// a single rank, and a 3-D nest with three processor offsets.
fn problems() -> [ClusterProblem; 6] {
    let three_offsets = DependenceSet::from_vectors(
        3,
        vec![vec![1, 0, 0], vec![0, 1, 0], vec![1, 1, 0], vec![0, 0, 1]],
    );
    [
        problem(&[4, 4, 16], DependenceSet::paper_3d(), &[16, 16, 128], 2),
        problem(&[4, 4, 8], DependenceSet::paper_3d(), &[8, 8, 50], 2),
        problem(&[10, 10], DependenceSet::example_1(), &[100, 40], 0),
        problem(&[3, 5], DependenceSet::units(2), &[12, 20], 1),
        problem(&[4, 4], DependenceSet::units(2), &[4, 64], 1),
        problem(&[2, 2, 8], three_offsets, &[8, 8, 64], 2),
    ]
}

#[test]
fn the_matrix_covers_what_it_names() {
    let p = problems();
    assert_eq!((p[0].ranks(), p[0].steps()), (16, 8));
    assert_eq!((p[1].ranks(), p[1].steps()), (4, 7));
    assert_eq!(p[2].proc_offsets(), &[vec![1]]);
    assert_eq!(p[4].ranks(), 1);
    assert_eq!(p[5].proc_offsets().len(), 3);
}

#[test]
fn built_programs_are_pinned() {
    let m = MachineParams::paper_cluster();
    let got: Vec<[u64; 2]> = problems()
        .iter()
        .map(|p| {
            [
                fingerprint(&p.blocking_programs(&m)),
                fingerprint(&p.overlapping_programs(&m)),
            ]
        })
        .collect();
    assert_eq!(got, PINNED, "{got:#x?}");
}

/// `[blocking, overlapping]` per problem of [`problems`].
const PINNED: [[u64; 2]; 6] = [
    [0x5fa1f462577fb415, 0xb13e075a236370dd],
    [0x4d0e38b3f1759bbd, 0x714cb3ab8f613f4d],
    [0xafe6d94ad0942595, 0x8976bca933ebdb0d],
    [0xfaee888cd052de3d, 0x202a1d71cc31f1b9],
    [0x424956693d894fb5, 0x424956693d894fb5],
    [0xdd8311db22c61dc5, 0xbfbc41d7c40a9165],
];
