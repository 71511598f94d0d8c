//! The program builders against the public per-tile oracle.
//!
//! `blocking_programs` / `overlapping_programs` describe a pipeline
//! step once per distinct *shape* and reuse the description; this suite
//! re-derives every step of every rank from the unchanged public
//! per-tile functions ([`ClusterProblem::tile_points`],
//! [`ClusterProblem::message_points`]) and demands the programs be
//! op-for-op what the one §5 `ProcB` / `ProcNB` emitter,
//! [`Program::pipeline`], makes of those steps — over spaces whose
//! first *and* last tiles are clipped on every axis, `V ≥ extent`,
//! `V = 1`, both schedules. The emitter's own op order is pinned by
//! `golden_programs`.

use cluster_sim::prelude::*;
use cluster_sim::program::{StepShape, StepSource};
use proptest::prelude::*;
use tiling_core::machine::MachineParams;
use tiling_core::prelude::*;

/// One axis of a generated problem: `(lower bound, extent, tile side)`.
type Axis = (i64, i64, i64);

#[derive(Clone, Debug)]
struct Case {
    axes: Vec<Axis>,
    mapping_dim: usize,
    deps: Vec<Vec<i64>>,
}

/// A cross axis: non-zero lower bound, a side that does not have to
/// divide anything, at most a handful of tiles.
fn cross_axis() -> impl Strategy<Value = Axis> {
    (-7i64..=9, 1i64..=11, 1i64..=5)
}

/// The mapping axis: `V` from 1 (every tile one plane) up past the
/// extent (one tile per rank).
fn mapping_axis() -> impl Strategy<Value = Axis> {
    (
        -7i64..=9,
        1i64..=40,
        prop_oneof![Just(1i64), 2i64..=9, 41i64..=64],
    )
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(cross_axis(), 1..=2),
        mapping_axis(),
        0usize..=2,
        prop::collection::vec(prop::collection::vec(0i64..=2, 3), 1..=3),
    )
        .prop_map(|(cross, mapping, at, raw_deps)| {
            let mapping_dim = at.min(cross.len());
            let mut axes = cross;
            axes.insert(mapping_dim, mapping);
            // A dependence must fit inside one tile: clamp each
            // component below the side (so `V = 1` forces a zero
            // mapping component).
            let deps = raw_deps
                .into_iter()
                .map(|d| {
                    axes.iter()
                        .zip(d)
                        .map(|(&(_, _, side), c)| c.min(side - 1))
                        .collect::<Vec<i64>>()
                })
                .filter(|d| d.iter().any(|&c| c != 0))
                .collect();
            Case {
                axes,
                mapping_dim,
                deps,
            }
        })
}

fn build(c: &Case) -> Option<ClusterProblem> {
    if c.deps.is_empty() {
        return None;
    }
    let dims = c.axes.len();
    let lower: Vec<i64> = c.axes.iter().map(|a| a.0).collect();
    let upper: Vec<i64> = c.axes.iter().map(|a| a.0 + a.1 - 1).collect();
    let sides: Vec<i64> = c.axes.iter().map(|a| a.2).collect();
    ClusterProblem::new(
        Tiling::rectangular(&sides),
        DependenceSet::from_vectors(dims, c.deps.clone()),
        IterationSpace::new(lower, upper),
        c.mapping_dim,
    )
    .ok()
}

/// Cross-section coordinates of a rank (row-major, last axis fastest).
fn cross_of(p: &ClusterProblem, rank: usize) -> Vec<i64> {
    let tiled = p.tiled_space();
    let mdim = p.mapping().mapping_dim();
    let cross_dims: Vec<usize> = (0..tiled.dims()).filter(|&d| d != mdim).collect();
    let mut rest = rank;
    let mut cross = vec![0; cross_dims.len()];
    for (ci, &d) in cross_dims.iter().enumerate().rev() {
        let extent = tiled.extent(d) as usize;
        cross[ci] = tiled.lower()[d] + (rest % extent) as i64;
        rest /= extent;
    }
    cross
}

/// Rank of a cross-section coordinate, `None` outside the grid.
fn rank_of(p: &ClusterProblem, cross: &[i64]) -> Option<usize> {
    (0..p.ranks()).find(|&r| cross_of(p, r) == cross)
}

fn tile_at(p: &ClusterProblem, cross: &[i64], k: i64) -> Vec<i64> {
    let mdim = p.mapping().mapping_dim();
    let mut tile = cross.to_vec();
    tile.insert(mdim, p.tiled_space().lower()[mdim] + k);
    tile
}

/// What step `k` of the rank at `cross` receives, computes and sends,
/// straight from the per-tile functions.
fn step(p: &ClusterProblem, m: &MachineParams, cross: &[i64], k: i64) -> StepShape {
    let elem = u64::from(m.bytes_per_elem);
    let tile = tile_at(p, cross, k);
    let mut s = StepShape::default();
    for (qi, q) in p.proc_offsets().iter().enumerate() {
        let src_cross: Vec<i64> = cross.iter().zip(q).map(|(c, o)| c - o).collect();
        if let Some(src) = rank_of(p, &src_cross) {
            let bytes = p.message_points(&tile_at(p, &src_cross, k), q) as u64 * elem;
            if bytes > 0 {
                s.recvs.push((src, qi as u64, bytes));
            }
        }
        let dst_cross: Vec<i64> = cross.iter().zip(q).map(|(c, o)| c + o).collect();
        if let Some(dst) = rank_of(p, &dst_cross) {
            let bytes = p.message_points(&tile, q) as u64 * elem;
            if bytes > 0 {
                s.sends.push((dst, qi as u64, bytes));
            }
        }
    }
    let points = p.tile_points(&tile);
    if points > 0 {
        s.compute_us = Some(m.tile_compute_us(points));
    }
    s
}

/// The oracle as a step source: every step worked out afresh.
struct Oracle<'a> {
    p: &'a ClusterProblem,
    m: &'a MachineParams,
    cross: Vec<i64>,
    shape: StepShape,
}

impl StepSource for Oracle<'_> {
    fn steps(&self) -> u32 {
        self.p.steps() as u32
    }

    fn step(&mut self, k: usize) -> &StepShape {
        self.shape = step(self.p, self.m, &self.cross, k as i64);
        &self.shape
    }
}

/// The §5 program of `rank` from the oracle's steps, under tag
/// `k·|offsets| + qi`.
fn expected(p: &ClusterProblem, m: &MachineParams, rank: usize, s: StepStrategy) -> Program {
    let (cross, shape) = (cross_of(p, rank), StepShape::default());
    let stride = p.proc_offsets().len() as u64;
    Program::pipeline(s, &mut Oracle { p, m, cross, shape }, stride)
}

/// Every op of every rank is what the per-tile oracle says, in the
/// schedule's order; the programs validate and simulate.
fn check(c: &Case, p: &ClusterProblem, duplex: bool) -> Result<(), String> {
    let m = MachineParams::paper_cluster();
    let blocking = p.blocking_programs(&m);
    let overlap = p.overlapping_programs(&m);
    if blocking.len() != p.ranks() || overlap.len() != p.ranks() {
        return Err(format!("{c:?}: one program per rank expected"));
    }
    for rank in 0..p.ranks() {
        if !blocking[rank]
            .ops()
            .eq(expected(p, &m, rank, StepStrategy::Blocking).ops())
        {
            return Err(format!("{c:?}: blocking rank {rank} differs"));
        }
        if !overlap[rank]
            .ops()
            .eq(expected(p, &m, rank, StepStrategy::Overlap).ops())
        {
            return Err(format!("{c:?}: overlapping rank {rank} differs"));
        }
        for prog in [&blocking[rank], &overlap[rank]] {
            prog.validate()
                .map_err(|e| format!("{c:?}: rank {rank}: {e}"))?;
        }
    }
    let cfg = SimConfig::new(m).with_trace(false).with_duplex(duplex);
    simulate(cfg, blocking).map_err(|e| format!("{c:?}: blocking: {e}"))?;
    simulate(cfg, overlap).map_err(|e| format!("{c:?}: overlapping: {e}"))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn programs_match_the_per_tile_oracle(c in case(), duplex in any::<bool>()) {
        let Some(p) = build(&c) else {
            return Err(TestCaseError::reject("tiling does not contain the dependences"));
        };
        if let Err(msg) = check(&c, &p, duplex) {
            return Err(TestCaseError::fail(msg));
        }
    }
}

/// The shapes the hoisting has to get right, spelled out so the suite
/// does not depend on the generator happening to reach them.
#[test]
fn named_edge_shapes_match_the_oracle() {
    let case = |axes: &[Axis], mapping_dim: usize, deps: &[&[i64]]| Case {
        axes: axes.to_vec(),
        mapping_dim,
        deps: deps.iter().map(|d| d.to_vec()).collect(),
    };
    let cases = [
        // Lower- and upper-clipped on every axis, 3-D, diagonal deps.
        case(
            &[(3, 10, 4), (-2, 9, 4), (5, 37, 6)],
            2,
            &[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1], &[1, 1, 1]],
        ),
        // Two tiles, both clipped: "first" and "next-tile-partial"
        // describe the same step.
        case(&[(1, 7, 4), (2, 7, 5)], 1, &[&[1, 1], &[1, 0]]),
        // V >= extent: one tile per rank, first and last at once.
        case(&[(1, 6, 2), (3, 9, 50)], 1, &[&[1, 0], &[1, 2]]),
        // V = 1: the mapping component of every dependence is zero.
        case(&[(0, 8, 3), (-3, 12, 1)], 1, &[&[1, 0], &[2, 0]]),
        // Mapping along the first axis of a 3-D space.
        case(
            &[(-5, 23, 7), (1, 5, 2), (0, 6, 3)],
            0,
            &[&[1, 0, 1], &[0, 1, 0], &[2, 1, 1]],
        ),
        // One rank, no messages at all.
        case(&[(2, 3, 4), (1, 30, 4)], 1, &[&[0, 1]]),
    ];
    for c in &cases {
        let p = build(c).unwrap_or_else(|| panic!("{c:?} must build"));
        for duplex in [false, true] {
            check(c, &p, duplex).unwrap_or_else(|msg| panic!("{msg}"));
        }
    }
}
