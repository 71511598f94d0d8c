//! The programs pre-flight checks: every rank's ordered send, receive,
//! wait and compute ops, derived from a [`StepPlan`] and a
//! [`RankTopology`] by the simulator's own `ProcB`/`ProcNB` emitter
//! ([`Program::pipeline`]) — the op sequence the simulator prices and
//! the stencil thread executor (`stencil::engine::run_rank`) interprets
//! op by op: a message's tag is `step · TAG_STRIDE + wire direction`,
//! its length `bytes / ELEM_BYTES` elements, and a compute is labelled
//! with its step.
//!
//! Building them is cheap — `O(ranks × steps × dirs)` face lengths
//! looked up, the ops of each distinct step written once — and
//! allocation-frugal: one step shape is refilled for the first step of
//! each span of equal face lengths, so a pre-flight check adds a
//! constant number of allocations per rank regardless of pipeline
//! depth — the
//! zero-allocation discipline of the executors (`tests/zero_alloc.rs`)
//! is preserved with the checker enabled.

use crate::error::AnalysisError;
use cluster_sim::program::{Program, StepShape, StepSource};
use tiling_core::schedule::StepPlan;

/// Bytes per face element: the executors exchange `f32` faces.
pub const ELEM_BYTES: u64 = 4;

/// How far a face's tag advances per step: the `dir`-face of step `k`
/// travels under `k · TAG_STRIDE + wire_dir(dir)`, the wire protocol
/// the executors use (`stencil::proto::tag`).
pub const TAG_STRIDE: u64 = 2;

/// Static description of a world's communication structure: who talks
/// to whom, over which halo directions, with which face sizes. The
/// stencil decompositions implement this for their rank layouts; tests
/// implement it to seed known-bad worlds.
pub trait RankTopology {
    /// Number of ranks in the world.
    fn ranks(&self) -> usize;

    /// Number of halo directions every rank exposes.
    fn num_dirs(&self) -> usize;

    /// The rank `rank` receives `dir`-faces from, if any.
    fn upstream(&self, rank: usize, dir: usize) -> Option<usize>;

    /// The rank `rank` sends its `dir`-face to, if any.
    fn downstream(&self, rank: usize, dir: usize) -> Option<usize>;

    /// The wire-protocol direction code of `dir`.
    fn wire_dir(&self, dir: usize) -> u64;

    /// Element count of the `dir`-face of `step` as staged by `rank`
    /// (and expected by its downstream peer).
    fn face_len(&self, rank: usize, dir: usize, step: usize) -> usize;

    /// The first step after `k`, at most `end`, whose `dir`-face of
    /// `rank` is not as long as step `k`'s. A layout knows where its
    /// faces change length, so this answers at once, however long the
    /// pipeline.
    fn same_face_until(&self, rank: usize, dir: usize, k: usize, end: usize) -> usize;
}

/// Most ranks pre-flight emits programs for: a plan over more is
/// [`AnalysisError::TooManyRanks`]. A world runs a thread per rank, and
/// the checks keep per-rank state.
pub const MAX_RANKS: usize = 1 << 12;

/// Every rank's program of `plan` over `topo`, indexed by rank: per
/// step one face per existing upstream and downstream direction, in
/// direction order, under the wire's tags ([`TAG_STRIDE`]), and a
/// zero-cost compute — or [`AnalysisError::TooManySteps`] for a plan of
/// `2³²` steps or more: an event names its step in 32 bits — or
/// [`AnalysisError::TooManyRanks`] over [`MAX_RANKS`].
pub fn programs(topo: &dyn RankTopology, plan: &StepPlan) -> Result<Vec<Program>, AnalysisError> {
    let ranks = topo.ranks();
    if ranks > MAX_RANKS {
        return Err(AnalysisError::TooManyRanks { ranks });
    }
    let steps = plan.steps();
    let mut faces = Faces {
        topo,
        rank: 0,
        steps: u32::try_from(steps).map_err(|_| AnalysisError::TooManySteps { steps })?,
        links: Vec::with_capacity(topo.num_dirs()),
        shape: StepShape {
            compute_us: Some(0.0),
            ..StepShape::default()
        },
    };
    Ok((0..topo.ranks())
        .map(|rank| {
            faces.rank = rank;
            faces.links.clear();
            faces.links.extend((0..topo.num_dirs()).filter_map(|dir| {
                let (up, down) = (topo.upstream(rank, dir), topo.downstream(rank, dir));
                (up.is_some() || down.is_some()).then_some((dir, topo.wire_dir(dir), up, down))
            }));
            Program::pipeline(plan.strategy(), &mut faces, TAG_STRIDE)
        })
        .collect())
}

/// Rank `rank`'s pipeline over `topo`, one shape refilled per step.
struct Faces<'a> {
    topo: &'a dyn RankTopology,
    rank: usize,
    steps: u32,
    /// The rank's directions with a peer: `(dir, wire direction,
    /// upstream, downstream)`.
    links: Vec<(usize, u64, Option<usize>, Option<usize>)>,
    shape: StepShape,
}

impl StepSource for Faces<'_> {
    fn steps(&self) -> u32 {
        self.steps
    }

    /// Steps whose faces are as long as step `k`'s have its shape.
    fn same_until(&self, k: usize) -> usize {
        (self.links.iter()).fold(self.steps as usize, |end, &(dir, ..)| {
            self.topo.same_face_until(self.rank, dir, k, end)
        })
    }

    fn step(&mut self, k: usize) -> &StepShape {
        let s = &mut self.shape;
        s.recvs.clear();
        s.sends.clear();
        for &(dir, wire, up, down) in &self.links {
            let bytes = ELEM_BYTES * self.topo.face_len(self.rank, dir, k) as u64;
            s.recvs.extend(up.map(|from| (from, wire, bytes)));
            s.sends.extend(down.map(|to| (to, wire, bytes)));
        }
        s
    }
}
