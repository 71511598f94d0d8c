//! The programs pre-flight checks: every rank's ordered send, receive,
//! wait and compute ops, derived from a [`StepPlan`] and a
//! [`RankTopology`] by the simulator's own `ProcB`/`ProcNB` emitter
//! ([`Program::pipeline`]) — the op sequence the engine executes
//! (`stencil::engine::run_blocking` / `run_overlap`) and the simulator
//! prices.
//!
//! Building them is cheap (`O(ranks × steps × dirs)` ops) and
//! allocation-frugal: every program is sized from its first step and
//! one step shape is refilled for every step of every rank, so a
//! pre-flight check adds a constant number of allocations per rank
//! regardless of pipeline depth — the zero-allocation discipline of the
//! executors (`tests/zero_alloc.rs`) is preserved with the checker
//! enabled.

use crate::error::Tag;
use cluster_sim::program::{Program, StepShape, StepSource};
use tiling_core::schedule::StepPlan;

/// Bytes per face element: the executors exchange `f32` faces.
pub const ELEM_BYTES: u64 = 4;

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

    /// The message tag of the `dir`-face of `step` — must agree with
    /// the wire protocol the executors use (`stencil::proto::tag`).
    fn tag(&self, step: usize, dir: usize) -> Tag {
        (step as u64) * 2 + self.wire_dir(dir)
    }
}

/// Every rank's program of `plan` over `topo`, indexed by rank: per
/// step one face per existing upstream and downstream direction, in
/// direction order, and a zero-cost compute.
pub fn programs(topo: &dyn RankTopology, plan: &StepPlan) -> Vec<Program> {
    let mut faces = Faces {
        topo,
        rank: 0,
        steps: plan.steps(),
        links: Vec::with_capacity(topo.num_dirs()),
        shape: StepShape {
            compute_us: Some(0.0),
            ..StepShape::default()
        },
    };
    (0..topo.ranks())
        .map(|rank| {
            faces.rank = rank;
            faces.links.clear();
            faces.links.extend((0..topo.num_dirs()).filter_map(|dir| {
                let (up, down) = (topo.upstream(rank, dir), topo.downstream(rank, dir));
                (up.is_some() || down.is_some()).then_some((dir, up, down))
            }));
            Program::pipeline(plan.strategy(), &mut faces, |k, dir| topo.tag(k, dir))
        })
        .collect()
}

/// Rank `rank`'s pipeline over `topo`, one shape refilled per step.
struct Faces<'a> {
    topo: &'a dyn RankTopology,
    rank: usize,
    steps: usize,
    /// The rank's directions with a peer: `(dir, upstream, downstream)`.
    links: Vec<(usize, Option<usize>, Option<usize>)>,
    shape: StepShape,
}

impl StepSource for Faces<'_> {
    fn steps(&self) -> usize {
        self.steps
    }

    fn step(&mut self, k: usize) -> &StepShape {
        let s = &mut self.shape;
        s.recvs.clear();
        s.sends.clear();
        for &(dir, up, down) in &self.links {
            let bytes = ELEM_BYTES * self.topo.face_len(self.rank, dir, k) as u64;
            s.recvs.extend(up.map(|from| (from, dir, bytes)));
            s.sends.extend(down.map(|to| (to, dir, bytes)));
        }
        s
    }
}
