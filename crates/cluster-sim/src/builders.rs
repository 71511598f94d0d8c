//! Program builders: unroll a tiled loop nest into per-rank message-
//! passing programs, in both the paper's execution styles.
//!
//! * [`ClusterProblem::blocking_programs`] — the §3/§5 `ProcB` structure:
//!   per time step *receive → compute → send* with blocking primitives.
//! * [`ClusterProblem::overlapping_programs`] — the §4/§5 `ProcNB`
//!   structure: post `Irecv`s for step `k+1` and `Isend`s of step `k−1`
//!   results, compute tile `k`, then wait — communication rides the
//!   NIC/DMA lanes under the computation.
//!
//! Layout follows the paper's experiments: the tiled space's cross-
//! section (all dimensions except the mapping one) *is* the processor
//! grid — one line of tiles per processor. Messages are grouped per
//! neighboring processor (one send per neighbor per step, §1: "data
//! exchanges are grouped and performed with a single message for each
//! neighboring processor"), with exact byte counts even for boundary
//! tiles clipped by the iteration space.
//!
//! Both builders are [`Program::pipeline`] — the one emitter of the
//! `ProcB`/`ProcNB` op sequence, which pre-flight analysis uses too —
//! over a per-rank [`StepSource`] (`RankSteps`): neighbour offsets are
//! resolved to ranks once, and what a step receives, computes and sends
//! is worked out once per span of steps that share a *shape*. Step `k`
//! depends on `k` only through how the space clips tiles `k` and `k+1`
//! along the mapping dimension (a message's consumer range starts in the
//! tile after its producer's), so the steps whose tile and next tile are
//! both unclipped share one, and a rank has a handful of shapes — first,
//! interior, before a partial last tile, last — however many steps it
//! runs; its program stores the ops of a handful of steps. The message of
//! step `k` to neighbour offset `qi` travels under tag
//! `k·|offsets| + qi`.

use crate::program::{Program, Rank, StepShape, StepSource};
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::{MachineParams, NodeSpeeds};
use tiling_core::mapping::ProcessorMapping;
use tiling_core::schedule::StepStrategy;
use tiling_core::space::IterationSpace;
use tiling_core::tiling::Tiling;

/// Errors constructing a [`ClusterProblem`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// The tiling is illegal or a dependence does not fit in one tile.
    BadTiling(String),
    /// Arity mismatch between space, tiling and dependences.
    ArityMismatch,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadTiling(d) => write!(f, "bad tiling: {d}"),
            BuildError::ArityMismatch => write!(f, "arity mismatch"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A tiled loop nest laid out on a processor grid, ready to be unrolled
/// into per-rank simulator programs.
#[derive(Clone, Debug)]
pub struct ClusterProblem {
    tiling: Tiling,
    deps: DependenceSet,
    space: IterationSpace,
    mapping: ProcessorMapping,
    tiled: IterationSpace,
    /// Pipeline steps per rank: tiles along the mapping dimension.
    steps: u32,
    /// Sorted distinct non-zero processor offsets tiles send to.
    proc_offsets: Vec<Vec<i64>>,
}

impl ClusterProblem {
    /// Lay out `space` tiled by `tiling` with processor mapping along
    /// `mapping_dim`.
    pub fn new(
        tiling: Tiling,
        deps: DependenceSet,
        space: IterationSpace,
        mapping_dim: usize,
    ) -> Result<Self, BuildError> {
        if tiling.dims() != space.dims() || deps.dims() != space.dims() {
            return Err(BuildError::ArityMismatch);
        }
        tiling
            .check_contains(&deps)
            .map_err(|e| BuildError::BadTiling(e.to_string()))?;
        let tiled = tiling.tiled_space(&space);
        let mapping = ProcessorMapping::along(space.dims(), mapping_dim);
        let extent = tiled.extent(mapping_dim);
        let steps = u32::try_from(extent).map_err(|_| {
            BuildError::BadTiling(format!(
                "a pipeline of {extent} steps: at most 2^32 - 1 fit"
            ))
        })?;
        let tile_deps = tiling.tile_dependences(&deps);
        let mut proc_offsets: Vec<Vec<i64>> = tile_deps
            .iter()
            .map(|d| mapping.processor_of(d.components()))
            .filter(|p| p.iter().any(|&x| x != 0))
            .collect();
        proc_offsets.sort();
        proc_offsets.dedup();
        Ok(ClusterProblem {
            tiling,
            deps,
            space,
            mapping,
            tiled,
            steps,
            proc_offsets,
        })
    }

    /// Lay out with the paper's default mapping (longest tiled dimension).
    pub fn with_longest_mapping(
        tiling: Tiling,
        deps: DependenceSet,
        space: IterationSpace,
    ) -> Result<Self, BuildError> {
        let tiled = tiling.tiled_space(&space);
        let dim = tiled.longest_dimension();
        ClusterProblem::new(tiling, deps, space, dim)
    }

    /// Number of ranks (the tiled cross-section size).
    pub fn ranks(&self) -> usize {
        self.mapping.processor_count(&self.tiled) as usize
    }

    /// Number of pipeline steps per rank (tiles along the mapping dim).
    pub fn steps(&self) -> i64 {
        self.steps.into()
    }

    /// A deterministic heterogeneous fleet sized to this problem:
    /// [`NodeSpeeds::seeded`] with one factor per rank. `spread = 0`
    /// yields the homogeneous paper cluster.
    pub fn node_speeds(&self, seed: u64, spread: f64) -> NodeSpeeds {
        NodeSpeeds::seeded(self.ranks(), seed, spread)
    }

    /// The tiled space.
    pub fn tiled_space(&self) -> &IterationSpace {
        &self.tiled
    }

    /// The processor mapping.
    pub fn mapping(&self) -> &ProcessorMapping {
        &self.mapping
    }

    /// The distinct neighbor processor offsets.
    pub fn proc_offsets(&self) -> &[Vec<i64>] {
        &self.proc_offsets
    }

    /// Full tile coordinates from (cross-section coords, mapping index).
    fn tile_at(&self, cross: &[i64], k: i64) -> Vec<i64> {
        let mdim = self.mapping.mapping_dim();
        let mut tile = cross.to_vec();
        tile.insert(mdim, self.tiled.lower()[mdim] + k);
        tile
    }

    /// Index range along dimension `d` of the tiles at coordinate `t`,
    /// clipped by the space; `None` if empty.
    fn axis_range(&self, d: usize, t: i64) -> Option<(i64, i64)> {
        let side = self.tiling.sides()[d];
        let lo = (t * side).max(self.space.lower()[d]);
        let hi = (t * side + side - 1).min(self.space.upper()[d]);
        (lo <= hi).then_some((lo, hi))
    }

    /// Iteration points of a (possibly boundary-clipped) tile.
    pub fn tile_points(&self, tile: &[i64]) -> i64 {
        let mut points = 1;
        for (d, &t) in tile.iter().enumerate() {
            let Some((lo, hi)) = self.axis_range(d, t) else {
                return 0;
            };
            points *= hi - lo + 1;
        }
        points
    }

    /// Exact payload (in iteration points) of the grouped message sent by
    /// `sender_tile` to the processor at offset `q`: for each dependence
    /// `d` and each mapping-dimension advance `m ∈ {0,1}`, count the
    /// points of the sender tile whose consumer `j + d` lands in the tile
    /// at cross-offset `q`, mapping-offset `m`.
    pub fn message_points(&self, sender_tile: &[i64], q: &[i64]) -> i64 {
        if self.tile_points(sender_tile) == 0 {
            return 0;
        }
        let mdim = self.mapping.mapping_dim();
        let mut total = 0i64;
        for m in 0..=1i64 {
            // Target tile coordinate along `d`.
            let target = |d: usize| match d.cmp(&mdim) {
                std::cmp::Ordering::Equal => sender_tile[d] + m,
                std::cmp::Ordering::Less => sender_tile[d] + q[d],
                std::cmp::Ordering::Greater => sender_tile[d] + q[d - 1],
            };
            if (0..sender_tile.len()).any(|d| self.axis_range(d, target(d)).is_none()) {
                continue;
            }
            for dep in self.deps.iter() {
                let mut vol = 1i64;
                for (d, &t) in sender_tile.iter().enumerate() {
                    let (Some((al, ah)), Some((bl, bh))) =
                        (self.axis_range(d, t), self.axis_range(d, target(d)))
                    else {
                        vol = 0;
                        break;
                    };
                    let dd = dep.components()[d];
                    let lo = al.max(bl - dd);
                    let hi = ah.min(bh - dd);
                    if lo > hi {
                        vol = 0;
                        break;
                    }
                    vol *= hi - lo + 1;
                }
                total += vol;
            }
        }
        total
    }

    /// All cross-section coordinates in row-major rank order.
    fn cross_coords(&self) -> Vec<Vec<i64>> {
        let mdim = self.mapping.mapping_dim();
        let lowers: Vec<i64> = (0..self.space.dims())
            .filter(|&d| d != mdim)
            .map(|d| self.tiled.lower()[d])
            .collect();
        let uppers: Vec<i64> = (0..self.space.dims())
            .filter(|&d| d != mdim)
            .map(|d| self.tiled.upper()[d])
            .collect();
        if lowers.is_empty() {
            return vec![vec![]];
        }
        IterationSpace::new(lowers, uppers).points().collect()
    }

    /// Rank of a cross-section coordinate (row-major), `None` if outside.
    fn rank_of_cross(&self, cross: &[i64]) -> Option<Rank> {
        let mdim = self.mapping.mapping_dim();
        let mut rank = 0usize;
        let mut ci = 0;
        for d in 0..self.space.dims() {
            if d == mdim {
                continue;
            }
            let lo = self.tiled.lower()[d];
            let hi = self.tiled.upper()[d];
            let c = cross[ci];
            if c < lo || c > hi {
                return None;
            }
            rank = rank * (hi - lo + 1) as usize + (c - lo) as usize;
            ci += 1;
        }
        Some(rank)
    }

    /// The mapping steps whose tile the space does not clip.
    fn unclipped_steps(&self) -> std::ops::Range<i64> {
        let mdim = self.mapping.mapping_dim();
        let side = self.tiling.sides()[mdim];
        let lower = self.tiled.lower()[mdim];
        let first = (self.space.lower()[mdim] + side - 1).div_euclid(side);
        let end = (self.space.upper()[mdim] + 1).div_euclid(side);
        first - lower..end - lower
    }

    /// Build the blocking (`ProcB`) program of every rank.
    pub fn blocking_programs(&self, machine: &MachineParams) -> Vec<Program> {
        self.programs(StepStrategy::Blocking, machine)
    }

    /// Build the overlapping (`ProcNB`) program of every rank.
    pub fn overlapping_programs(&self, machine: &MachineParams) -> Vec<Program> {
        self.programs(StepStrategy::Overlap, machine)
    }

    /// [`Program::pipeline`] of every rank, in rank order: the face to
    /// or from neighbour offset `qi` of step `k` travels under tag
    /// `k·|offsets| + qi`.
    pub fn programs(&self, strategy: StepStrategy, machine: &MachineParams) -> Vec<Program> {
        let stride = self.proc_offsets.len() as u64;
        (self.cross_coords().iter())
            .map(|cross| {
                Program::pipeline(strategy, &mut RankSteps::new(self, machine, cross), stride)
            })
            .collect()
    }
}

/// One rank's pipeline: neighbours resolved once, a step worked out
/// from the per-tile functions when the emitter asks for it — the first
/// of each span of steps that share a shape ([`StepSource::same_until`]).
/// Empty messages are left out.
struct RankSteps<'a> {
    problem: &'a ClusterProblem,
    machine: &'a MachineParams,
    cross: &'a [i64],
    /// Per neighbour offset: the rank data comes from, the rank it goes to.
    peers: Vec<(Option<Rank>, Option<Rank>)>,
    /// The step last asked for.
    shape: StepShape,
}

/// The cross-section coordinate `sign · q` away from `cross`.
fn offset_cross(cross: &[i64], sign: i64, q: &[i64]) -> Vec<i64> {
    cross.iter().zip(q).map(|(&c, &o)| c + sign * o).collect()
}

impl<'a> RankSteps<'a> {
    fn new(problem: &'a ClusterProblem, machine: &'a MachineParams, cross: &'a [i64]) -> Self {
        let rank_at = |sign, q| problem.rank_of_cross(&offset_cross(cross, sign, q));
        RankSteps {
            problem,
            machine,
            cross,
            peers: (problem.proc_offsets.iter())
                .map(|q| (rank_at(-1, q), rank_at(1, q)))
                .collect(),
            shape: StepShape::default(),
        }
    }
}

impl StepSource for RankSteps<'_> {
    fn steps(&self) -> u32 {
        self.problem.steps
    }

    /// Steps whose tile and next tile are both unclipped share a shape.
    fn same_until(&self, k: usize) -> usize {
        let full = self.problem.unclipped_steps();
        let k = k as i64;
        if full.start <= k && k + 1 < full.end {
            (full.end - 1) as usize
        } else {
            k as usize + 1
        }
    }

    fn step(&mut self, k: usize) -> &StepShape {
        let RankSteps {
            problem: p,
            machine,
            cross,
            peers,
            shape,
        } = self;
        let (k, elem) = (k as i64, u64::from(machine.bytes_per_elem));
        let tile = p.tile_at(cross, k);
        shape.recvs.clear();
        shape.sends.clear();
        for (qi, (q, &(src, dst))) in p.proc_offsets.iter().zip(peers.iter()).enumerate() {
            if let Some(src) = src {
                let sender_tile = p.tile_at(&offset_cross(cross, -1, q), k);
                let bytes = p.message_points(&sender_tile, q) as u64 * elem;
                if bytes > 0 {
                    shape.recvs.push((src, qi as u64, bytes));
                }
            }
            if let Some(dst) = dst {
                let bytes = p.message_points(&tile, q) as u64 * elem;
                if bytes > 0 {
                    shape.sends.push((dst, qi as u64, bytes));
                }
            }
        }
        let points = p.tile_points(&tile);
        shape.compute_us = (points > 0).then(|| machine.tile_compute_us(points));
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};

    fn toy_machine() -> MachineParams {
        use tiling_core::machine::AffineCost;
        MachineParams {
            t_c_us: 1.0,
            t_s_us: 20.0,
            t_t_us_per_byte: 0.01,
            bytes_per_elem: 4,
            fill_mpi_buffer: AffineCost::constant(10.0),
            fill_kernel_buffer: AffineCost::constant(10.0),
            transfer_curve: None,
        }
    }

    fn small_2d() -> ClusterProblem {
        // 12×20 space, 3×5 tiles ⇒ tiled 4×4; map along dim 1 (ties
        // broken explicitly).
        ClusterProblem::new(
            Tiling::rectangular(&[3, 5]),
            DependenceSet::units(2),
            IterationSpace::from_extents(&[12, 20]),
            1,
        )
        .unwrap()
    }

    #[test]
    fn layout_basics() {
        let p = small_2d();
        assert_eq!(p.ranks(), 4);
        assert_eq!(p.steps(), 4);
        assert_eq!(p.proc_offsets(), &[vec![1]]);
    }

    #[test]
    fn message_points_interior_and_boundary() {
        let p = small_2d();
        // Interior tile (1, 1): sends its i-face (5 wide? no —
        // dep e1 crosses dim-0 boundary): message to proc offset (1)
        // is the dim-0 face: 5 points (tile is 3×5, face 1×5).
        assert_eq!(p.message_points(&[1, 1], &[1]), 5);
        // Last tile row (3, _) has no consumer beyond: the message
        // would leave the space.
        assert_eq!(p.message_points(&[3, 1], &[1]), 0);
    }

    #[test]
    fn message_points_clipped_tile() {
        // Space 11×20 with 3×5 tiles: last dim-0 tile row is 2 deep.
        let p = ClusterProblem::new(
            Tiling::rectangular(&[3, 5]),
            DependenceSet::units(2),
            IterationSpace::from_extents(&[11, 20]),
            1,
        )
        .unwrap();
        // Tile (2,0) spans i ∈ 6..8, full; sends 5-point face to (3,0)
        // which spans i ∈ 9..10 (clipped but present).
        assert_eq!(p.message_points(&[2, 0], &[1]), 5);
        assert_eq!(p.message_points(&[3, 0], &[1]), 0);
    }

    #[test]
    fn tile_points_clipping() {
        let p = ClusterProblem::new(
            Tiling::rectangular(&[3, 5]),
            DependenceSet::units(2),
            IterationSpace::from_extents(&[11, 18]),
            1,
        )
        .unwrap();
        assert_eq!(p.tile_points(&[0, 0]), 15);
        assert_eq!(p.tile_points(&[3, 0]), 10); // 2×5
        assert_eq!(p.tile_points(&[3, 3]), 6); // 2×3
        assert_eq!(p.tile_points(&[4, 0]), 0);
    }

    #[test]
    fn programs_validate() {
        let p = small_2d();
        let m = toy_machine();
        for prog in p.blocking_programs(&m) {
            prog.validate().unwrap();
        }
        for prog in p.overlapping_programs(&m) {
            prog.validate().unwrap();
        }
    }

    #[test]
    fn blocking_simulation_completes() {
        let p = small_2d();
        let m = toy_machine();
        let res = simulate(SimConfig::new(m), p.blocking_programs(&m)).unwrap();
        assert!(res.makespan > crate::time::SimTime::ZERO);
    }

    #[test]
    fn overlapping_simulation_completes_and_beats_blocking() {
        // Make compute heavy enough that overlap can hide communication.
        let p = ClusterProblem::new(
            Tiling::rectangular(&[4, 50]),
            DependenceSet::units(2),
            IterationSpace::from_extents(&[16, 400]),
            1,
        )
        .unwrap();
        let m = toy_machine();
        let blocking = simulate(SimConfig::new(m), p.blocking_programs(&m)).unwrap();
        let overlap = simulate(SimConfig::new(m), p.overlapping_programs(&m)).unwrap();
        assert!(
            overlap.makespan < blocking.makespan,
            "overlap {} vs blocking {}",
            overlap.makespan,
            blocking.makespan
        );
    }

    #[test]
    fn three_dimensional_paper_layout() {
        // Miniature of the paper's experiment: 4×4 processor grid,
        // tiles 2×2×8 over an 8×8×64 space.
        let p = ClusterProblem::with_longest_mapping(
            Tiling::rectangular(&[2, 2, 8]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[8, 8, 64]),
        )
        .unwrap();
        assert_eq!(p.ranks(), 16);
        assert_eq!(p.steps(), 8);
        assert_eq!(p.proc_offsets().len(), 2);
        let m = toy_machine();
        let blocking = simulate(SimConfig::new(m), p.blocking_programs(&m)).unwrap();
        let overlap = simulate(SimConfig::new(m), p.overlapping_programs(&m)).unwrap();
        assert!(overlap.makespan < blocking.makespan);
    }

    #[test]
    fn diagonal_dependences_grouped_per_processor() {
        // Example-1 structure: deps {(1,1),(1,0),(0,1)}, mapping along 0:
        // exactly one neighbor offset (+1 in the cross dim), messages
        // grouped.
        let p = ClusterProblem::new(
            Tiling::rectangular(&[10, 10]),
            DependenceSet::example_1(),
            IterationSpace::from_extents(&[100, 40]),
            0,
        )
        .unwrap();
        assert_eq!(p.proc_offsets(), &[vec![1]]);
        // Grouped message from an interior tile: (0,1) parts 10 + (1,1)
        // parts… d=(0,1): m=0 target (0,1): overlap dim0 = 10, dim1 = 1
        // ⇒ 10. d=(1,1): m=1 target (1,1): 1·1 = 1; m=0 target (0,1):
        // dim0 overlap for +1: j+1 ∈ same tile ⇒ 9, dim1 = 1 ⇒ 9.
        // d=(1,0): m=1 target (1,0)? cross part 0 ≠ q: not counted.
        // Total = 10 + 1 + 9 = 20 = V_comm of Example 1. ✓
        assert_eq!(p.message_points(&[1, 1], &[1]), 20);
        let m = toy_machine();
        let res = simulate(SimConfig::new(m), p.overlapping_programs(&m)).unwrap();
        assert!(res.makespan > crate::time::SimTime::ZERO);
    }

    #[test]
    fn single_rank_problem_runs() {
        // Mapping dimension = only extended dimension: one rank, no
        // messages at all.
        let p = ClusterProblem::new(
            Tiling::rectangular(&[4, 4]),
            DependenceSet::units(2),
            IterationSpace::from_extents(&[4, 64]),
            1,
        )
        .unwrap();
        assert_eq!(p.ranks(), 1);
        let m = toy_machine();
        let blocking = simulate(SimConfig::new(m), p.blocking_programs(&m)).unwrap();
        // 16 tiles × 16 points × 1 µs.
        assert_eq!(blocking.makespan, crate::time::SimTime::from_us(256.0));
    }

    #[test]
    fn rejects_uncontained_dependence() {
        let err = ClusterProblem::new(
            Tiling::rectangular(&[2, 2]),
            DependenceSet::from_vectors(2, vec![vec![3, 0]]),
            IterationSpace::from_extents(&[8, 8]),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::BadTiling(_)));
    }

    #[test]
    fn rejects_a_pipeline_of_2_pow_32_steps() {
        // 2³² + 2 tiles along the mapping dimension: an event names its
        // step in 32 bits, so the layout is refused, not built.
        let err = ClusterProblem::new(
            Tiling::rectangular(&[2, 2, 2]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[2, 2, (1 << 33) + 4]),
            2,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::BadTiling(_)), "{err}");
        assert!(err.to_string().contains("4294967298 steps"), "{err}");
    }

    #[test]
    fn programs_are_stored_by_shape_not_by_step() {
        // 4095½ tiles per rank: first, interior, partial last — a
        // handful of distinct steps per rank for ~40 000 ops.
        let p = ClusterProblem::new(
            Tiling::rectangular(&[4, 4, 4]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[8, 8, 4 * 4096 - 2]),
            2,
        )
        .unwrap();
        let m = toy_machine();
        for programs in [p.blocking_programs(&m), p.overlapping_programs(&m)] {
            for prog in &programs {
                assert!(prog.len() > 4096);
                assert!(prog.stored_ops() <= 64, "{}", prog.stored_ops());
            }
        }
    }

    #[test]
    fn overlap_schedule_length_matches_simulated_steps() {
        // With communication ≈ compute (UET-UCT regime), the simulated
        // makespan is close to P(g) · step where P(g) is the overlap
        // plane count — the pipeline is tight.
        use tiling_core::schedule::{StepStrategy, TileSchedule};
        let tiling = Tiling::rectangular(&[4, 16]);
        let deps = DependenceSet::units(2);
        let space = IterationSpace::from_extents(&[16, 256]);
        let p = ClusterProblem::new(tiling, deps, space, 1).unwrap();
        let m = toy_machine();
        let res = simulate(SimConfig::new(m), p.overlapping_programs(&m)).unwrap();
        let sched = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 1);
        let planes = sched.schedule_length(p.tiled_space());
        // Step cost lower bound: the compute alone (64 µs).
        let lower = planes as f64 * 64.0;
        assert!(res.makespan.as_us() >= 0.8 * lower);
    }
}
