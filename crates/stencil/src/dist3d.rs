//! Distributed execution of every kernel: the paper's §5 block layout,
//! the one executor in n dimensions.
//!
//! The processor grid covers the `i×j` cross-section (one block column
//! per rank); all tiles along `k` stay on their rank. Each pipeline step
//! processes a tile of height `V` along `k`, exchanging its `i−1`/`j−1`
//! faces as the rank's `ProcB` (eq. 3) or `ProcNB` (eq. 4) program says
//! (see [`crate::engine`]). A 2-D strip plan (Example 1, §3) is this
//! layout with a unit `i`-axis ([`crate::decomp::Decomp2D::block`]): its
//! j-column face is the block's J face, and its `(1,1)` dependence the
//! block's e₂+e₃, which the sweep seeds per lane (see [`SweepPlan`]).
//!
//! ## Structure
//!
//! **The result array is the ranks' storage, in the sweep's layout.**
//! The [`LANES`] pencils of a sweep group (see below) are the same for
//! every `k`, so a group stores them interleaved: cell `k` of lane `l`
//! at `LANES·k + l` of the group's run of `LANES·nz` floats. A rank's
//! block is its groups' runs in plan order, and the result [`Grid3D`]
//! is the ranks' blocks in rank order, with a pencil table that reads
//! it back cell by cell ([`result_grid`]). Each rank borrows its block
//! as one disjoint mutable slice — each processor owns its part of the
//! array, for every `pi × pj`, and nothing is collected or copied
//! afterwards. The masked lanes are stored too, so the result holds
//! more floats than cells: 152 lanes for the 128 pencils of an 8×16
//! block, 44 for the 32 of a 4×8 one, and 4 × on a unit-axis strip,
//! whose groups hold one pencil each.
//!
//! [`Block3D`] is the 3-D [`TileOps`] implementation: it borrows the
//! rank's block, owns one tile window of each halo plane and supplies
//! the hot paths [`crate::engine`] runs the rank's compiled program
//! over. **A tile is one skewed sweep**, the paper's linear schedule
//! inside the tile: pencil `(i, j)` runs its block `b` of [`LANES`]
//! cells in round `i + j + b`, diagonals go to the kernel [`LANES`]
//! pencils at a time (a [`LaneBlock`] through [`Kernel3D::step`]), and
//! a group reads its inputs as whole vectors from the groups one
//! diagonal back. Each cell is lifted once ([`Kernel3D::lift`]; the
//! paper kernel's `√x⁺`) into its group's slot, which is what every
//! successor reads; halo cells are lifted where they are read. The
//! walk — which pencils form which group, and where each group reads —
//! depends on the block's `(bx, by)` alone, so it is compiled once per
//! run into a [`SweepPlan`] that every rank shares. Block `b` of a
//! group is the 16 floats of its run from `LANES·(k0 + LANES·b)` on, so
//! the sweep stores each [`LaneBlock::run`] output straight into the
//! result, masked lanes and all: the buffer the sweep writes *is* the
//! result, with no copy after it. A block that runs past its tile
//! writes cells of the next one, which that tile overwrites; only a
//! block past `nz` is clipped, so every run writes every float of the
//! storage. Faces are gathered one lane of the edge groups at a time
//! into, and unpacked straight out of, transport wire storage — on a
//! slot-transport world the peer-visible slot itself — and a
//! steady-state step performs zero heap allocations (asserted by
//! `tests/zero_alloc.rs`).
//!
//! Executors are generic over any [`Communicator`]; the one-shot driver
//! [`run_dist3d_with`] compiles a decomposition and runs it on the
//! threaded backend into a fresh [`Grid3D`]. The compiled-plan runners
//! in [`crate::plan`] additionally collect per-rank [`StepObserver`]
//! output.

use crate::decomp::{self, DecompError};
use crate::engine::{self, EngineError, StepObserver, TileOps};
use crate::grid::Grid3D;
use crate::halo;
use crate::kernel::{Kernel3D, KernelTier, LaneBlock, LANES};
use crate::plan::{self, Compiled3D};
use crate::proto::{DIR_I, DIR_J};
use analyzer::RankTopology;
use msgpass::comm::Communicator;
use msgpass::fault::FaultStats;
use msgpass::thread_backend::WorldConfig;
use std::time::Duration;
use tiling_core::dependence::{Dependence, DependenceSet};
use tiling_core::schedule::StepPlan;

pub use crate::engine::ExecMode;

/// Domain decomposition of the 3-D experiment.
#[derive(Clone, Copy, Debug)]
pub struct Decomp3D {
    /// Global extent along i.
    pub nx: usize,
    /// Global extent along j.
    pub ny: usize,
    /// Global extent along k (the pipelined dimension).
    pub nz: usize,
    /// Processor-grid extent along i.
    pub pi: usize,
    /// Processor-grid extent along j.
    pub pj: usize,
    /// Tile height `V` along k.
    pub v: usize,
    /// Boundary value for out-of-range reads.
    pub boundary: f32,
}

impl Decomp3D {
    /// Arity of the tiled space.
    pub(crate) const DIMS: usize = 3;
    /// The tiled dimension the pipeline runs along: i₃, so the §5
    /// overlap schedule is `Π = [2, 2, 1]`.
    pub(crate) const MAPPING_DIM: usize = 2;

    /// The dependences pre-flight checks the schedule against: the
    /// axes e₁, e₂, e₃ of the 3-D kernels and the diagonal e₂+e₃ a
    /// unit-axis 2-D kernel reads.
    pub fn dependences() -> DependenceSet {
        let mut deps = DependenceSet::paper_3d();
        deps.push(Dependence::new(vec![0, 1, 1]));
        deps
    }

    /// The executable projection of `mode`'s schedule over this layout.
    pub fn step_plan(&self, mode: ExecMode) -> StepPlan {
        StepPlan::new(mode.strategy(), self.steps())
    }

    /// Validate divisibility and sizes.
    pub fn validate(&self) -> Result<(), DecompError> {
        decomp::require_nonempty_grid(&[self.nx, self.ny, self.nz])?;
        decomp::require_addressable(&[self.nx, self.ny, self.nz])?;
        decomp::require_nonempty_decomp(&[self.pi, self.pj, self.v])?;
        decomp::require_divides("nx", self.nx, self.pi)?;
        decomp::require_divides("ny", self.ny, self.pj)?;
        decomp::require_steps_fit(self.steps())
    }

    /// Block extent along i.
    pub fn bx(&self) -> usize {
        self.nx / self.pi
    }

    /// Block extent along j.
    pub fn by(&self) -> usize {
        self.ny / self.pj
    }

    /// Number of pipeline steps `⌈nz / V⌉`.
    pub fn steps(&self) -> usize {
        decomp::pipeline_steps(self.nz, self.v)
    }

    /// The k-range of step `k` (the last tile may be partial).
    pub(crate) fn krange(&self, k: usize) -> (usize, usize) {
        decomp::tile_range(self.nz, self.v, k)
    }

    /// Processor-grid coordinates `(ci, cj)` of `rank`: row-major over
    /// the `pi × pj` grid, so `rank = ci·pj + cj`.
    pub(crate) fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.pj, rank % self.pj)
    }
}

/// The result grid of a run of `d`, unfilled ([`Grid3D::unfilled`]),
/// in the sweep's layout (see the module docs), and the layout's sweep;
/// or the bytes its storage needs where they cannot be allocated.
/// Rank `r`'s block is the `r`-th of `d.ranks()` equal parts of
/// [`Grid3D::data`]. The sweep is built once the storage is there: it is
/// as large as a block's cross-section, so a grid larger than memory
/// is an error, not an abort.
pub(crate) fn result_grid(d: &Decomp3D) -> Result<(Grid3D, SweepPlan), usize> {
    let (bx, by, nz) = (d.bx(), d.by(), d.nz);
    // One run of LANES·nz floats per group, groups alike on every rank.
    let len = SweepPlan::groups_of(bx, by)
        .and_then(|g| g.checked_mul(LANES * nz)?.checked_mul(d.ranks()));
    let bytes = len.map_or(usize::MAX, |n| n.saturating_mul(std::mem::size_of::<f32>()));
    let cells = len.and_then(Grid3D::unfilled).ok_or(bytes)?;
    let plan = SweepPlan::of(d);
    let block = cells.len() / d.ranks();
    let base = (0..d.nx).flat_map(|gi| {
        let plan = &plan;
        (0..d.ny).map(move |gj| {
            let rank = (gi / bx) * d.pj + gj / by;
            let (g, l) = plan.lane_of((gi % bx) * by + gj % by);
            rank * block + g * LANES * nz + l
        })
    });
    let base = base.collect();
    let grid = Grid3D::with_layout(d.nx, d.ny, nz, d.boundary, cells, base, LANES);
    Ok((grid, plan))
}

/// Halo-direction indices of the 3-D block (the [`TileOps`] `dir` axis).
const FACE_I: usize = 0;
const FACE_J: usize = 1;

/// The block decomposition as a rank topology: a `pi × pj` Cartesian
/// grid where every rank ships its high-`i` face to the `(+1, 0)`
/// neighbor and its high-`j` face to the `(0, +1)` neighbor (no
/// wraparound). Pre-flight and [`Block3D`] both read this impl.
impl RankTopology for Decomp3D {
    fn ranks(&self) -> usize {
        self.pi * self.pj
    }

    fn num_dirs(&self) -> usize {
        2
    }

    fn upstream(&self, rank: usize, dir: usize) -> Option<usize> {
        let (ci, cj) = self.coords(rank);
        if dir == FACE_I {
            (ci > 0).then(|| rank - self.pj)
        } else {
            (cj > 0).then(|| rank - 1)
        }
    }

    fn downstream(&self, rank: usize, dir: usize) -> Option<usize> {
        let (ci, cj) = self.coords(rank);
        if dir == FACE_I {
            (ci + 1 < self.pi).then_some(rank + self.pj)
        } else {
            (cj + 1 < self.pj).then_some(rank + 1)
        }
    }

    fn wire_dir(&self, dir: usize) -> u64 {
        if dir == FACE_I {
            DIR_I
        } else {
            debug_assert_eq!(dir, FACE_J);
            DIR_J
        }
    }

    fn face_len(&self, _rank: usize, dir: usize, step: usize) -> usize {
        let (k0, k1) = self.krange(step);
        let width = if dir == FACE_I { self.by() } else { self.bx() };
        width * (k1 - k0)
    }

    fn same_face_until(&self, rank: usize, dir: usize, k: usize, end: usize) -> usize {
        // Every tile but the last is V long.
        let last = self.steps().saturating_sub(1);
        let len = |step| self.face_len(rank, dir, step);
        match k < last && last < end && len(last) != len(k) {
            true => last,
            false => end,
        }
    }
}

/// Up to [`LANES`] pencils of one diagonal `t = i + j` of a block,
/// stepped together: lane `l` is pencil `(i + l, t − i − l)`, with `i` a
/// multiple of [`LANES`]. Lanes `lo..hi` are inside the block; the
/// others run on whatever their inputs hold and are never read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Group {
    t: usize,
    i: usize,
    lo: usize,
    hi: usize,
    /// The group of the same `i` on diagonal `t − 1`: lane for lane the
    /// `j−1` neighbors, and one lane over the `i−1` neighbors of lanes
    /// `1..`. Where no lane of it is in the block, the number of groups:
    /// a row of the boundary splat in the sweep's buffers.
    jm1: usize,
    /// The group before that one on diagonal `t − 1`, whose last lane is
    /// lane 0's `i−1` neighbor.
    im1: Option<usize>,
}

/// The tile sweep of a block, compiled once: it depends on the block's
/// `(bx, by)` alone, so every rank of a layout runs the same one.
///
/// A tile is swept on the linear schedule `round = t + b`: every pencil
/// of diagonal `t = i + j` runs its lane block `b` (cells `b·LANES ..`,
/// [`LANES`] of them) in round `t + b`. Every input of a cell is then
/// one round old — the `i−1` and `j−1` pencils are one diagonal earlier
/// at the same block, the cell below is in the same block or the one
/// before — so the rounds are the only order there is. A tile of `len`
/// cells takes `(bx + by − 2) + ⌈len / LANES⌉` rounds of [`LANES`]
/// serial steps, each round running the diagonals that have a block in
/// the tile.
///
/// A diagonal goes to the kernel in [`Group`]s of [`LANES`] pencils,
/// cut at multiples of [`LANES`] in `i`, so that a group's inputs are
/// whole vectors the sweep already holds: the last round's output of the
/// group of the same `i` one diagonal back is, lane for lane, the `j−1`
/// inputs, and shifted by one lane the `i−1` inputs, lane 0 taking the
/// last lane of the group before it. Only the pencils on the block's
/// edges read a halo window or the boundary instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SweepPlan {
    /// Every group of the block once, by diagonal, ascending `i` inside
    /// one.
    groups: Vec<Group>,
    /// The lane of each pencil of the block, `(i, j)` row-major: lane
    /// `l` of group `g` is `g · LANES + l`.
    lanes: Vec<usize>,
    /// The block's last diagonal, `bx + by − 2`.
    last_t: usize,
}

impl SweepPlan {
    /// The sweep of the blocks of `d`. It depends on the layout alone;
    /// a run builds it once and lends it to every rank.
    pub(crate) fn of(d: &Decomp3D) -> SweepPlan {
        SweepPlan::build(d.bx(), d.by())
    }

    /// The groups of the sweep of a `bx × by` block, where `usize`
    /// counts them: chunk `c` of width `w` spans the `w + by − 1`
    /// diagonals from its first pencil's to its last's, one group on
    /// each.
    fn groups_of(bx: usize, by: usize) -> Option<usize> {
        bx.checked_add(bx.div_ceil(LANES).checked_mul(by - 1)?)
    }

    /// Compile the sweep of a `bx × by` block.
    fn build(bx: usize, by: usize) -> Self {
        let chunks = bx.div_ceil(LANES);
        let mut groups = Vec::with_capacity(Self::groups_of(bx, by).unwrap_or(0));
        let mut lanes = vec![0; bx * by];
        // The group of each `i` chunk on the last diagonal, and on this.
        let (mut last, mut here) = (vec![None; chunks], vec![None; chunks]);
        for t in 0..bx + by - 1 {
            for (c, at) in here.iter_mut().enumerate() {
                let i = c * LANES;
                // 0 ≤ j = t − i − l < by, and i + l < bx.
                let lo = (t + 1).saturating_sub(i + by);
                let hi = LANES.min(bx - i).min((t + 1).saturating_sub(i));
                *at = (lo < hi).then_some(groups.len());
                if lo < hi {
                    for l in lo..hi {
                        lanes[(i + l) * by + t - i - l] = groups.len() * LANES + l;
                    }
                    let im1 = c.checked_sub(1).and_then(|c| last[c]);
                    // Off the block: the splat row, past every group.
                    let jm1 = last[c].unwrap_or(usize::MAX);
                    groups.push(Group {
                        t,
                        i,
                        lo,
                        hi,
                        jm1,
                        im1,
                    });
                }
            }
            std::mem::swap(&mut last, &mut here);
        }
        let splat = groups.len();
        groups.iter_mut().for_each(|g| g.jm1 = g.jm1.min(splat));
        SweepPlan {
            groups,
            lanes,
            last_t: bx + by - 2,
        }
    }

    /// The group of pencil `p` of the block (`(i, j)` row-major), and
    /// its lane in it.
    fn lane_of(&self, p: usize) -> (usize, usize) {
        (self.lanes[p] / LANES, self.lanes[p] % LANES)
    }
}

/// `x` one lane over: lane `l` takes lane `l − 1`, lane 0 takes `first`.
#[inline(always)]
fn shift_in(first: [f32; LANES], x: [[f32; LANES]; LANES]) -> [[f32; LANES]; LANES] {
    core::array::from_fn(|z| core::array::from_fn(|l| if l == 0 { first[z] } else { x[z][l - 1] }))
}

/// What the sweep keeps of one lane group between its blocks and
/// tiles, lifted ([`Kernel3D::lift`]).
#[derive(Clone, Copy, Default)]
struct Lanes {
    /// Each lane's top cell of the last tile: the `k−1` input of its
    /// first cell, and one lane over the diagonal of a first cell.
    top: [f32; LANES],
    /// Each lane's `j−1` input at the last cell of its last block: the
    /// diagonal of its next block's first cell.
    diag: [f32; LANES],
}

/// Per-rank working state: the 3-D [`TileOps`] implementation. All
/// buffers are allocated once at construction and the sweep is handed
/// in compiled; the pipeline loop never allocates.
struct Block3D<'g, K> {
    d: Decomp3D,
    kernel: K,
    tier: KernelTier,
    /// Own block: every group's run of `nz` cells of its [`LANES`]
    /// lanes in plan order, `runs[g · nz + k][l]` cell `k` of group `g`'s
    /// lane `l` (see the module docs). The sweep writes it and never
    /// reads it.
    runs: &'g mut [[f32; LANES]],
    /// Cells of every pencil computed so far: `k0` of the next tile.
    taken: usize,
    plan: &'g SweepPlan,
    /// Every group's [`Lanes`], in plan order, and one of the boundary
    /// splat for the groups whose `jm1` is off the block.
    lanes: Vec<Lanes>,
    /// Every group's last block, lifted, in plan order — what the
    /// groups one diagonal on read in the next round — and a last slot
    /// of the lifted boundary splat.
    lifted: Vec<[[f32; LANES]; LANES]>,
    /// The halo windows `i = own_lo_i − 1` (`by` rows) and
    /// `j = own_lo_j − 1` (`bx` rows) in lane blocks, `row_blocks` a
    /// row: a block whose last cell is the one below the window, then
    /// the window's blocks, as received (not lifted). Empty without an
    /// upstream neighbor.
    halo: [Vec<[f32; LANES]>; 2],
    /// Blocks of a halo row.
    row_blocks: usize,
    /// Cells of a full tile.
    window: usize,
    /// Global coordinates of the block origin.
    gi0: i64,
    gj0: i64,
}

impl<'g, K: Kernel3D> Block3D<'g, K> {
    /// `plan` is the layout's [`SweepPlan::of`].
    fn new(
        d: Decomp3D,
        kernel: K,
        tier: KernelTier,
        rank: usize,
        runs: &'g mut [[f32; LANES]],
        plan: &'g SweepPlan,
    ) -> Self {
        let up = decomp::has_upstream(&d, rank);
        let (ci, cj) = d.coords(rank);
        let (bx, by) = (d.bx(), d.by());
        let window = d.krange(0).1;
        let row_blocks = 1 + window.div_ceil(LANES);
        let boundary = match tier {
            KernelTier::Bitwise => kernel.lift(d.boundary),
            KernelTier::Fast => kernel.lift_fast(d.boundary),
        };
        let splat = [boundary; LANES];
        let slots = plan.groups.len() + 1;
        Block3D {
            d,
            kernel,
            tier,
            runs,
            taken: 0,
            plan,
            lanes: vec![
                Lanes {
                    top: splat,
                    diag: splat
                };
                slots
            ],
            lifted: vec![[splat; LANES]; slots],
            halo: [(FACE_I, by), (FACE_J, bx)].map(|(dir, rows)| match up[dir] {
                true => vec![[d.boundary; LANES]; rows * row_blocks],
                false => Vec::new(),
            }),
            row_blocks,
            window,
            gi0: (ci * bx) as i64,
            gj0: (cj * by) as i64,
        }
    }

    /// Compute one tile (all of the block's cross-section over
    /// `krange(k)`) by the [`SweepPlan`], on the kernel's tier. Tiles
    /// are computed in step order, each exactly once.
    ///
    /// Results stay bitwise-identical to the sequential reference in
    /// [`crate::seq`] on the pinned tier: a single-assignment
    /// recurrence doesn't care in which order independent cells are
    /// written, and each cell's own operation order is preserved by the
    /// lift/step contract (asserted by the kernel proptests).
    fn compute_tile(&mut self, k: usize) {
        let (k0, k1) = self.d.krange(k);
        assert_eq!(k0, self.taken, "tiles are computed bottom-up");
        let kernel = self.kernel;
        match self.tier {
            KernelTier::Bitwise => self.sweep(
                k1 - k0,
                |x| kernel.lift(x),
                |i, j, k, a, c, d, s| kernel.step(i, j, k, a, c, d, s),
            ),
            KernelTier::Fast => self.sweep(
                k1 - k0,
                |x| kernel.lift_fast(x),
                |i, j, k, a, c, d, s| kernel.step_fast(i, j, k, a, c, d, s),
            ),
        }
        self.taken = k1;
    }

    /// The rounds of the plan's sweep over the next `len` cells of
    /// every pencil, through `lift` and `step`, into `self.runs`.
    #[inline(always)]
    fn sweep(
        &mut self,
        len: usize,
        lift: impl Fn(f32) -> f32,
        step: impl Fn(i64, i64, i64, f32, f32, f32, f32) -> f32,
    ) {
        let (groups, rb, nz) = (&self.plan.groups, self.row_blocks, self.d.nz);
        let k0 = self.taken;
        let blocks = len.div_ceil(LANES);
        let [halo_i, halo_j] = &self.halo;
        let (slots, lanes) = (&mut self.lifted, &mut self.lanes);
        let splat = slots[groups.len()][0];
        let lift_block = |x: [f32; LANES]| x.map(&lift);
        // The groups with a block this round: `lo..hi`.
        let (mut lo, mut hi) = (0, 0);
        for round in 0..self.plan.last_t + blocks {
            while hi < groups.len() && groups[hi].t <= round {
                hi += 1;
            }
            while groups[lo].t + blocks <= round {
                lo += 1;
            }
            // A group's inputs are block b of the groups one diagonal
            // back, which they lifted into their slots last round.
            // Those come earlier in plan order, so going down it every
            // group reads them before they store this round's block.
            for g in (lo..hi).rev() {
                let grp = &groups[g];
                let (t, i, b) = (grp.t, grp.i, round - grp.t);
                let back = slots[grp.jm1];
                let corner = match grp.im1 {
                    Some(q) => slots[q].map(|z| z[LANES - 1]),
                    None if i == 0 && grp.lo == 0 && !halo_i.is_empty() => {
                        lift_block(halo_i[t * rb + 1 + b])
                    }
                    None => splat,
                };
                // Lane `edge` is the pencil on j = 0, if the group has
                // it: it reads its j−1 inputs off the block, from the
                // halo window or the boundary.
                let (edge, row) = (t - i, t * rb);
                let edge_halo = edge < grp.hi && !halo_j.is_empty();
                let on_edge = |l: usize, off: f32, on: f32| if l == edge { off } else { on };
                let jm1 = match edge < grp.hi {
                    true => {
                        let col = edge_halo.then(|| lift_block(halo_j[row + 1 + b]));
                        let col = col.unwrap_or(splat);
                        core::array::from_fn(|z| {
                            core::array::from_fn(|l| on_edge(l, col[z], back[z][l]))
                        })
                    }
                    false => back,
                };
                // A first block starts every lane on its top cell of the
                // last tile, its diagonal on its j−1 input's; a later one
                // goes on from the group's last.
                let (diag, km1) = match b {
                    0 => {
                        let kept = edge_halo.then(|| lift(halo_j[row][LANES - 1]));
                        let kept = kept.unwrap_or(splat[0]);
                        let below = lanes[grp.jm1].top;
                        let diag = core::array::from_fn(|l| on_edge(l, kept, below[l]));
                        (diag, lanes[g].top)
                    }
                    _ => (lanes[g].diag, slots[g][LANES - 1]),
                };
                lanes[g].diag = jm1[LANES - 1];
                let blk = LaneBlock {
                    i: core::array::from_fn(|l| self.gi0 + (i + l) as i64),
                    j: core::array::from_fn(|l| self.gj0 + t as i64 - (i + l) as i64),
                    k: [(k0 + b * LANES) as i64; LANES],
                    im1: shift_in(corner, back),
                    jm1,
                    diag,
                    km1,
                };
                let (raw, up) = blk.run(&lift, &step);
                // Cells k..k + LANES of every lane, cut at nz: a full block
                // is one fixed-size store (a copy of a computed length
                // here made the whole sweep 1.16 × slower).
                let (k, run) = (k0 + b * LANES, &mut self.runs[g * nz..][..nz]);
                match run.get_mut(k..k + LANES) {
                    Some(cells) => cells.copy_from_slice(&raw),
                    None => run[k..]
                        .iter_mut()
                        .zip(raw)
                        .for_each(|(cells, z)| *cells = z),
                }
                slots[g] = up;
            }
        }
        // Each group's slot holds its last block: the tile's top cells.
        let top = (len - 1) % LANES;
        for (st, slot) in lanes.iter_mut().zip(slots.iter()).take(groups.len()) {
            st.top = slot[top];
        }
    }
}

impl<K: Kernel3D> TileOps for Block3D<'_, K> {
    fn num_dirs(&self) -> usize {
        self.d.num_dirs()
    }

    fn wire_dir(&self, dir: usize) -> u64 {
        self.d.wire_dir(dir)
    }

    fn pack_into(&mut self, dir: usize, step: usize, out: &mut [f32]) {
        // Gather the outgoing face's rows straight into the wire buffer
        // (the peer-visible slot on a slot-transport world) — the
        // block-to-kernel-buffer copy of the paper's B₂ phase is this
        // one gather of a lane of each edge group, with no further
        // staging behind it.
        let (k0, k1) = self.d.krange(step);
        assert!(k1 <= self.taken, "only computed tiles are packed");
        let (bx, by, nz) = (self.d.bx(), self.d.by(), self.d.nz);
        // Last local i: by consecutive pencils; last local j: every by-th.
        let (first, stride) = if dir == FACE_I {
            ((bx - 1) * by, 1)
        } else {
            (by - 1, by)
        };
        for (out, p) in out.chunks_exact_mut(k1 - k0).zip((first..).step_by(stride)) {
            let (g, l) = self.plan.lane_of(p);
            let cells = &self.runs[g * nz + k0..];
            out.iter_mut()
                .zip(cells)
                .for_each(|(x, lanes)| *x = lanes[l]);
        }
    }

    fn unpack_from(&mut self, dir: usize, step: usize, data: &[f32]) {
        // Scatter the received face directly from the wire payload into
        // the halo window — B₃ without an intermediate landing buffer.
        // A row holds one window: the engine unpacks a step's faces
        // after it computed the tile below and before it computes this
        // one, so the last window is read and done. Its top cell is the
        // diagonal of this window's first, kept in front of it first.
        let (k0, k1) = self.d.krange(step);
        assert_eq!(
            k0, self.taken,
            "faces are unpacked between their tile and the one below"
        );
        let (stride, window) = (self.row_blocks * LANES, self.window);
        let halo = self.halo[dir].as_flattened_mut();
        if k0 > 0 {
            let keep = |row: &mut [f32]| row[LANES - 1] = row[LANES - 1 + window];
            halo.chunks_exact_mut(stride).for_each(keep);
        }
        halo::unpack_rows(data, halo, LANES, stride, 0, k1 - k0);
    }

    fn compute(&mut self, step: usize) {
        self.compute_tile(step);
    }
}

/// One rank's execution of any 3-D kernel from a compiled plan into
/// `runs`, its block of the result (see [`result_grid`]), reporting
/// every phase to `obs`, or the typed transport/structure error that
/// stopped it. Nothing is re-derived here — the plan is executed
/// exactly as compiled. `walk` is the layout's sweep, from `c`.
pub(crate) fn run_rank3d_into<C: Communicator<f32>, K: Kernel3D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    obs: &mut O,
    runs: &mut [[f32; LANES]],
    walk: &SweepPlan,
) -> Result<(), EngineError> {
    let program = c.program(comm)?;
    let rank = comm.rank();
    let mut blk = Block3D::new(c.decomp(), kernel, tier, rank, runs, walk);
    engine::run_rank(comm, &mut blk, program, obs)
}

/// [`run_rank3d_into`] for a caller that wants one rank's block by
/// itself (rank-level tests and benches): allocate it, run into it,
/// return it — in the sweep's layout (see the module docs), masked
/// lanes included.
pub fn try_run_rank3d_plan<C: Communicator<f32>, K: Kernel3D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    obs: &mut O,
) -> Result<Vec<f32>, EngineError> {
    let d = c.decomp();
    let walk = SweepPlan::of(&d);
    let mut block = vec![0.0; walk.groups.len() * LANES * d.nz];
    let runs = block.as_chunks_mut().0;
    run_rank3d_into(comm, kernel, c, tier, obs, runs, &walk)?;
    Ok(block)
}

/// One-shot world run: compile `d` under `mode` (validation, plus the
/// pre-flight analysis unless `cfg.skip_preflight`) and run it on a
/// fresh world built from `cfg`. Returns the result grid, the
/// wall-clock time, and each rank's fault counters, or the most
/// diagnostic error (see [`EngineError::severity`]).
pub fn run_dist3d_with<K: Kernel3D>(
    kernel: K,
    d: Decomp3D,
    cfg: &WorldConfig,
    mode: ExecMode,
) -> Result<(Grid3D, Duration, Vec<FaultStats>), EngineError> {
    let c = Compiled3D::seal(d, mode, !cfg.skip_preflight)?;
    plan::run3d_with(kernel, &c, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Alignment2D, Example1, Fused3D, LongestPath3D, Paper3D, Relax3D};
    use crate::seq::{run_paper3d_seq, run_seq3d};
    use msgpass::thread_backend::LatencyModel;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// One-shot run on a zero-latency world.
    fn run<K: Kernel3D>(kernel: K, d: Decomp3D, mode: ExecMode) -> Result<Grid3D, EngineError> {
        let cfg = WorldConfig::new(LatencyModel::zero());
        run_dist3d_with(kernel, d, &cfg, mode).map(|(grid, _, _)| grid)
    }

    /// A 2×2 processor grid, 4 steps deep.
    fn two_by_two() -> Decomp3D {
        Decomp3D {
            nx: 8,
            ny: 8,
            nz: 32,
            pi: 2,
            pj: 2,
            v: 8,
            boundary: 1.0,
        }
    }

    fn check_matches_seq(d: Decomp3D, mode: ExecMode) {
        let dist = run(Paper3D, d, mode).expect("valid decomp");
        let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
        assert_eq!(
            dist.max_abs_diff(&seq),
            0.0,
            "distributed result differs ({mode:?}, {d:?})"
        );
    }

    #[test]
    fn blocking_matches_sequential_2x2() {
        check_matches_seq(two_by_two(), ExecMode::Blocking);
    }

    #[test]
    fn overlap_matches_sequential_2x2() {
        check_matches_seq(two_by_two(), ExecMode::Overlapping);
    }

    #[test]
    fn overlap_matches_sequential_4x4() {
        check_matches_seq(
            Decomp3D {
                nx: 8,
                ny: 8,
                nz: 24,
                pi: 4,
                pj: 4,
                v: 5, // non-dividing V: last tile is partial
                boundary: 2.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn blocking_matches_sequential_asymmetric() {
        check_matches_seq(
            Decomp3D {
                nx: 6,
                ny: 4,
                nz: 17,
                pi: 3,
                pj: 2,
                v: 4,
                boundary: 0.5,
            },
            ExecMode::Blocking,
        );
    }

    #[test]
    fn single_rank_trivial() {
        check_matches_seq(
            Decomp3D {
                nx: 4,
                ny: 4,
                nz: 16,
                pi: 1,
                pj: 1,
                v: 4,
                boundary: 1.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn fast_tier_stays_close_to_pinned_at_grid_level() {
        let d = Decomp3D {
            nx: 8,
            ny: 8,
            nz: 64,
            pi: 2,
            pj: 2,
            v: 16,
            boundary: 1.0,
        };
        let pinned = run(Paper3D, d, ExecMode::Overlapping).expect("pinned run");
        let cfg = WorldConfig::new(LatencyModel::zero()).with_kernel_tier(KernelTier::Fast);
        let (fast, _, _) =
            run_dist3d_with(Paper3D, d, &cfg, ExecMode::Overlapping).expect("fast run");
        let err = fast.max_abs_diff(&pinned);
        // The √ recurrence contracts perturbations, so the reassociated
        // tier stays at rounding-noise distance across the whole grid.
        assert!(err <= 1e-4, "fast tier drifted {err} from pinned");
    }

    #[test]
    fn v_equal_nz_single_step() {
        check_matches_seq(
            Decomp3D {
                nx: 4,
                ny: 4,
                nz: 8,
                pi: 2,
                pj: 2,
                v: 8,
                boundary: 1.0,
            },
            ExecMode::Blocking,
        );
    }

    #[test]
    fn v_one_fine_grain() {
        check_matches_seq(
            Decomp3D {
                nx: 4,
                ny: 4,
                nz: 6,
                pi: 2,
                pj: 2,
                v: 1,
                boundary: 1.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn v_larger_than_nz() {
        check_matches_seq(
            Decomp3D {
                nx: 4,
                ny: 4,
                nz: 5,
                pi: 2,
                pj: 2,
                v: 9, // single, clamped step
                boundary: 1.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn generic_kernels_match_sequential() {
        let d = Decomp3D {
            nx: 6,
            ny: 6,
            nz: 20,
            pi: 2,
            pj: 3,
            v: 6,
            boundary: 1.0,
        };
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let dist = run(Relax3D::default(), d, mode).expect("valid");
            let seq = run_seq3d(Relax3D::default(), d.nx, d.ny, d.nz, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "Relax3D {mode:?}");

            let dist = run(LongestPath3D, d, mode).expect("valid");
            let seq = run_seq3d(LongestPath3D, d.nx, d.ny, d.nz, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "LongestPath3D {mode:?}");

            let dist = run(Fused3D::default(), d, mode).expect("valid");
            let seq = run_seq3d(Fused3D::default(), d.nx, d.ny, d.nz, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "Fused3D {mode:?}");
        }
    }

    #[test]
    fn invalid_decomps_are_errors_not_panics() {
        let d = Decomp3D {
            nx: 7,
            ny: 8,
            nz: 8,
            pi: 2,
            pj: 2,
            v: 4,
            boundary: 0.0,
        };
        assert_eq!(
            d.validate(),
            Err(DecompError::NotDivisible {
                axis: "nx",
                extent: 7,
                parts: 2
            })
        );
        assert!(run(Paper3D, d, ExecMode::Overlapping).is_err());
        let d2 = Decomp3D { v: 0, ..d };
        assert_eq!(d2.validate(), Err(DecompError::EmptyDecomposition));
        // No compile path seals either: V = 0 must not divide by zero on
        // the way to its error, and an indivisible grid must not
        // silently run as a smaller one.
        assert_eq!(d2.steps(), 0);
        for compile in [Compiled3D::compile, Compiled3D::compile_unchecked] {
            let rejected = |bad: Decomp3D| compile(bad, ExecMode::Blocking).unwrap_err();
            assert_eq!(rejected(d2), DecompError::EmptyDecomposition.into());
            assert_eq!(rejected(d), d.validate().unwrap_err().into());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_plan_covers_the_block_once_and_reads_only_earlier_rounds(
            bx in 1usize..=13,
            by in 1usize..=13,
        ) {
            let plan = SweepPlan::build(bx, by);
            prop_assert_eq!(plan.last_t, bx + by - 2);
            // Every pencil once: each diagonal cut at multiples of LANES
            // in i, the lanes lo..hi exactly the ones in the block.
            let lane = |g: &Group, l: usize| (g.i + l, g.t - g.i - l);
            let mut pencils: Vec<(usize, usize)> = Vec::new();
            for g in &plan.groups {
                prop_assert!(g.i % LANES == 0 && g.lo < g.hi && g.hi <= LANES);
                let inside = |l: usize| g.i + l < bx && g.t >= g.i + l && g.t - g.i - l < by;
                prop_assert!((0..LANES).all(|l| inside(l) == (g.lo..g.hi).contains(&l)));
                pencils.extend((g.lo..g.hi).map(|l| lane(g, l)));
            }
            pencils.sort_unstable();
            prop_assert!(pencils.into_iter().eq((0..bx).flat_map(|i| (0..by).map(move |j| (i, j)))));
            prop_assert_eq!(SweepPlan::groups_of(bx, by), Some(plan.groups.len()));
            // Each pencil is stored as the lane that sweeps it.
            for (p, (i, j)) in (0..bx).flat_map(|i| (0..by).map(move |j| (i, j))).enumerate() {
                let (g, l) = plan.lane_of(p);
                let grp = &plan.groups[g];
                prop_assert!((grp.lo..grp.hi).contains(&l) && lane(grp, l) == (i, j));
            }
            // By diagonal, ascending i inside one.
            let keys: Vec<_> = plan.groups.iter().map(|g| (g.t, g.i)).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            // Inputs, one diagonal (so one round) back: lane for lane the
            // j−1 neighbors, one lane over the i−1 neighbors, lane 0's
            // in the group before. A lane whose neighbor is off the block
            // reads the halo or the boundary instead.
            let find = |t: usize, i: usize| plan.groups.iter().position(|g| (g.t, g.i) == (t, i));
            for g in &plan.groups {
                let back = g.t.checked_sub(1);
                let splat = plan.groups.len();
                prop_assert_eq!(g.jm1, back.and_then(|t| find(t, g.i)).unwrap_or(splat));
                let corner = back.zip(g.i.checked_sub(LANES)).and_then(|(t, i)| find(t, i));
                prop_assert_eq!(g.im1, corner);
                for l in g.lo..g.hi {
                    let (i, j) = lane(g, l);
                    if j > 0 {
                        let q = &plan.groups[g.jm1];
                        prop_assert!((q.lo..q.hi).contains(&l) && lane(q, l) == (i, j - 1));
                    }
                    if i > 0 && l > 0 {
                        let q = &plan.groups[g.jm1];
                        prop_assert!((q.lo..q.hi).contains(&(l - 1)) && lane(q, l - 1) == (i - 1, j));
                    }
                    if i > 0 && l == 0 {
                        let q = &plan.groups[g.im1.expect("the group before")];
                        prop_assert!(q.hi == LANES && lane(q, LANES - 1) == (i - 1, j));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any block shape, tile height (below `LANES`, not a multiple
        /// of it, with or without a partial last tile) and processor
        /// grid computes the sequential grid bit for bit: the 3-D
        /// kernels (`LongestPath3D` reads the coordinates) on blocks,
        /// the diagonal-reading 2-D kernels on unit-axis strips, whose
        /// diagonals are one pencil wide, so every group runs three
        /// masked lanes.
        ///
        /// Kernel 5 is Paper3D on a negative boundary, whose lifted
        /// splat is 0.
        #[test]
        fn every_layout_matches_sequential(
            (bx, by, pi, pj) in (1usize..=5, 1usize..=6, 1usize..=3, 1usize..=3),
            (v, nz) in (1usize..=11, 1usize..=40),
            kernel in 0usize..6,
            overlap in any::<bool>(),
        ) {
            let strip = matches!(kernel, 3 | 4);
            let (bx, pi) = if strip { (1, 1) } else { (bx, pi) };
            let boundary = if kernel == 5 { -1.5 } else { 1.5 };
            let d = Decomp3D { nx: bx * pi, ny: by * pj, nz, pi, pj, v, boundary };
            let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
            let same = |dist: Grid3D, seq: Grid3D| dist.max_abs_diff(&seq) == 0.0;
            let (nx, ny, b) = (d.nx, d.ny, d.boundary);
            let ok = match kernel {
                0 => same(run(Paper3D, d, mode).expect("valid"), run_seq3d(Paper3D, nx, ny, nz, b)),
                1 => same(run(Relax3D::default(), d, mode).expect("valid"), run_seq3d(Relax3D::default(), nx, ny, nz, b)),
                2 => same(run(LongestPath3D, d, mode).expect("valid"), run_seq3d(LongestPath3D, nx, ny, nz, b)),
                3 => same(run(Example1, d, mode).expect("valid"), run_seq3d(Example1, nx, ny, nz, b)),
                4 => {
                    let k = Alignment2D { alphabet: 2 };
                    same(run(k, d, mode).expect("valid"), run_seq3d(k, nx, ny, nz, b))
                }
                _ => same(run(Paper3D, d, mode).expect("valid"), run_paper3d_seq(nx, ny, nz, b)),
            };
            prop_assert!(ok, "{:?} {:?} kernel {}", d, mode, kernel);
        }
    }

    /// Lifts run by [`CountedLifts`], across every rank of a run.
    static LIFTS: AtomicUsize = AtomicUsize::new(0);

    /// Paper3D with its lifts counted.
    #[derive(Clone, Copy)]
    struct CountedLifts;

    impl Kernel3D for CountedLifts {
        fn eval(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, km1: f32, diag: f32) -> f32 {
            Paper3D.eval(i, j, k, im1, jm1, km1, diag)
        }

        fn lift(&self, x: f32) -> f32 {
            LIFTS.fetch_add(1, Relaxed);
            Paper3D.lift(x)
        }

        fn step(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, diag: f32, km1: f32) -> f32 {
            Paper3D.step(i, j, k, im1, jm1, diag, km1)
        }
    }

    /// The sweep lifts each cell it steps once, each halo cell once
    /// where it reads it, and the boundary once per rank (`eval` takes
    /// three square roots a cell). On a 4×4 block of two 4-cell tiles
    /// the plan has seven groups of one block a tile, so a rank steps
    /// 7 × 16 × 2 = 224 lane cells
    /// (the 128 cells of its pencils and the masked lanes of each
    /// diagonal), plus one lift of its boundary: 225. A rank behind an
    /// `i` face also reads its four halo rows' 4 cells a tile through
    /// lane 0 of the groups on `i = 0` (+32); one behind a `j` face
    /// reads them through the `j = 0` lane, and each row's kept top
    /// cell of the last window once a tile as a diagonal (+32 + 8).
    #[test]
    fn a_cell_is_lifted_once() {
        let d = |nx, ny, pi, pj| Decomp3D {
            nx,
            ny,
            nz: 8,
            pi,
            pj,
            v: 4,
            boundary: 1.0,
        };
        for (d, lifts) in [
            (d(4, 4, 1, 1), 225),
            (d(8, 4, 2, 1), 225 + 225 + 32),
            (d(4, 8, 1, 2), 225 + 225 + 40),
        ] {
            for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
                LIFTS.store(0, Relaxed);
                let grid = run(CountedLifts, d, mode).expect("valid");
                assert_eq!(LIFTS.load(Relaxed), lifts, "{d:?} {mode:?}");
                let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
                assert_eq!(grid.max_abs_diff(&seq), 0.0, "{d:?} {mode:?}");
            }
        }
    }

    #[test]
    fn steps_rounding() {
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz: 10,
            pi: 2,
            pj: 2,
            v: 4,
            boundary: 0.0,
        };
        assert_eq!(d.steps(), 3);
        assert_eq!(d.krange(2), (8, 10));
    }

    #[test]
    fn faces_change_length_where_the_scan_finds_it() {
        for nz in [16, 19] {
            let d = Decomp3D {
                nx: 4,
                ny: 4,
                nz,
                pi: 2,
                pj: 2,
                v: 4,
                boundary: 1.0,
            };
            for (dir, k, end) in (0..2).flat_map(|dir| {
                (0..d.steps()).flat_map(move |k| (k + 1..=d.steps()).map(move |e| (dir, k, e)))
            }) {
                let at_k = d.face_len(3, dir, k);
                let scan = (k + 1..end).find(|&j| d.face_len(3, dir, j) != at_k);
                let want = scan.unwrap_or(end);
                assert_eq!(
                    d.same_face_until(3, dir, k, end),
                    want,
                    "nz {nz}, {dir} {k} {end}"
                );
            }
        }
    }

    #[test]
    fn executors_read_the_layout_preflight_analyses() {
        use msgpass::topology::CartesianGrid;
        for (pi, pj) in [(3, 2), (1, 4)] {
            let d = Decomp3D {
                nx: 2 * pi,
                ny: 3 * pj,
                nz: 19,
                pi,
                pj,
                v: 4, // partial last tile
                boundary: 1.0,
            };
            let grid = CartesianGrid::new(vec![pi, pj]);
            for rank in 0..d.ranks() {
                let plan = SweepPlan::of(&d);
                let blk = Block3D::new(d, Paper3D, KernelTier::Bitwise, rank, &mut [], &plan);
                let dirs = (blk.num_dirs(), blk.wire_dir(FACE_I), blk.wire_dir(FACE_J));
                assert_eq!(dirs, (d.num_dirs(), DIR_I, DIR_J), "rank {rank}");
                // The layout's inline arithmetic is the row-major
                // Cartesian grid, no wraparound.
                assert_eq!(d.upstream(rank, FACE_I), grid.neighbor(rank, &[-1, 0]));
                assert_eq!(d.upstream(rank, FACE_J), grid.neighbor(rank, &[0, -1]));
                assert_eq!(d.downstream(rank, FACE_I), grid.neighbor(rank, &[1, 0]));
                assert_eq!(d.downstream(rank, FACE_J), grid.neighbor(rank, &[0, 1]));
            }
        }
    }
}
