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
//! block's e₂+e₃, which a lane reads off its `j−1` inputs (see
//! [`SweepPlan`]).
//!
//! ## Structure
//!
//! **The result array is the ranks' storage, in the sweep's layout.**
//! A sweep group (see below) is the [`LANES`] pencils `(4c + l, j)` of
//! one row, lane `l` one cell behind lane `l − 1`, so a group stores them
//! skewed as it steps them: cell `k` of lane `l` at `LANES·(k + l) + l`
//! of the group's run of `LANES·(nz + 3)` floats. A rank's block is its
//! groups' runs in plan order, and the result [`Grid3D`] is the ranks'
//! blocks in rank order, with a pencil table that reads it back cell by
//! cell ([`result_grid`]). Each rank borrows its block as one disjoint
//! mutable slice — each processor owns its part of the array, for every
//! `pi × pj`, and nothing is collected or copied afterwards. The result
//! holds `⌈bx/4⌉ · by · 4 · (nz + 3)` floats a rank: the skew's three
//! quads a run, and masked lanes only where `4 ∤ bx` (4 × on a unit-axis
//! strip, whose groups hold one pencil each).
//!
//! [`Block3D`] is the 3-D [`TileOps`] implementation: it borrows the
//! rank's block, owns one tile window of each halo plane and supplies
//! the hot paths [`crate::engine`] runs the rank's compiled program
//! over. **A tile is one skewed sweep**, the paper's linear schedule
//! `Π = (1, 1, 1)` at cell grain inside the tile: cell `(i, j, k)` is
//! stepped at `i + j + k`, a row group's four lanes at a time (a
//! [`LaneBlock`] through [`Kernel3D::step`]), and a group reads its
//! inputs as whole vectors from the groups one row and one chunk back.
//! Each cell is lifted once ([`Kernel3D::lift`]; the paper kernel's
//! `√x⁺`) into its group's slot, which is what every successor reads;
//! halo cells are lifted where they are read. The walk — which pencils
//! form which group, and where each group reads — depends on the
//! block's `(bx, by)` alone, so it is compiled once per run into a
//! [`SweepPlan`] that every rank shares. Block `R` of a group in a tile
//! from `k0` is the 16 floats of its run from `LANES·(k0 + LANES·R)` on,
//! so the sweep stores each [`LaneBlock::run`] output straight into the
//! result: the buffer the sweep writes *is* the result, with no copy
//! after it. A tile's first block goes on from the group's step before
//! the tile, so its late lanes rerun the tile below's last cells and
//! store the same bits again; a block that runs past its tile writes
//! cells of the next one, which that tile overwrites; only a block past
//! the run is clipped, so every run writes every float of the storage.
//! Faces are gathered one lane of the edge groups at a time into, and
//! unpacked straight out of, transport wire storage — on a slot-transport
//! world the peer-visible slot itself — and a steady-state step performs
//! zero heap allocations (asserted by `tests/zero_alloc.rs`).
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
    // One run of RUN_PAD + nz quads per group, groups alike on every rank.
    let len = (SweepPlan::groups_of(bx, by).zip(nz.checked_add(RUN_PAD)))
        .and_then(|(g, quads)| g.checked_mul(quads)?.checked_mul(LANES * d.ranks()));
    let bytes = len.map_or(usize::MAX, |n| n.saturating_mul(std::mem::size_of::<f32>()));
    let cells = len.and_then(Grid3D::unfilled).ok_or(bytes)?;
    let plan = SweepPlan::of(d);
    let block = cells.len() / d.ranks();
    let base = (0..d.nx).flat_map(|gi| {
        let plan = &plan;
        (0..d.ny).map(move |gj| {
            let rank = (gi / bx) * d.pj + gj / by;
            let (g, l) = plan.lane_of((gi % bx) * by + gj % by);
            // Cell k of lane l at LANES·(k + l) + l of its group's run.
            rank * block + g * LANES * (nz + RUN_PAD) + (LANES + 1) * l
        })
    });
    let base = base.collect();
    let grid = Grid3D::with_layout(d.nx, d.ny, nz, d.boundary, cells, base, LANES);
    Ok((grid, plan))
}

/// Quads a group's run holds past its `nz`: lane `l` runs `l` cells
/// behind lane 0, so its cell `k` is in quad `k + l`.
const RUN_PAD: usize = LANES - 1;

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

/// The [`LANES`] pencils `(LANES·c + l, j)` of one row of a block,
/// stepped together (lanes past `bx` are masked: they run on whatever
/// their inputs hold and are never read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Group {
    c: usize,
    j: usize,
    /// The super-round of the group's block 0: `j + 2c`.
    key: usize,
    /// The group `(c, j − 1)`: lane for lane the `j−1` neighbors. Where
    /// `j = 0`, the number of groups.
    jm1: usize,
    /// The group `(c − 1, j)`, whose last lane is lane 0's `i−1`
    /// neighbor.
    im1: Option<usize>,
}

/// The tile sweep of a block, compiled once: it depends on the block's
/// `(bx, by)` alone, so every rank of a layout runs the same one.
///
/// A tile is swept on the paper's linear schedule at cell grain: cell
/// `(i, j, k)` is stepped at `i + j + k`, [`LANES`] pencils of one row at
/// a time. Group `(c, j)` holds the pencils `(LANES·c + l, j)`, lane `l`
/// one cell behind lane `l − 1` ([`LaneBlock`]), and a tile of `len`
/// cells takes it `len + LANES − 1` steps, in `⌈(len + 3) / 4⌉` blocks of
/// [`LANES`]. The group runs its block `R` in super-round `R + j + 2c`,
/// so every input is a block of an earlier super-round:
///
/// - the `j−1` inputs are block `R` of group `(c, j − 1)`, lane for
///   lane, and the diagonals that block one step back;
/// - lane `l ≥ 1`'s `i−1` input is lane `l − 1`'s last step, inside the
///   block; lane 0's is the last lane of `(c − 1, j)` one step on, read
///   from its blocks `R` and `R + 1`.
///
/// The groups of one super-round are therefore independent, and a block
/// of `bx × by` has `⌈bx / 4⌉ · by` groups, none with a masked lane when
/// `4 | bx`. Only the pencils on the block's edges read a halo window
/// or the boundary instead. A tile's block 0 goes on from the group's
/// step before the tile: lane `l`'s steps before it reaches the tile
/// rerun its last `l` cells of the tile below, bit for bit, and below
/// `k = 0` they read as the boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SweepPlan {
    /// Every group of the block once, by `key` ascending.
    groups: Vec<Group>,
    /// The plan index of group `(c, j)`, at `c · by + j`.
    at: Vec<usize>,
    by: usize,
    /// The last group's `key`.
    last_key: usize,
}

impl SweepPlan {
    /// The sweep of the blocks of `d`. It depends on the layout alone;
    /// a run builds it once and lends it to every rank.
    pub(crate) fn of(d: &Decomp3D) -> SweepPlan {
        SweepPlan::build(d.bx(), d.by())
    }

    /// The groups of the sweep of a `bx × by` block, where `usize`
    /// counts them.
    fn groups_of(bx: usize, by: usize) -> Option<usize> {
        bx.div_ceil(LANES).checked_mul(by)
    }

    /// Compile the sweep of a `bx × by` block.
    fn build(bx: usize, by: usize) -> Self {
        let chunks = bx.div_ceil(LANES);
        let last_key = by - 1 + 2 * (chunks - 1);
        let rows = (0..=last_key).flat_map(|key| {
            let cs = (0..chunks).filter(move |&c| 2 * c <= key && key - 2 * c < by);
            cs.map(move |c| (c, key - 2 * c))
        });
        let order: Vec<(usize, usize)> = rows.collect();
        let mut at = vec![0; chunks * by];
        for (g, &(c, j)) in order.iter().enumerate() {
            at[c * by + j] = g;
        }
        let groups = order.iter().map(|&(c, j)| Group {
            c,
            j,
            key: j + 2 * c,
            jm1: j.checked_sub(1).map_or(order.len(), |j| at[c * by + j]),
            im1: c.checked_sub(1).map(|c| at[c * by + j]),
        });
        SweepPlan {
            groups: groups.collect(),
            at,
            by,
            last_key,
        }
    }

    /// The group of pencil `p` of the block (`(i, j)` row-major), and
    /// its lane in it.
    fn lane_of(&self, p: usize) -> (usize, usize) {
        let (i, j) = (p / self.by, p % self.by);
        (self.at[i / LANES * self.by + j], i % LANES)
    }
}

/// What the sweep keeps of one lane group between its blocks and
/// tiles, lifted ([`Kernel3D::lift`]).
#[derive(Clone, Copy, Default)]
struct Lanes {
    /// The group's step `len − 1` of the last tile: lane `l`'s cell
    /// `k0 − 1 − l` of the next tile's `k0` (the boundary where that is
    /// below `k = 0`). The next tile's first block goes on from it, so
    /// lane `l`'s first `l` steps rerun its last `l` cells of the tile
    /// below, bit for bit; and it holds the diagonals of that block of
    /// the group one row on.
    top: [f32; LANES],
    /// Each lane's `j−1` input at the last step of its last block: the
    /// diagonal of its next block's first step.
    diag: [f32; LANES],
}

/// A lifted block of a group: `[step][lane]`.
type Quads = [[f32; LANES]; LANES];

/// Store a block's steps at the front of `run`, cut at its end. A full
/// block is one fixed-size store: a copy of a computed length in the
/// sweep's loop made the whole sweep 1.16 × slower.
#[inline(always)]
fn store(run: &mut [[f32; LANES]], raw: Quads) {
    match run.first_chunk_mut() {
        Some(cells) => *cells = raw,
        None => run.iter_mut().zip(raw).for_each(|(cells, z)| *cells = z),
    }
}

/// Per-rank working state: the 3-D [`TileOps`] implementation. All
/// buffers are allocated once at construction and the sweep is handed
/// in compiled; the pipeline loop never allocates.
struct Block3D<'g, K> {
    d: Decomp3D,
    kernel: K,
    tier: KernelTier,
    /// Own block: every group's run of `nz + RUN_PAD` quads in plan
    /// order, `runs[g · (nz + RUN_PAD) + k + l][l]` cell `k` of group
    /// `g`'s lane `l` (see the module docs). The sweep writes it and
    /// never reads it.
    runs: &'g mut [[f32; LANES]],
    /// Cells of every pencil computed so far: `k0` of the next tile.
    taken: usize,
    plan: &'g SweepPlan,
    /// Every group's [`Lanes`], in plan order.
    lanes: Vec<Lanes>,
    /// Every group's last two blocks, lifted, in plan order: block `R`
    /// of the tile in slot `R % 2`. The groups one super-round on read
    /// them.
    lifted: Vec<[Quads; 2]>,
    /// The lifted boundary.
    splat: f32,
    /// The halo windows, as received (not lifted); empty without an
    /// upstream neighbor. `i = own_lo_i − 1`: `by` rows of `quads` quads,
    /// the window from cell 0 on. `j = own_lo_j − 1`: a run of
    /// `1 + LANES · quads` quads per chunk of [`LANES`] rows, skewed as
    /// the groups it feeds run — cell `x` of row `LANES·c + l` in quad
    /// `x + l + 1`, lane `l` — with the last window's cells that the
    /// next tile's first block reruns (its last `l + 1` of row `l`) in
    /// the quads in front.
    halo: [Vec<[f32; LANES]>; 2],
    /// Blocks of a full tile.
    quads: usize,
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
        let quads = (window + RUN_PAD).div_ceil(LANES);
        let splat = match tier {
            KernelTier::Bitwise => kernel.lift(d.boundary),
            KernelTier::Fast => kernel.lift_fast(d.boundary),
        };
        let n = plan.groups.len();
        let halo_len = [by * quads, bx.div_ceil(LANES) * (1 + LANES * quads)];
        Block3D {
            d,
            kernel,
            tier,
            runs,
            taken: 0,
            plan,
            lanes: vec![
                Lanes {
                    top: [splat; LANES],
                    diag: [splat; LANES],
                };
                n
            ],
            lifted: vec![[[[splat; LANES]; LANES]; 2]; n],
            splat,
            halo: [FACE_I, FACE_J].map(|dir| match up[dir] {
                true => vec![[d.boundary; LANES]; halo_len[dir]],
                false => Vec::new(),
            }),
            quads,
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

    /// The super-rounds of the plan's sweep over the next `len` cells of
    /// every pencil, through `lift` and `step`, into `self.runs`.
    #[inline(always)]
    fn sweep(
        &mut self,
        len: usize,
        lift: impl Fn(f32) -> f32,
        step: impl Fn(i64, i64, i64, f32, f32, f32, f32) -> f32,
    ) {
        let (groups, quads, run_len) = (&self.plan.groups, self.quads, self.d.nz + RUN_PAD);
        let k0 = self.taken;
        let blocks = (len + RUN_PAD).div_ceil(LANES);
        let [halo_i, halo_j] = &self.halo;
        let (slots, lanes, splat) = (&mut self.lifted, &mut self.lanes, self.splat);
        let lift_block =
            |x: &[[f32; LANES]]| -> Quads { core::array::from_fn(|z| x[z].map(&lift)) };
        // The groups with a block this super-round: `lo..hi`.
        let (mut lo, mut hi) = (0, 0);
        for round in 0..self.plan.last_key + blocks {
            while hi < groups.len() && groups[hi].key <= round {
                hi += 1;
            }
            while groups[lo].key + blocks <= round {
                lo += 1;
            }
            // A group's inputs are blocks of groups with a smaller key,
            // which come earlier in plan order: going down it, every
            // group reads them before they store this super-round's.
            for g in (lo..hi).rev() {
                let Group {
                    c,
                    j,
                    key,
                    jm1: west,
                    im1,
                } = groups[g];
                let r = round - key;
                let (this, next) = (r % 2, 1 - r % 2);
                let corner = match im1 {
                    Some(q) => {
                        let (at, on) = (&slots[q][this], &slots[q][next]);
                        [at[3][3], on[0][3], on[1][3], on[2][3]]
                    }
                    None if !halo_i.is_empty() => halo_i[j * quads + r].map(&lift),
                    None => [splat; LANES],
                };
                let jm1 = match (j, halo_j.is_empty()) {
                    (0, false) => lift_block(&halo_j[c * (1 + LANES * quads) + LANES * r + 1..]),
                    (0, true) => [[splat; LANES]; LANES],
                    _ => slots[west][this],
                };
                let blk = LaneBlock {
                    i: core::array::from_fn(|l| self.gi0 + (LANES * c + l) as i64),
                    j: [self.gj0 + j as i64; LANES],
                    k: core::array::from_fn(|l| (k0 + LANES * r) as i64 - l as i64),
                    corner,
                    jm1,
                    diag: lanes[g].diag,
                    km1: slots[g][next][LANES - 1],
                };
                lanes[g].diag = jm1[LANES - 1];
                let run = &mut self.runs[g * run_len..][..run_len];
                if r > 0 {
                    let (raw, up) = blk.run::<false>(&lift, &step);
                    slots[g][this] = up;
                    store(&mut run[k0 + LANES * r..], raw);
                    continue;
                }
                // A tile's first block goes on from the tile below's step
                // len − 1 (see `Lanes::top`), and so does its diagonal.
                let diag = match (j, halo_j.is_empty()) {
                    (0, false) => halo_j[c * (1 + LANES * quads)].map(&lift),
                    (0, true) => [splat; LANES],
                    _ => lanes[west].top,
                };
                let blk = LaneBlock {
                    km1: lanes[g].top,
                    diag,
                    ..blk
                };
                let (raw, up) = match k0 < RUN_PAD {
                    // Its steps below k = 0 read as `top`: there, the
                    // boundary.
                    true => blk.run::<true>(&lift, &step),
                    false => blk.run::<false>(&lift, &step),
                };
                slots[g][this] = up;
                store(&mut run[k0..], raw);
            }
        }
        // Every group's step len − 1: of the last block or the one
        // before, both still in the slots.
        let (b, z) = ((len - 1) / LANES % 2, (len - 1) % LANES);
        for (st, slot) in lanes.iter_mut().zip(slots.iter()) {
            st.top = slot[b][z];
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
            let cells = &self.runs[g * (nz + RUN_PAD) + k0 + l..];
            out.iter_mut()
                .zip(cells)
                .for_each(|(x, lanes)| *x = lanes[l]);
        }
    }

    fn unpack_from(&mut self, dir: usize, step: usize, data: &[f32]) {
        // Scatter the received face directly from the wire payload into
        // the halo window — B₃ without an intermediate landing buffer.
        // The window holds one tile: the engine unpacks a step's faces
        // after it computed the tile below and before it computes this
        // one, so the last window is read and done. A j row's top cell
        // is the diagonal of this window's first, kept in front of it
        // first.
        let (k0, k1) = self.d.krange(step);
        assert_eq!(
            k0, self.taken,
            "faces are unpacked between their tile and the one below"
        );
        let (len, quads, window) = (k1 - k0, self.quads, self.window);
        let halo = &mut self.halo[dir];
        if dir == FACE_I {
            halo::unpack_rows(data, halo.as_flattened_mut(), 0, LANES * quads, 0, len);
            return;
        }
        let chunk = 1 + LANES * quads;
        for (run, rows) in halo.chunks_exact_mut(chunk).zip(data.chunks(LANES * len)) {
            if k0 > 0 {
                run.copy_within(window..window + LANES, 0);
            }
            for (l, row) in rows.chunks_exact(len).enumerate() {
                run[l + 1..]
                    .iter_mut()
                    .zip(row)
                    .for_each(|(q, &x)| q[l] = x);
            }
        }
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
    let mut block = vec![0.0; walk.groups.len() * LANES * (d.nz + RUN_PAD)];
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
            nz in 1usize..=9,
        ) {
            let plan = SweepPlan::build(bx, by);
            let (chunks, n) = (bx.div_ceil(LANES), plan.groups.len());
            prop_assert_eq!((SweepPlan::groups_of(bx, by), n), (Some(chunks * by), chunks * by));
            // Every pencil once, stored as the lane that sweeps it; the
            // masked lanes are the ones past bx, so none when LANES | bx.
            let lanes = |&Group { c, j, .. }| (0..LANES).map(move |l| (LANES * c + l, j));
            let mut pencils: Vec<_> = plan.groups.iter().flat_map(lanes).collect();
            let masked = pencils.iter().filter(|&&(i, _)| i >= bx).count();
            prop_assert!(masked == n * LANES - bx * by && (bx % LANES != 0 || masked == 0));
            pencils.retain(|&(i, _)| i < bx);
            pencils.sort_unstable();
            let block = || (0..bx).flat_map(|i| (0..by).map(move |j| (i, j)));
            prop_assert!(pencils.into_iter().eq(block()));
            for (p, (i, j)) in block().enumerate() {
                let (g, l) = plan.lane_of(p);
                prop_assert_eq!((LANES * plan.groups[g].c + l, plan.groups[g].j), (i, j));
            }
            // By super-round of block 0, `j + 2c`; the inputs are the
            // groups (c, j − 1) and (c − 1, j), or the edge.
            let find = |c: usize, j: usize| plan.groups.iter().position(|g| (g.c, g.j) == (c, j));
            prop_assert!(plan.groups.windows(2).all(|w| w[0].key <= w[1].key));
            prop_assert_eq!(plan.last_key, plan.groups[n - 1].key);
            for g in &plan.groups {
                prop_assert_eq!(g.key, g.j + 2 * g.c);
                let jm1 = g.j.checked_sub(1).and_then(|j| find(g.c, j));
                prop_assert_eq!(g.jm1, jm1.unwrap_or(n));
                prop_assert_eq!(g.im1, g.c.checked_sub(1).and_then(|c| find(c, g.j)));
            }
            // Cell k of a tile, lane l, is step k + l of its group, in its
            // block (k + l) / LANES, run in super-round block + key. Every
            // input in another group is of an earlier super-round; one in
            // the same group, of an earlier step.
            let step = |i: usize, k: usize| k + i % LANES;
            let round = |i: usize, j: usize, k: usize| step(i, k) / LANES + j + 2 * (i / LANES);
            for ((i, j), k) in block().flat_map(|p| (0..12).map(move |k| (p, k))) {
                let here = round(i, j, k);
                if j > 0 {
                    prop_assert!(round(i, j - 1, k) < here);
                    prop_assert!(k == 0 || round(i, j - 1, k - 1) < here);
                }
                if i % LANES > 0 {
                    prop_assert!(step(i - 1, k) < step(i, k));
                } else if i > 0 {
                    prop_assert!(round(i - 1, j, k) < here);
                }
            }
            // The storage: a run of nz + 3 quads per group.
            let d = Decomp3D { nx: bx, ny: by, nz, pi: 1, pj: 1, v: 2, boundary: 0.0 };
            let (grid, _) = result_grid(&d).expect("small");
            prop_assert_eq!(grid.data().len(), chunks * by * LANES * (nz + 3));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any block shape, tile height (below `LANES`, not a multiple
        /// of it, with or without a partial last tile) and processor
        /// grid computes the sequential grid bit for bit: the 3-D
        /// kernels (`LongestPath3D` reads the coordinates) on blocks up
        /// to 9 wide (two full row groups and a partial one), the
        /// diagonal-reading 2-D kernels on unit-axis strips, whose row
        /// groups hold one pencil, so every group runs three masked
        /// lanes.
        ///
        /// Kernel 5 is Paper3D on a negative boundary, whose lifted
        /// splat is 0.
        #[test]
        fn every_layout_matches_sequential(
            (bx, by, pi, pj) in (1usize..=9, 1usize..=6, 1usize..=3, 1usize..=3),
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
    /// the plan has four row groups of two blocks a tile (the 7 steps of
    /// a skewed 4-cell tile), so a rank steps 4 × 2 × 16 × 2 = 256 lane
    /// cells — the 128 cells of its pencils, and the steps of each tile
    /// before a lane reaches the tile (which rerun cells of the tile
    /// below, or lie below k = 0) and after it leaves it — plus one lift
    /// of its boundary: 257. A rank behind an `i` face also reads four
    /// halo cells a block through lane 0 of the groups on `i = 0` (4
    /// groups × 2 blocks × 4 × 2 tiles: +64); one behind a `j` face
    /// reads 16 skewed halo cells a block through the group on `j = 0`
    /// (1 × 2 × 16 × 2: +64), and, once a tile, the quad its lanes go on
    /// from: each lane's diagonal of the step before the tile (+2 × 4).
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
            (d(4, 4, 1, 1), 257),
            (d(8, 4, 2, 1), 257 + 257 + 64),
            (d(4, 8, 1, 2), 257 + 257 + 72),
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
