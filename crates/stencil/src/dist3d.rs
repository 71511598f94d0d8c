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
//! block's e₂+e₃, which the walk seeds per pencil (see [`WavePlan`]).
//!
//! ## Structure
//!
//! **The result array is the ranks' storage.** Every `(i, j)` pencil is
//! `nz`-contiguous in the global [`Grid3D`], so a rank's block is its
//! `bx · by` pencils of that array, borrowed as disjoint `&mut [f32]`
//! views ([`rank_pencils`]) — each processor owns its part of the
//! array, for every `pi × pj`, and nothing is collected afterwards.
//!
//! [`Block3D`] is the 3-D [`TileOps`] implementation: it borrows the
//! rank's pencils, owns the halo planes and supplies the hot paths
//! [`crate::engine`] runs the rank's compiled program over.
//! **The tile walk is compiled once per rank of a plan**, into a
//! [`WavePlan`] per distinct tile length that the compiled plan keeps
//! (up to 1 MiB of them):
//! which `(row, chunk)` units go to the kernel in which wave, and where
//! each reads its `i−1`/`j−1`/`k−1` inputs and its diagonal seed. Per
//! tile, `compute_tile` does only what depends on `k`: it **consumes
//! the pencils bottom-up** — takes the tile's window off every pencil,
//! deals the chunks into plan order, and splits the units once per wave
//! into finished (readable) and outputs — so a tile pays for its cells,
//! not for its carve, and the kernels zip over equal-length slices with
//! no index arithmetic or boundary branches. Faces pack from the units
//! of the last computed tile (all the engine ever packs) straight into,
//! and unpack (row-chunked, [`crate::halo`]) straight out of, transport
//! wire storage — on a slot-transport world the peer-visible slot
//! itself — and a steady-state step performs zero heap allocations
//! (asserted by `tests/zero_alloc.rs`).
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
use crate::kernel::{Kernel3D, KernelTier, Wave, LANES, MAX_WAVE};
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
        mode.step_plan(Self::DIMS, Self::MAPPING_DIM, self.steps())
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

/// One rank's block: its `bx · by` pencils (`nz` values each) in
/// row-major local `(i, j)` order, borrowed from the array the run
/// writes.
pub(crate) type Pencils<'g> = Vec<&'g mut [f32]>;

/// Deal the pencils of an `nx × ny × nz` array (in
/// [`Grid3D::pencils_mut`]'s order) out to the ranks of `d`: pencil
/// `(gi, gj)` belongs to rank `(gi / bx)·pj + gj / by`, and the global
/// order restricted to one block is that rank's local order.
pub(crate) fn rank_pencils<'g>(
    d: &Decomp3D,
    pencils: impl Iterator<Item = &'g mut [f32]>,
) -> Vec<Pencils<'g>> {
    let (bx, by) = (d.bx(), d.by());
    let mut parts: Vec<Pencils<'g>> = (0..d.ranks())
        .map(|_| Vec::with_capacity(bx * by))
        .collect();
    for (p, pencil) in pencils.enumerate() {
        let (gi, gj) = (p / d.ny, p % d.ny);
        parts[(gi / bx) * d.pj + gj / by].push(pencil);
    }
    parts
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

/// k-chunk length of the super-diagonal tile walk: short enough that a
/// 4×4 cross-section with the paper's V = 128 spreads into wide waves,
/// long enough that the vector pass and per-chunk bookkeeping amortize.
const CHUNK: usize = 32;

/// Where a unit of the tile walk reads a neighbor input from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Src {
    /// The neighbor row's chunk over the same cells: an earlier unit.
    Unit(usize),
    /// This row of the direction's halo plane.
    Halo(usize),
    /// The boundary splat (the neighbor is outside the global grid).
    Boundary,
}

/// Where a unit reads its diagonal seed: the cell `(i, j−1)` one below
/// its first, at `k0 + start − 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Diag {
    /// The last cell of the neighbor row's lower chunk: an earlier unit.
    Below(usize),
    /// The neighbor row's `top`: the last cell of the previous tile.
    Top(usize),
    /// This row of the j halo plane, whole `nz` long.
    Halo(usize),
    /// The boundary splat.
    Boundary,
}

/// One `(row, chunk)` of a tile: the cells `start .. start + len` of
/// the tile's window of pencil `(i, j)`, and where its inputs live.
#[derive(Clone, Copy, Debug)]
struct Unit {
    i: usize,
    j: usize,
    start: usize,
    len: usize,
    im1: Src,
    jm1: Src,
    /// The chunk below in the same pencil, whose top cell seeds the
    /// `k−1` carry; `None` for a pencil's first chunk, which is seeded
    /// by the previous tile's top cell.
    below: Option<usize>,
    diag: Diag,
}

/// The walk of one tile length, compiled once per rank: nothing in it
/// depends on which tile of that length is being computed.
///
/// Pencils are blocked into k-chunks of at least [`CHUNK`] cells and
/// walked in **3-D super-diagonal** order: chunk `(i, j, c)` depends on
/// the same-range chunks of rows `(i−1, j)` and `(i, j−1)` plus chunk
/// `c − 1` of its own pencil — all with coordinate sum `i + j + c − 1` —
/// so every chunk on one super-diagonal is independent of the others
/// and they go to the kernel as [`Wave`]s of up to [`MAX_WAVE`]
/// interleaved carry chains. Chunking matters on small cross-sections:
/// a 4×4 tile has anti-diagonals of mean width 2.3, but its chunked
/// super-diagonals interleave 6+ chains, which is what hides the serial
/// `add → max → sqrt` latency of the paper kernel.
#[derive(Clone, Debug)]
pub(crate) struct WavePlan {
    /// The tile length this plan walks.
    len: usize,
    /// Chunks per pencil.
    nchunks: usize,
    /// Every `(row, chunk)` once: super-diagonal by super-diagonal,
    /// ascending row inside one. A unit's sources are earlier units.
    units: Vec<Unit>,
    /// Exclusive end, in `units`, of each wave. Waves never straddle a
    /// super-diagonal, so a unit's sources lie in strictly earlier waves.
    waves: Vec<usize>,
    /// `pos[row · nchunks + c]`: where chunk `c` of `row` is in `units`.
    pos: Vec<usize>,
}

impl WavePlan {
    /// The walks of `rank`'s tiles: of a full tile and, if the last one
    /// is shorter, of that. They depend on the layout alone, so a
    /// compiled plan keeps them when they are small (`Compiled3D::walks`).
    pub(crate) fn for_rank(d: &Decomp3D, rank: usize) -> Vec<WavePlan> {
        let up = decomp::has_upstream(d, rank);
        let mut lens = [0, d.steps() - 1]
            .map(|k| d.krange(k).1 - d.krange(k).0)
            .to_vec();
        lens.dedup();
        let walk = |len| WavePlan::build(d.bx(), d.by(), len, up);
        lens.into_iter().map(walk).collect()
    }

    /// Compile the walk of a `len`-cell tile over a `bx × by` block;
    /// `up[dir]` says whether the rank has an upstream neighbor (a halo
    /// plane) in `dir`.
    fn build(bx: usize, by: usize, len: usize, up: [bool; 2]) -> Self {
        let ndiags = bx + by - 1;
        // Adaptive chunk count: just enough chunks that super-diagonal
        // waves approach MAX_WAVE interleaved chains (mean plain-
        // diagonal width is bx·by/ndiags), none shorter than CHUNK so
        // the per-chunk bookkeeping stays amortized. Wide cross-
        // sections and short pencils degrade to whole-pencil waves.
        // The chunks are then made equally long, to a whole number of
        // lane blocks: every wave mixes chunks of different c, and the
        // kernels' lane-transposed pass runs as far as the shortest
        // pencil of a group.
        let target = (MAX_WAVE * ndiags).div_ceil(bx * by).max(1);
        let nchunks = len.div_ceil(len.div_ceil(target).next_multiple_of(CHUNK));
        let chunk = len.div_ceil(nchunks).next_multiple_of(LANES);
        let mut units: Vec<Unit> = Vec::with_capacity(bx * by * nchunks);
        let mut waves = Vec::new();
        let mut pos = vec![0; bx * by * nchunks];
        let off_block = |dir: usize, row| match up[dir] {
            true => Src::Halo(row),
            false => Src::Boundary,
        };
        for s in 0..ndiags + nchunks - 1 {
            // (i, j) cross-section diagonals participating in this
            // super-diagonal: t = i + j with a live chunk c = s − t,
            // in ascending flat-row order (i asc, then j asc — the
            // contiguous j-window of each i).
            let t_lo = s.saturating_sub(nchunks - 1);
            let t_hi = s.min(ndiags - 1);
            let first = units.len();
            for i in 0..=t_hi.min(bx - 1) {
                for j in t_lo.saturating_sub(i)..=(t_hi - i).min(by - 1) {
                    let (r, c) = (i * by + j, s - i - j);
                    let start = c * chunk;
                    let unit = Unit {
                        i,
                        j,
                        start,
                        len: chunk.min(len - start),
                        im1: match i {
                            0 => off_block(FACE_I, j),
                            _ => Src::Unit(pos[(r - by) * nchunks + c]),
                        },
                        jm1: match j {
                            0 => off_block(FACE_J, i),
                            _ => Src::Unit(pos[(r - 1) * nchunks + c]),
                        },
                        below: (c > 0).then(|| pos[r * nchunks + c - 1]),
                        diag: match (j, c) {
                            (0, _) if up[FACE_J] => Diag::Halo(i),
                            (0, _) => Diag::Boundary,
                            (_, 0) => Diag::Top(r - 1),
                            _ => Diag::Below(pos[(r - 1) * nchunks + c - 1]),
                        },
                    };
                    pos[r * nchunks + c] = units.len();
                    units.push(unit);
                }
            }
            // As few waves as MAX_WAVE allows, equally wide in whole
            // lane groups (24 chunks go as 12 + 12: a 16 + 8 split
            // leaves the second wave half the chains to overlap).
            let n = units.len() - first;
            let width = n.div_ceil(n.div_ceil(MAX_WAVE)).next_multiple_of(LANES);
            waves.extend((first..units.len()).step_by(width).skip(1));
            waves.push(units.len());
        }
        WavePlan {
            len,
            nchunks,
            units,
            waves,
            pos,
        }
    }

    /// Bytes this walk holds on the heap.
    pub(crate) fn bytes(&self) -> usize {
        let words = self.waves.capacity() + self.pos.capacity();
        self.units.capacity() * std::mem::size_of::<Unit>() + words * std::mem::size_of::<usize>()
    }

    /// The plan among a block's (one or two) that walks `len` cells: a
    /// tile is as long as the first, or else as the last.
    fn of(plans: &[WavePlan], len: usize) -> &WavePlan {
        &plans[usize::from(plans[0].len != len)]
    }
}

/// Per-rank working state: the 3-D [`TileOps`] implementation. All
/// buffers are allocated once at construction and the walks are handed
/// in compiled; the pipeline loop never allocates.
struct Block3D<'g, K> {
    d: Decomp3D,
    kernel: K,
    tier: KernelTier,
    /// Own block, `rest[i·by + j]` the `(i, j)` pencil: what is left of
    /// it above the tiles computed so far.
    rest: Pencils<'g>,
    /// The last computed tile, cut into its plan's units (same order).
    units: Pencils<'g>,
    /// Cells of every pencil handed out so far: `k0` of the next tile.
    taken: usize,
    /// The walk of a full tile and, if the last one is shorter, of that.
    plans: &'g [WavePlan],
    /// The `k−1` seed of every pencil's bottom chunk in the last
    /// computed tile: the top cell of the tile below it, or the boundary.
    top: Vec<f32>,
    /// The halo planes `i = own_lo_i − 1` (`by × nz`) and
    /// `j = own_lo_j − 1` (`bx × nz`); empty without an upstream neighbor.
    halo: [Vec<f32>; 2],
    /// Global coordinates of the block origin.
    gi0: i64,
    gj0: i64,
    /// Boundary splat, a full tile long: the "neighbor row" of cells
    /// whose `i−1`/`j−1` neighbor is outside the global grid.
    brow: Vec<f32>,
}

impl<'g, K: Kernel3D> Block3D<'g, K> {
    /// `plans` are the rank's [`WavePlan::for_rank`].
    fn new(
        d: Decomp3D,
        kernel: K,
        tier: KernelTier,
        rank: usize,
        rows: Pencils<'g>,
        plans: &'g [WavePlan],
    ) -> Self {
        let up = decomp::has_upstream(&d, rank);
        let (ci, cj) = d.coords(rank);
        let (bx, by) = (d.bx(), d.by());
        Block3D {
            d,
            kernel,
            tier,
            rest: rows,
            units: Vec::with_capacity(plans.iter().map(|p| p.units.len()).max().unwrap_or(0)),
            taken: 0,
            top: vec![d.boundary; bx * by],
            halo: [(FACE_I, by), (FACE_J, bx)].map(|(dir, rows)| match up[dir] {
                true => vec![0.0; rows * d.nz],
                false => Vec::new(),
            }),
            gi0: (ci * bx) as i64,
            gj0: (cj * by) as i64,
            brow: vec![d.boundary; plans[0].len],
            plans,
        }
    }

    /// Compute one tile (all of the block's cross-section over
    /// `krange(k)`) by its [`WavePlan`]. Only what depends on `k` is
    /// done here: the tile's window is taken off the bottom of every
    /// pencil and dealt, chunk by chunk, into plan order; then each
    /// wave splits the units once, at its first — everything before it
    /// is finished and readable, the wave's own units are its outputs.
    /// The pencils are consumed, so tiles are computed in step order,
    /// each exactly once.
    ///
    /// Results stay bitwise-identical to the sequential reference in
    /// [`crate::seq`] on the pinned tier: a single-assignment
    /// recurrence doesn't care in which order independent cells are
    /// written, and each cell's own operation order is preserved by the
    /// wave contract (asserted by the kernel proptests).
    fn compute_tile(&mut self, k: usize) {
        let (k0, k1) = self.d.krange(k);
        assert_eq!(k0, self.taken, "tiles are computed bottom-up");
        let plan = WavePlan::of(self.plans, k1 - k0);
        // Deal the tile out. Unit order depends on the chunk count
        // alone: while that stays, every unit is replaced by the same
        // (row, chunk) one tile up, and the last cell of a pencil's
        // replaced top chunk seeds its new bottom one. Otherwise — the
        // first tile, or a last tile cut into another number of chunks
        // — the seeds are carried over beforehand, by the full tile's
        // plan (it walked the previous tile), and the units start empty.
        if self.units.len() != plan.units.len() {
            let full = &self.plans[0];
            for (top, chunks) in self.top.iter_mut().zip(full.pos.chunks_exact(full.nchunks)) {
                let unit = chunks.last().and_then(|&p| self.units.get(p));
                *top = unit.and_then(|u| u.last()).copied().unwrap_or(*top);
            }
            self.units.clear();
            self.units.resize_with(plan.units.len(), Default::default);
        }
        let rows = self.rest.iter_mut().zip(&mut self.top);
        for ((rest, top), chunks) in rows.zip(plan.pos.chunks_exact(plan.nchunks)) {
            let (mut window, above) = std::mem::take(rest).split_at_mut(plan.len);
            *rest = above;
            for &p in chunks {
                let (chunk, more) = window.split_at_mut(plan.units[p].len);
                let replaced = std::mem::replace(&mut self.units[p], chunk);
                *top = replaced.last().copied().unwrap_or(*top);
                window = more;
            }
        }
        self.taken = k1;

        let (by, nz) = (self.d.by(), self.d.nz);
        let mut first = 0;
        for &end in &plan.waves {
            let (done, outs) = self.units.split_at_mut(first);
            let mut wave = Wave::new();
            for (u, out) in plan.units[first..end].iter().zip(outs) {
                let input = |src: Src, dir: usize| match src {
                    Src::Unit(q) => &*done[q],
                    Src::Halo(row) => &self.halo[dir][row * nz + k0 + u.start..][..u.len],
                    Src::Boundary => &self.brow[..u.len],
                };
                #[allow(clippy::expect_used)] // LINT: a plan's chunks are non-empty
                let last = |q: usize| *done[q].last().expect("chunks are non-empty");
                let km1 = match u.below {
                    Some(q) => last(q),
                    None => self.top[u.i * by + u.j],
                };
                let diag = match u.diag {
                    Diag::Below(q) => last(q),
                    Diag::Top(row) => self.top[row],
                    Diag::Halo(row) if k0 + u.start > 0 => {
                        self.halo[FACE_J][row * nz + k0 + u.start - 1]
                    }
                    Diag::Halo(_) | Diag::Boundary => self.d.boundary,
                };
                wave.push(
                    self.gi0 + u.i as i64,
                    self.gj0 + u.j as i64,
                    (k0 + u.start) as i64,
                    input(u.im1, FACE_I),
                    input(u.jm1, FACE_J),
                    km1,
                    diag,
                    out,
                );
            }
            self.kernel.eval_wave_tier(self.tier, &mut wave);
            first = end;
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
        // one strided copy, with no further staging behind it. The
        // engine packs a tile before it computes the next one, so the
        // face's cells are in the units of the last computed tile.
        let (k0, k1) = self.d.krange(step);
        assert_eq!(k1, self.taken, "only the last computed tile is packed");
        let plan = WavePlan::of(self.plans, k1 - k0);
        let (bx, by) = (self.d.bx(), self.d.by());
        // Last local i: by consecutive rows; last local j: every by-th.
        let (first, stride) = if dir == FACE_I {
            ((bx - 1) * by, 1)
        } else {
            (by - 1, by)
        };
        let face = plan
            .pos
            .chunks_exact(plan.nchunks)
            .skip(first)
            .step_by(stride);
        let mut out = out;
        for &p in face.flatten() {
            let unit = &*self.units[p];
            let (head, tail) = std::mem::take(&mut out).split_at_mut(unit.len());
            head.copy_from_slice(unit);
            out = tail;
        }
    }

    fn unpack_from(&mut self, dir: usize, step: usize, data: &[f32]) {
        // Scatter the received face directly from the wire payload into
        // the halo plane — B₃ without an intermediate landing buffer.
        let (k0, k1) = self.d.krange(step);
        halo::unpack_rows(data, &mut self.halo[dir], 0, self.d.nz, k0, k1 - k0);
    }

    fn compute(&mut self, step: usize) {
        self.compute_tile(step);
    }
}

/// One rank's execution of any 3-D kernel from a compiled plan into
/// `rows`, its pencils of the result (see [`rank_pencils`]), reporting
/// every phase to `obs`, or the typed transport/structure error that
/// stopped it. Nothing is re-derived here — the plan is executed
/// exactly as compiled. `walks` are every rank's, from `c`.
pub(crate) fn run_rank3d_into<C: Communicator<f32>, K: Kernel3D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    obs: &mut O,
    rows: Pencils<'_>,
    walks: &[Vec<WavePlan>],
) -> Result<(), EngineError> {
    let program = c.program(comm)?;
    let rank = comm.rank();
    let mut blk = Block3D::new(c.decomp(), kernel, tier, rank, rows, &walks[rank]);
    engine::run_rank(comm, &mut blk, program, obs)
}

/// [`run_rank3d_into`] for a caller that wants one rank's block by
/// itself (rank-level tests and benches): allocate
/// `bx × by × nz`, run into its pencils, return it.
pub fn try_run_rank3d_plan<C: Communicator<f32>, K: Kernel3D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    obs: &mut O,
) -> Result<Vec<f32>, EngineError> {
    let d = c.decomp();
    let mut block = vec![0.0; d.bx() * d.by() * d.nz];
    let rows = block.chunks_exact_mut(d.nz).collect();
    run_rank3d_into(comm, kernel, c, tier, obs, rows, &c.walks())?;
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
    use crate::kernel::{Fused3D, LongestPath3D, Paper3D, Relax3D};
    use crate::seq::{run_paper3d_seq, run_seq3d};
    use msgpass::thread_backend::LatencyModel;
    use proptest::prelude::*;

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

    /// `(i, j, c, wave)` of every unit of a plan, in walk order.
    fn walk(plan: &WavePlan, by: usize) -> Vec<[usize; 4]> {
        let mut wave = 0;
        let unit = |(n, u): (usize, &Unit)| {
            wave += usize::from(n == plan.waves[wave]);
            let chunks = &plan.pos[(u.i * by + u.j) * plan.nchunks..][..plan.nchunks];
            let c = chunks.iter().position(|&p| p == n).expect("pos finds it");
            [u.i, u.j, c, wave]
        };
        plan.units.iter().enumerate().map(unit).collect()
    }

    /// Fingerprints of the walk `compute_tile` re-derived per tile
    /// before it was compiled into a [`WavePlan`], recorded at that
    /// commit from its own `eval_chunk_wave` calls: row `bx`, column
    /// `by` over `SIDES`, each folding the `(i, j, c, wave index)`
    /// sequences of all `LENS` tile lengths.
    const SIDES: [usize; 6] = [1, 2, 3, 4, 8, 16];
    const LENS: [usize; 11] = [1, 3, 8, 31, 32, 33, 64, 100, 128, 256, 300];
    #[rustfmt::skip]
    const RECORDED_WALKS: [[u64; 6]; 6] = [
        [0xbf53e8ae5801dae3, 0xd00d1eb2e770bb8b, 0xc003e86f12d5fcbd, 0x469bd0ac3afbe169, 0xa926063225a87431, 0xee78d916dff99b09],
        [0x47a779bae3cd4629, 0x675fc8eba04e8567, 0x6600600eff2f492b, 0x4418549df94a0c45, 0xdd96367168e8dde9, 0xab01f4d5a08f7b19],
        [0x6a47778cd757d637, 0x1355154a51992875, 0xf1e6ea173928f045, 0xffc3f9eda739a299, 0x45265a076e349fc9, 0x515bf029d7c350f9],
        [0x988e08967088e0d5, 0x14b60fb9ff5540b5, 0xc005bf1fd8d10b85, 0xcedc1a5fba431cdd, 0x2469ca67c7a5954d, 0x7f899026b884af6d],
        [0x097bc19c2600d1d1, 0x2bcc2b0b97928f65, 0x2503a382d925340d, 0x72219879da154d41, 0x6b74b0a80ab69159, 0x84621178738574b9],
        [0x53d376d1b36aa8d9, 0x1a89fb6d24933685, 0x1f68ede10b6aea4d, 0x15f5f3dc3c192111, 0x2921ed1d32fcf629, 0xcb70f5c97dc6ad21],
    ];

    #[test]
    fn the_plan_is_the_recorded_walk() {
        let fnv = |h: u64, x: usize| (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        for (bx, recorded) in SIDES.into_iter().zip(RECORDED_WALKS) {
            for (by, want) in SIDES.into_iter().zip(recorded) {
                let mut h = 0xcbf2_9ce4_8422_2325;
                for len in LENS {
                    let plan = WavePlan::build(bx, by, len, [false; 2]);
                    let units = walk(&plan, by);
                    h = units.iter().flatten().fold(fnv(h, len), |h, &x| fnv(h, x));
                }
                assert_eq!(h, want, "{bx}x{by} block");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_plan_covers_the_tile_once_and_reads_only_finished_waves(
            bx in 1usize..=9,
            by in 1usize..=9,
            len in 1usize..=300,
            up_i in any::<bool>(),
            up_j in any::<bool>(),
        ) {
            let plan = WavePlan::build(bx, by, len, [up_i, up_j]);
            let units = walk(&plan, by);
            // Every (row, chunk) exactly once: `pos` is a bijection onto
            // the units, and each row's chunks tile the window in order.
            let mut seen = plan.pos.clone();
            seen.sort_unstable();
            prop_assert!(seen.into_iter().eq(0..plan.units.len()));
            prop_assert_eq!(plan.units.len(), bx * by * plan.nchunks);
            for (r, chunks) in plan.pos.chunks_exact(plan.nchunks).enumerate() {
                let mut next = 0;
                for &p in chunks {
                    let u = plan.units[p];
                    prop_assert_eq!((u.i * by + u.j, u.start), (r, next));
                    prop_assert!(u.len > 0);
                    next += u.len;
                }
                prop_assert_eq!(next, len);
            }
            // Waves: none over MAX_WAVE, ends ascending up to the last unit.
            let widths = plan.waves.iter().scan(0, |first, &end| {
                let width = end - std::mem::replace(first, end);
                Some(width)
            });
            prop_assert!(widths.into_iter().all(|w| (1..=MAX_WAVE).contains(&w)));
            prop_assert_eq!(plan.waves.last(), Some(&plan.units.len()));
            // Sources: the neighbor rows' same chunk and the chunk
            // below, each in a strictly earlier wave; off-block
            // neighbors read the halo row or the boundary.
            for (u, &[i, j, c, wave]) in plan.units.iter().zip(&units) {
                let earlier = |q: usize, want: [usize; 3]| {
                    units[q][..3] == want && units[q][3] < wave
                };
                let off_block = |up: bool, row: usize| if up { Src::Halo(row) } else { Src::Boundary };
                match u.im1 {
                    Src::Unit(q) => prop_assert!(i > 0 && earlier(q, [i - 1, j, c])),
                    src => prop_assert!(i == 0 && src == off_block(up_i, j)),
                }
                match u.jm1 {
                    Src::Unit(q) => prop_assert!(j > 0 && earlier(q, [i, j - 1, c])),
                    src => prop_assert!(j == 0 && src == off_block(up_j, i)),
                }
                match u.below {
                    Some(q) => prop_assert!(c > 0 && earlier(q, [i, j, c - 1])),
                    None => prop_assert_eq!(c, 0),
                }
                // The diagonal seed: the neighbor row's chunk below, its
                // top, or off-block the halo row or the boundary.
                match u.diag {
                    Diag::Below(q) => prop_assert!(j > 0 && c > 0 && earlier(q, [i, j - 1, c - 1])),
                    Diag::Top(row) => prop_assert!(j > 0 && c == 0 && row == i * by + j - 1),
                    Diag::Halo(row) => prop_assert!(j == 0 && up_j && row == i),
                    Diag::Boundary => prop_assert!(j == 0 && !up_j),
                }
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
                let plans = WavePlan::for_rank(&d, rank);
                let blk = Block3D::new(d, Paper3D, KernelTier::Bitwise, rank, Vec::new(), &plans);
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
