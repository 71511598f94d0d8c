//! Distributed execution of the paper's 3-D kernel (§5 layout).
//!
//! The processor grid covers the `i×j` cross-section (one block column
//! per rank); all tiles along `k` stay on their rank. Each pipeline step
//! processes a tile of height `V` along `k`:
//!
//! * **blocking** (`ProcB`): receive the `i−1`/`j−1` faces for the
//!   current tile, compute, send own faces — serialized, eq. (3);
//! * **overlapping** (`ProcNB`): post receives for step `k+1` and sends
//!   of step `k−1` results, compute step `k`, wait — the wire time rides
//!   under the computation, eq. (4).
//!
//! ## Structure
//!
//! **The result array is the ranks' storage.** Every `(i, j)` pencil is
//! `nz`-contiguous in the global [`Grid3D`], so a rank's block is its
//! `bx · by` pencils of that array, borrowed as disjoint `&mut [f32]`
//! views ([`rank_pencils`]) — each processor owns its part of the
//! array, for every `pi × pj` and every worker count, and nothing is
//! collected afterwards.
//!
//! [`Block3D`] is the 3-D [`TileOps`] implementation: it borrows the
//! rank's pencils, owns the halo planes and supplies the hot paths —
//! the pipeline loop itself lives in [`crate::engine`], driven by the
//! [`tiling_core`] schedule type behind the chosen [`ExecMode`]. The
//! per-step path is allocation-free and branch-free in its inner loop.
//! `compute_tile` peels the `i==0`/`j==0`/`k==0` boundary cases out of
//! the k-loop: for each `(i, j)` pencil it split-borrows the block at
//! the current row, selects the `i−1`/`j−1` neighbor rows *once*
//! (previous block row, halo row, or a pre-splatted boundary row),
//! carries the `k−1` value in a register, and runs a zip over
//! equal-length slices — no per-cell index arithmetic, no bounds checks,
//! no boundary branches. Faces pack/unpack through the row-chunked
//! [`crate::halo`] copies straight to and from transport wire storage
//! (on a slot-transport world, the peer-visible slot itself): there is
//! no intermediate face or landing buffer at all, and a steady-state
//! step performs zero heap allocations (asserted by
//! `tests/zero_alloc.rs`).
//!
//! Executors are generic over any [`Communicator`]; the one-shot driver
//! [`run_dist3d_with`] compiles a decomposition and runs it on the
//! threaded backend into a fresh [`Grid3D`]. The compiled-plan runners
//! in [`crate::plan`] additionally collect per-rank [`StepObserver`]
//! output.

use crate::decomp::{self, DecompError, Layout, RankLinks};
use crate::engine::{self, EngineError, StepObserver, TileOps};
use crate::grid::Grid3D;
use crate::halo;
use crate::kernel::{Kernel3D, KernelTier, LaneVec, Wave, LANES, MAX_WAVE};
use crate::plan::{self, Compiled3D};
use crate::pool;
use crate::proto::{DIR_I, DIR_J};
use analyzer::RankTopology;
use msgpass::comm::Communicator;
use msgpass::fault::FaultStats;
use msgpass::thread_backend::WorldConfig;
use std::time::Duration;
use tiling_core::dependence::DependenceSet;

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
    /// Validate divisibility and sizes.
    pub fn validate(&self) -> Result<(), DecompError> {
        decomp::require_nonempty_grid(&[self.nx, self.ny, self.nz])?;
        decomp::require_nonempty_decomp(&[self.pi, self.pj, self.v])?;
        decomp::require_divides("nx", self.nx, self.pi)?;
        decomp::require_divides("ny", self.ny, self.pj)
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
/// wraparound). Pre-flight, [`Block3D`] and the pooled [`pool::Shared`]
/// all read this impl.
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
}

/// The paper's §5 layout maps along i₃ of a 3-D tiled space
/// (`Π = [2, 2, 1]` when overlapping).
impl Layout for Decomp3D {
    const DIMS: usize = 3;
    const MAPPING_DIM: usize = 2;

    fn validate(&self) -> Result<(), DecompError> {
        Decomp3D::validate(self)
    }

    fn steps(&self) -> usize {
        Decomp3D::steps(self)
    }

    fn dependences() -> DependenceSet {
        DependenceSet::paper_3d()
    }
}

/// Per-rank working state: the 3-D [`TileOps`] implementation. All
/// buffers are allocated once at construction; the pipeline loop never
/// allocates.
struct Block3D<'g, K> {
    d: Decomp3D,
    links: RankLinks,
    kernel: K,
    tier: KernelTier,
    /// Own block: `rows[i·by + j]` is the `(i, j)` pencil, `nz` long.
    rows: Pencils<'g>,
    /// Halo plane `i = own_lo_i − 1`: `by × nz`.
    halo_i: Vec<f32>,
    /// Halo plane `j = own_lo_j − 1`: `bx × nz`.
    halo_j: Vec<f32>,
    /// Global coordinates of the block origin.
    gi0: i64,
    gj0: i64,
    /// Boundary splat, `nz` long: the "neighbor row" of cells whose
    /// `i−1`/`j−1` neighbor is outside the global grid.
    brow: Vec<f32>,
    /// Per-row wave-carve stamp: `(generation << 5) | item_index`, so a
    /// neighbor lookup finds the carved row in O(1) (see
    /// [`Block3D::eval_chunk_wave`]). Allocated once; a stale
    /// generation means "row not written by the current wave".
    row_item: Vec<u64>,
    wave_gen: u64,
}

impl<'g, K: Kernel3D> Block3D<'g, K> {
    fn new(d: Decomp3D, kernel: K, tier: KernelTier, rank: usize, rows: Pencils<'g>) -> Self {
        let links = RankLinks::of(&d, rank);
        let (ci, cj) = d.coords(rank);
        Block3D {
            d,
            links,
            kernel,
            tier,
            rows,
            halo_i: vec![0.0; d.by() * d.nz],
            halo_j: vec![0.0; d.bx() * d.nz],
            gi0: (ci * d.bx()) as i64,
            gj0: (cj * d.by()) as i64,
            brow: vec![d.boundary; d.nz],
            row_item: vec![0; d.bx() * d.by()],
            wave_gen: 0,
        }
    }

    /// Compute one tile (all of the block's cross-section over `krange`).
    ///
    /// Pencils are blocked into k-chunks of at least [`CHUNK`] cells and
    /// walked in **3-D super-diagonal** order: chunk `(i, j, c)` (cells
    /// `k0 + c·chunk ..`) depends on the same-`k`-range chunks of rows
    /// `(i−1, j)` and `(i, j−1)` plus chunk `c − 1` of its own pencil —
    /// all with coordinate sum `i + j + c − 1` — so every chunk on one
    /// super-diagonal is independent of the others and they go to the
    /// kernel as a [`Wave`] of up to [`MAX_WAVE`] interleaved carry
    /// chains. Chunking matters on small cross-sections: a 4×4 tile has
    /// anti-diagonals of mean width 2.3, but its chunked super-diagonals
    /// interleave 6+ chains, which is what hides the serial
    /// `add → max → sqrt` latency of the paper kernel. Results stay
    /// bitwise-identical to the sequential reference in [`crate::seq`]
    /// on the pinned tier: a single-assignment
    /// recurrence doesn't care in which order independent cells are
    /// written, and each cell's own operation order is preserved by the
    /// wave contract (asserted by the kernel proptests).
    fn compute_tile(&mut self, k: usize) {
        let (k0, k1) = self.d.krange(k);
        let len = k1 - k0;
        let (bx, by) = (self.d.bx(), self.d.by());
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
        for s in 0..ndiags + nchunks - 1 {
            // (i, j) cross-section diagonals participating in this
            // super-diagonal: t = i + j with a live chunk c = s − t.
            let t_lo = s.saturating_sub(nchunks - 1);
            let t_hi = s.min(ndiags - 1);
            // Stream the super-diagonal's chunks in ascending flat-row
            // order (i asc, then j asc — the contiguous j-window of
            // each i), in as few waves as MAX_WAVE allows, equally wide
            // in whole lane groups (24 chunks go as 12 + 12: a 16 + 8
            // split leaves the second wave half the chains to overlap).
            let items = (0..=t_hi.min(bx - 1)).flat_map(|i| {
                let j_lo = t_lo.saturating_sub(i);
                let j_hi = (t_hi - i).min(by - 1);
                (j_lo..=j_hi).map(move |j| (i, j))
            });
            let n = items.clone().count();
            let width = n.div_ceil(n.div_ceil(MAX_WAVE)).next_multiple_of(LANES);
            let mut items = items.peekable();
            while items.peek().is_some() {
                self.eval_chunk_wave(s, items.by_ref().take(width), k0, k1, chunk);
            }
        }
    }

    /// Evaluate one wave of same-super-diagonal chunks: items are
    /// `(i, j)` in ascending flat-row order, each contributing its
    /// chunk `s − i − j` of the tile's `[k0, k1)` pencil span.
    /// Everything set up per wave is sized by the items that arrive,
    /// not by `MAX_WAVE`: the ramp waves of a tile are narrow, and on a
    /// small tile they are most of the waves.
    fn eval_chunk_wave(
        &mut self,
        s: usize,
        items: impl Iterator<Item = (usize, usize)>,
        k0: usize,
        k1: usize,
        chunk: usize,
    ) {
        let kernel = self.kernel;
        let tier = self.tier;
        let by = self.d.by();
        let nz = self.d.nz;
        let b = self.d.boundary;
        let (gi0, gj0) = (self.gi0, self.gj0);
        let up = self.links.up;
        let (has_li, has_lj) = (up[FACE_I].is_some(), up[FACE_J].is_some());
        let halo_i = &self.halo_i[..];
        let halo_j = &self.halo_j[..];
        let brow = &self.brow[..];
        // Carve the block into the wave's output chunks plus everything
        // the wave may read. Rows are distinct within a wave (c is
        // determined by i + j) and streamed in ascending r = i·by + j,
        // so one forward split pass over the rows suffices: each item
        // takes its own row — cut into the part below its output and
        // the output — and leaves the untouched rows before it behind
        // as a readable run. Every read this wave makes lands below an
        // output or in such a run: a neighbor's same-range chunk has
        // coordinate sum s − 1 (finished last super-diagonal), and when
        // that neighbor row's *next* chunk is also an output of this
        // wave, the output starts exactly one chunk above the range
        // being read. Neighbor rows precede the reader's, so the same
        // pass resolves them.
        self.wave_gen += 1;
        let gen = self.wave_gen;
        let row_item = &mut self.row_item[..];
        let mut segs: LaneVec<Seg<'_, '_>> = LaneVec::new();
        let mut wave = Wave::new();
        let mut remaining = &mut self.rows[..];
        let mut off = 0usize;
        for (p, (i, j)) in items.enumerate() {
            let c = s - (i + j);
            let ck0 = k0 + c * chunk;
            let clen = chunk.min(k1 - ck0);
            let r = i * by + j;
            let (run, rest) = remaining.split_at_mut(r - off);
            let (own, rest) = rest.split_first_mut().expect("row r is in the block");
            let (below, at) = own.split_at_mut(ck0);
            let out = &mut at[..clen];
            let below: &[f32] = below;
            segs.push(Seg {
                first: off,
                run,
                below,
            });
            remaining = rest;
            off = r + 1;
            row_item[r] = (gen << 5) | p as u64;
            // A neighbor read is O(1) when the neighbor row was carved
            // this wave (generation match on its stamp): its output is
            // the row's *next* chunk, so the range being read lies
            // below it. A stale stamp — ramp-down waves whose neighbor
            // pencil already finished, or cross-batch neighbors on
            // supersteps wider than MAX_WAVE — means the whole row is
            // readable, in one of the untouched runs.
            let span = |q: usize| -> &[f32] {
                let v = row_item[q];
                let row = if v >> 5 == gen {
                    segs.get((v & 31) as usize).below
                } else {
                    untouched_row(&segs, q)
                };
                &row[ck0..][..clen]
            };
            let im1: &[f32] = if i > 0 {
                span(r - by)
            } else if has_li {
                &halo_i[j * nz + ck0..][..clen]
            } else {
                &brow[ck0..ck0 + clen]
            };
            let jm1: &[f32] = if j > 0 {
                span(r - 1)
            } else if has_lj {
                &halo_j[i * nz + ck0..][..clen]
            } else {
                &brow[ck0..ck0 + clen]
            };
            // k−1 dependence: seed from the cell below the chunk — the
            // previous chunk's top (or the previous tile's, or the
            // boundary); the kernel carries it up the chunk.
            let km1 = below.last().copied().unwrap_or(b);
            wave.push(
                gi0 + i as i64,
                gj0 + j as i64,
                ck0 as i64,
                im1,
                jm1,
                km1,
                out,
            );
        }
        kernel.eval_wave_tier(tier, &mut wave);
    }
}

/// k-chunk length of the super-diagonal tile walk: short enough that a
/// 4×4 cross-section with the paper's V = 128 spreads into wide waves,
/// long enough that the vector pass and per-chunk bookkeeping amortize.
const CHUNK: usize = 32;

/// What one item of a wave carve leaves readable: the run of untouched
/// rows before its own (`run[x]` is row `first + x`) and its own row
/// below its output.
#[derive(Default)]
struct Seg<'a, 'g> {
    first: usize,
    run: &'a [&'g mut [f32]],
    below: &'a [f32],
}

/// Row `q` of the block, not carved by the current wave, among the
/// untouched runs carved so far (`first` ascending): the slow path
/// behind the O(1) stamp lookup in [`Block3D::eval_chunk_wave`]. The
/// row sits in the reader's own run or a few before it, so the search
/// goes latest first.
fn untouched_row<'a>(segs: &LaneVec<Seg<'a, '_>>, q: usize) -> &'a [f32] {
    let mut latest_first = (0..segs.len()).rev().map(|p| segs.get(p));
    let seg = latest_first
        .find(|seg| seg.first <= q)
        .expect("runs cover every row before the reader's");
    &*seg.run[q - seg.first]
}

impl<K: Kernel3D> TileOps for Block3D<'_, K> {
    fn num_dirs(&self) -> usize {
        self.d.num_dirs()
    }

    fn upstream(&self, dir: usize) -> Option<usize> {
        self.links.up[dir]
    }

    fn downstream(&self, dir: usize) -> Option<usize> {
        self.links.dn[dir]
    }

    fn wire_dir(&self, dir: usize) -> u64 {
        self.d.wire_dir(dir)
    }

    fn face_len(&self, dir: usize, step: usize) -> usize {
        self.d.face_len(self.links.rank, dir, step)
    }

    fn pack_into(&mut self, dir: usize, step: usize, out: &mut [f32]) {
        // Gather the outgoing face's rows straight into the wire buffer
        // (the peer-visible slot on a slot-transport world) — the
        // block-to-kernel-buffer copy of the paper's B₂ phase is this
        // one strided copy, with no further staging behind it.
        let (k0, k1) = self.d.krange(step);
        let (bx, by) = (self.d.bx(), self.d.by());
        // Last local i: by consecutive rows; last local j: every by-th.
        let (first, stride) = if dir == FACE_I {
            ((bx - 1) * by, 1)
        } else {
            (by - 1, by)
        };
        let face = self.rows[first..].iter().step_by(stride);
        halo::pack_windows(face.map(|row| &row[k0..k1]), k1 - k0, out);
    }

    fn unpack_from(&mut self, dir: usize, step: usize, data: &[f32]) {
        // Scatter the received face directly from the wire payload into
        // the halo plane — B₃ without an intermediate landing buffer.
        let (k0, k1) = self.d.krange(step);
        let len = k1 - k0;
        let halo = if dir == FACE_I {
            &mut self.halo_i
        } else {
            &mut self.halo_j
        };
        halo::unpack_rows(data, halo, 0, self.d.nz, k0, len);
    }

    fn compute(&mut self, step: usize) {
        self.compute_tile(step);
    }
}

/// One rank's execution of any 3-D kernel from a compiled plan into
/// `rows`, its pencils of the result (see [`rank_pencils`]), reporting
/// every phase to `obs`, or the typed transport/structure error that
/// stopped it. Nothing is re-derived here — the plan is executed
/// exactly as compiled. `knobs` is `(tier, workers, pin)`.
///
/// With `workers > 1` the tile is fanned out across intra-rank compute
/// threads (see [`pool`]): the calling thread is worker 0, `workers − 1`
/// extra threads are spawned for the duration of the rank run and park
/// between tiles, and `pin` places worker `w` on core
/// `rank · workers + w` (best effort) so a rank's pool shares locality.
/// Results are bitwise-identical to the unpooled run on the pinned tier.
pub(crate) fn run_rank3d_into<C: Communicator<f32>, K: Kernel3D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled3D,
    (tier, workers, pin): (KernelTier, usize, bool),
    obs: &mut O,
    rows: Pencils<'_>,
) -> Result<(), EngineError> {
    let (d, plan, rank) = (c.decomp(), c.step_plan(), comm.rank());
    if workers <= 1 {
        let mut blk = Block3D::new(d, kernel, tier, rank, rows);
        return engine::run_rank(comm, &mut blk, plan, obs);
    }
    let pin_base = pin.then(|| rank * workers);
    let shared = pool::Shared::new(d, kernel, tier, workers, rank, rows);
    std::thread::scope(|scope| {
        for w in 1..workers {
            let sh = &shared;
            scope.spawn(move || sh.worker_loop(w, pin_base.map(|b| b + w)));
        }
        let r = engine::run_rank(comm, &mut &shared, plan, obs);
        // Always release the pool — even on a transport error — or the
        // scope would join forever.
        shared.shutdown();
        r
    })
}

/// [`run_rank3d_into`] for a caller that wants one rank's block by
/// itself (the trace recorder, rank-level tests and benches): allocate
/// `bx × by × nz`, run into its pencils, return it.
pub fn try_run_rank3d_plan<C: Communicator<f32>, K: Kernel3D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    workers: usize,
    pin: bool,
    obs: &mut O,
) -> Result<Vec<f32>, EngineError> {
    let d = c.decomp();
    let mut block = vec![0.0; d.bx() * d.by() * d.nz];
    let rows = block.chunks_exact_mut(d.nz).collect();
    run_rank3d_into(comm, kernel, c, (tier, workers, pin), obs, rows)?;
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

    /// One-shot run on a zero-latency world.
    fn run<K: Kernel3D>(kernel: K, d: Decomp3D, mode: ExecMode) -> Result<Grid3D, EngineError> {
        let cfg = WorldConfig::new(LatencyModel::zero());
        run_dist3d_with(kernel, d, &cfg, mode).map(|(grid, _, _)| grid)
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
        check_matches_seq(
            Decomp3D {
                nx: 8,
                ny: 8,
                nz: 32,
                pi: 2,
                pj: 2,
                v: 8,
                boundary: 1.0,
            },
            ExecMode::Blocking,
        );
    }

    #[test]
    fn overlap_matches_sequential_2x2() {
        check_matches_seq(
            Decomp3D {
                nx: 8,
                ny: 8,
                nz: 32,
                pi: 2,
                pj: 2,
                v: 8,
                boundary: 1.0,
            },
            ExecMode::Overlapping,
        );
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

    fn check_pooled_matches_seq(d: Decomp3D, mode: ExecMode, workers: usize) {
        let cfg = WorldConfig::new(LatencyModel::zero()).with_compute_workers(workers);
        let (dist, _, _) = run_dist3d_with(Paper3D, d, &cfg, mode).expect("pooled run");
        let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
        assert_eq!(
            dist.max_abs_diff(&seq),
            0.0,
            "pooled result ({workers} workers) differs ({mode:?}, {d:?})"
        );
    }

    #[test]
    fn pooled_matches_sequential_2x2_two_workers() {
        check_pooled_matches_seq(
            Decomp3D {
                nx: 8,
                ny: 8,
                nz: 32,
                pi: 2,
                pj: 2,
                v: 8,
                boundary: 1.0,
            },
            ExecMode::Overlapping,
            2,
        );
    }

    #[test]
    fn pooled_matches_sequential_4x4_three_workers() {
        // bx = by = 2: most diagonals have fewer items than workers, so
        // some workers get empty shares — they must still hit every
        // barrier.
        check_pooled_matches_seq(
            Decomp3D {
                nx: 8,
                ny: 8,
                nz: 24,
                pi: 4,
                pj: 4,
                v: 5,
                boundary: 2.0,
            },
            ExecMode::Overlapping,
            3,
        );
    }

    #[test]
    fn pooled_single_rank_many_workers() {
        check_pooled_matches_seq(
            Decomp3D {
                nx: 8,
                ny: 8,
                nz: 16,
                pi: 1,
                pj: 1,
                v: 4,
                boundary: 1.0,
            },
            ExecMode::Blocking,
            4,
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
    fn pooled_fast_tier_is_grouping_invariant() {
        // The fast tier's per-pencil operation sequence is independent
        // of how pencils are grouped into waves, so pooled fast must be
        // bitwise-equal to unpooled fast.
        let d = Decomp3D {
            nx: 8,
            ny: 8,
            nz: 32,
            pi: 2,
            pj: 2,
            v: 8,
            boundary: 1.0,
        };
        let fast = WorldConfig::new(LatencyModel::zero()).with_kernel_tier(KernelTier::Fast);
        let (lone, _, _) =
            run_dist3d_with(Paper3D, d, &fast, ExecMode::Overlapping).expect("fast run");
        let pooled_cfg = fast.clone().with_compute_workers(3);
        let (pooled, _, _) =
            run_dist3d_with(Paper3D, d, &pooled_cfg, ExecMode::Overlapping).expect("pooled fast");
        assert_eq!(pooled.max_abs_diff(&lone), 0.0);
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
                let blk = Block3D::new(d, Paper3D, KernelTier::Bitwise, rank, Vec::new());
                decomp::assert_ops_read_layout(&d, rank, &blk);
                let shared =
                    pool::Shared::new(d, Paper3D, KernelTier::Bitwise, 2, rank, Vec::new());
                decomp::assert_ops_read_layout(&d, rank, &&shared);
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
