//! Distributed execution of the 2-D Example 1 kernel (§3/§4).
//!
//! Strip decomposition: ranks own contiguous `j`-strips, tiles sweep the
//! `i` dimension (the paper's Example 1 maps along `i₁`, the 10 000-long
//! dimension). The dependence set `{(1,1),(1,0),(0,1)}` makes the halo a
//! single column per neighbor, with the diagonal `(1,1)` satisfied by
//! keeping the *whole* halo column resident: the value `(i−1, j₀−1)`
//! needed by tile `k` arrived with message `k` (rows `kV..`) or message
//! `k−1` (row `kV−1`), both already received before tile `k` computes.
//!
//! ## Structure
//!
//! [`Strip2D`] is the 2-D [`TileOps`] implementation: it owns the strip,
//! halo column and face buffer and supplies the branch-peeled
//! `compute_tile` hot path — [`crate::engine`] runs the rank's compiled
//! program over it. Each
//! row's `i−1` neighbors are one contiguous slice (the previous strip
//! row or a boundary splat), the `j−1` value is loop-carried, and the
//! diagonal/west pair comes from a two-wide window over the neighbor
//! row. The outgoing face column (stride `by`) gathers straight into
//! the transport's wire buffer and the received column copies straight
//! from the wire payload into the contiguous halo window — no face or
//! landing buffers at all. Steady-state steps allocate nothing.

use crate::decomp::{self, DecompError, Layout};
use crate::engine::{self, EngineError, StepObserver, TileOps};
use crate::grid::Grid2D;
use crate::kernel::Kernel2D;
use crate::plan::{self, Compiled2D};
use crate::proto::DIR_J;
use analyzer::RankTopology;
use msgpass::comm::Communicator;
use msgpass::fault::FaultStats;
use msgpass::thread_backend::WorldConfig;
use std::time::Duration;
use tiling_core::dependence::DependenceSet;

pub use crate::engine::ExecMode;

/// Domain decomposition for the 2-D kernel.
#[derive(Clone, Copy, Debug)]
pub struct Decomp2D {
    /// Global extent along i (the pipelined dimension).
    pub nx: usize,
    /// Global extent along j (partitioned across ranks).
    pub ny: usize,
    /// Number of ranks (j-strips).
    pub ranks: usize,
    /// Tile height `V` along i.
    pub v: usize,
    /// Boundary value.
    pub boundary: f32,
}

impl Decomp2D {
    /// Validate divisibility and sizes.
    pub fn validate(&self) -> Result<(), DecompError> {
        decomp::require_nonempty_grid(&[self.nx, self.ny])?;
        decomp::require_addressable(&[self.nx, self.ny])?;
        decomp::require_nonempty_decomp(&[self.ranks, self.v])?;
        decomp::require_divides("ny", self.ny, self.ranks)?;
        decomp::require_steps_fit(self.steps())
    }

    /// Strip width per rank.
    pub fn by(&self) -> usize {
        self.ny / self.ranks
    }

    /// Number of pipeline steps `⌈nx / V⌉`.
    pub fn steps(&self) -> usize {
        decomp::pipeline_steps(self.nx, self.v)
    }

    /// The i-range of step `k` (the last tile may be partial).
    pub(crate) fn irange(&self, k: usize) -> (usize, usize) {
        decomp::tile_range(self.nx, self.v, k)
    }
}

/// The strip decomposition as a rank topology: a 1-D chain where rank
/// `r` ships its last `j`-column to rank `r + 1`, one face per pipeline
/// step. Pre-flight and [`Strip2D`] both read this impl.
impl RankTopology for Decomp2D {
    fn ranks(&self) -> usize {
        self.ranks
    }

    fn num_dirs(&self) -> usize {
        1
    }

    fn upstream(&self, rank: usize, _dir: usize) -> Option<usize> {
        rank.checked_sub(1)
    }

    fn downstream(&self, rank: usize, _dir: usize) -> Option<usize> {
        (rank + 1 < self.ranks).then_some(rank + 1)
    }

    fn wire_dir(&self, _dir: usize) -> u64 {
        DIR_J
    }

    fn face_len(&self, _rank: usize, _dir: usize, step: usize) -> usize {
        let (i0, i1) = self.irange(step);
        i1 - i0
    }
}

/// Example 1 maps along i₁ of a 2-D tiled space (`Π = [1, 2]`).
impl Layout for Decomp2D {
    const DIMS: usize = 2;
    const MAPPING_DIM: usize = 0;

    fn validate(&self) -> Result<(), DecompError> {
        Decomp2D::validate(self)
    }

    fn steps(&self) -> usize {
        Decomp2D::steps(self)
    }

    fn dependences() -> DependenceSet {
        DependenceSet::example_1()
    }
}

/// Per-rank working state: the 2-D [`TileOps`] implementation. All
/// buffers are allocated once; the pipeline loop never allocates.
struct Strip2D<K> {
    d: Decomp2D,
    /// Whether a strip to the left ships its face here.
    has_left: bool,
    kernel: K,
    /// Own strip, `nx × by`, j fastest.
    strip: Vec<f32>,
    /// Halo column `j = own_lo − 1`, full `nx` length.
    halo: Vec<f32>,
    /// Global j of the strip's first column.
    gj0: i64,
    /// Boundary splat, `by` long: the `i−1` neighbor row of row 0.
    brow: Vec<f32>,
}

impl<K: Kernel2D> Strip2D<K> {
    fn new(d: Decomp2D, kernel: K, rank: usize) -> Self {
        Strip2D {
            d,
            has_left: decomp::has_upstream(&d, rank)[0],
            kernel,
            strip: vec![0.0; d.nx * d.by()],
            halo: vec![0.0; d.nx],
            gj0: (rank * d.by()) as i64,
            brow: vec![d.boundary; d.by()],
        }
    }

    /// Compute one tile (rows `irange(k)` across the strip width).
    ///
    /// Bitwise-identical to the sequential reference in [`crate::seq`].
    fn compute_tile(&mut self, k: usize) {
        let kernel = self.kernel;
        let (i0, i1) = self.d.irange(k);
        let by = self.d.by();
        let b = self.d.boundary;
        let has_left = self.has_left;
        for i in i0..i1 {
            let row = i * by;
            let (done, rest) = self.strip.split_at_mut(row);
            // Row i−1, fully computed (earlier tile or earlier row of
            // this tile); row 0 reads the boundary splat instead.
            let up: &[f32] = if i > 0 { &done[row - by..] } else { &self.brow };
            let cur = &mut rest[..by];
            // Peel j == 0: its west/diagonal neighbors come from the
            // halo column (or the boundary).
            let diag0 = if i > 0 && has_left {
                self.halo[i - 1]
            } else {
                b
            };
            let jm1_0 = if has_left { self.halo[i] } else { b };
            let mut prev = kernel.eval(i as i64, self.gj0, diag0, up[0], jm1_0);
            cur[0] = prev;
            // Steady state: diag = up[j−1], north = up[j], west carried.
            for (gj, (out, w)) in (self.gj0 + 1..).zip(cur[1..].iter_mut().zip(up.windows(2))) {
                let val = kernel.eval(i as i64, gj, w[0], w[1], prev);
                *out = val;
                prev = val;
            }
        }
    }
}

impl<K: Kernel2D> TileOps for Strip2D<K> {
    fn num_dirs(&self) -> usize {
        self.d.num_dirs()
    }

    fn wire_dir(&self, dir: usize) -> u64 {
        self.d.wire_dir(dir)
    }

    fn pack_into(&mut self, _dir: usize, step: usize, out: &mut [f32]) {
        // Gather the outgoing boundary column (j = by−1) of the tile
        // straight into the wire buffer — no intermediate face buffer.
        let (i0, i1) = self.d.irange(step);
        let by = self.d.by();
        let col = by - 1;
        for (o, i) in out.iter_mut().zip(i0..i1) {
            *o = self.strip[i * by + col];
        }
    }

    fn unpack_from(&mut self, _dir: usize, step: usize, data: &[f32]) {
        // The halo column is contiguous: the wire payload copies
        // straight into its tile window.
        let (i0, i1) = self.d.irange(step);
        self.halo[i0..i1].copy_from_slice(data);
    }

    fn compute(&mut self, step: usize) {
        self.compute_tile(step);
    }
}

/// One rank's execution of any 2-D kernel from a compiled plan,
/// reporting every phase to `obs`; returns its strip (`nx × by`) or the
/// typed transport/structure error that stopped it. Nothing is
/// re-derived here — the plan is executed exactly as compiled.
pub fn try_run_rank2d_plan<C: Communicator<f32>, K: Kernel2D, O: StepObserver>(
    comm: &mut C,
    kernel: K,
    c: &Compiled2D,
    obs: &mut O,
) -> Result<Vec<f32>, EngineError> {
    let program = c.program(comm)?;
    let mut s = Strip2D::new(c.decomp(), kernel, comm.rank());
    engine::run_rank(comm, &mut s, program, obs)?;
    Ok(s.strip)
}

/// One-shot world run: compile `d` under `mode` (validation, plus the
/// pre-flight analysis unless `cfg.skip_preflight`), run it on a fresh
/// world built from `cfg`, and gather. Returns the assembled grid, the
/// wall-clock time, and each rank's fault counters, or the most
/// diagnostic error (see [`EngineError::severity`]).
pub fn run_dist2d_with<K: Kernel2D>(
    kernel: K,
    d: Decomp2D,
    cfg: &WorldConfig,
    mode: ExecMode,
) -> Result<(Grid2D, Duration, Vec<FaultStats>), EngineError> {
    let c = Compiled2D::seal(d, mode, !cfg.skip_preflight)?;
    plan::run2d_with(kernel, &c, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Example1;
    use crate::seq::run_example1_seq;
    use msgpass::thread_backend::LatencyModel;

    /// One-shot run on a zero-latency world.
    fn run<K: Kernel2D>(kernel: K, d: Decomp2D, mode: ExecMode) -> Result<Grid2D, EngineError> {
        let cfg = WorldConfig::new(LatencyModel::zero());
        run_dist2d_with(kernel, d, &cfg, mode).map(|(grid, _, _)| grid)
    }

    fn check(d: Decomp2D, mode: ExecMode) {
        let dist = run(Example1, d, mode).expect("valid decomp");
        let seq = run_example1_seq(d.nx, d.ny, d.boundary);
        assert_eq!(dist.max_abs_diff(&seq), 0.0, "{mode:?} {d:?}");
    }

    #[test]
    fn blocking_matches_sequential() {
        check(
            Decomp2D {
                nx: 40,
                ny: 12,
                ranks: 4,
                v: 10,
                boundary: 4.0,
            },
            ExecMode::Blocking,
        );
    }

    #[test]
    fn overlap_matches_sequential() {
        check(
            Decomp2D {
                nx: 40,
                ny: 12,
                ranks: 4,
                v: 10,
                boundary: 4.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn overlap_partial_last_tile() {
        check(
            Decomp2D {
                nx: 37,
                ny: 9,
                ranks: 3,
                v: 8,
                boundary: 1.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn single_rank() {
        check(
            Decomp2D {
                nx: 16,
                ny: 8,
                ranks: 1,
                v: 4,
                boundary: 2.0,
            },
            ExecMode::Blocking,
        );
    }

    #[test]
    fn fine_grain_v1() {
        check(
            Decomp2D {
                nx: 10,
                ny: 6,
                ranks: 2,
                v: 1,
                boundary: 3.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn wide_strips() {
        check(
            Decomp2D {
                nx: 24,
                ny: 30,
                ranks: 5,
                v: 6,
                boundary: 1.0,
            },
            ExecMode::Blocking,
        );
    }

    #[test]
    fn unit_width_strips() {
        // by == 1: every row's steady-state loop is empty and the face
        // column is also the first column.
        check(
            Decomp2D {
                nx: 12,
                ny: 3,
                ranks: 3,
                v: 5,
                boundary: 2.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn generic_2d_kernels_match_sequential() {
        use crate::kernel::{Alignment2D, Smooth2D};
        use crate::seq::run_seq2d;
        let d = Decomp2D {
            nx: 25,
            ny: 12,
            ranks: 3,
            v: 6,
            boundary: 1.0,
        };
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let k = Alignment2D { alphabet: 3 };
            let dist = run(k, d, mode).expect("valid decomp");
            let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "Alignment2D {mode:?}");

            let k = Smooth2D::default();
            let dist = run(k, d, mode).expect("valid decomp");
            let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "Smooth2D {mode:?}");
        }
    }

    #[test]
    fn invalid_decomps_are_errors_not_panics() {
        let bad_div = Decomp2D {
            nx: 10,
            ny: 10,
            ranks: 3,
            v: 2,
            boundary: 0.0,
        };
        assert_eq!(
            bad_div.validate(),
            Err(DecompError::NotDivisible {
                axis: "ny",
                extent: 10,
                parts: 3
            })
        );
        assert!(run(Example1, bad_div, ExecMode::Blocking).is_err());
        let bad_v = Decomp2D { v: 0, ..bad_div };
        assert_eq!(bad_v.validate(), Err(DecompError::EmptyDecomposition));
        // No compile path seals either: V = 0 must not divide by zero on
        // the way to its error, and an indivisible grid must not
        // silently run as a smaller one.
        assert_eq!(bad_v.steps(), 0);
        for compile in [Compiled2D::compile, Compiled2D::compile_unchecked] {
            let rejected = |bad: Decomp2D| compile(bad, ExecMode::Blocking).unwrap_err();
            assert_eq!(rejected(bad_v), DecompError::EmptyDecomposition.into());
            assert_eq!(rejected(bad_div), bad_div.validate().unwrap_err().into());
        }
    }

    #[test]
    fn diagonal_dependence_exercised() {
        // A boundary of 1.0 with multiple strips: if the diagonal halo
        // value were mishandled, column j = by (first column of rank 1)
        // would differ from sequential. Use an asymmetric size to make
        // index bugs visible.
        check(
            Decomp2D {
                nx: 13,
                ny: 4,
                ranks: 2,
                v: 3,
                boundary: 1.0,
            },
            ExecMode::Overlapping,
        );
    }

    #[test]
    fn executor_reads_the_layout_preflight_analyses() {
        for ranks in [6, 4] {
            let d = Decomp2D {
                nx: 23,
                ny: 2 * ranks,
                ranks,
                v: 5, // partial last tile
                boundary: 1.0,
            };
            for rank in 0..ranks {
                decomp::assert_ops_read_layout(&d, rank, &Strip2D::new(d, Example1, rank));
            }
        }
    }
}
