//! Shared decomposition arithmetic and validation for the distributed
//! executors.
//!
//! [`crate::dist2d::Decomp2D`] and [`crate::dist3d::Decomp3D`] describe
//! the same thing at different arities — a block partition of the
//! cross-section plus a tile height `V` along the pipelined dimension —
//! so the block-extent division, step count `⌈extent / V⌉`, per-step
//! tile ranges and validation checks live here once. Validation errors
//! are a typed [`DecompError`] (not a panic), and the `run_dist*`
//! drivers surface them as `Result`s.
//!
//! Each decomposition is also its own [`RankTopology`] — who is
//! upstream/downstream of a rank, which wire code, how long a face is —
//! and its own [`Layout`]: pre-flight emits every rank's program from
//! those two impls, and the compiled plan keeps the programs it proved
//! for the executors to run, so what is analysed is what runs.

use crate::engine::{ExecMode, MAX_DIRS};
use analyzer::RankTopology;
use std::fmt;
use tiling_core::dependence::DependenceSet;
use tiling_core::schedule::StepPlan;

/// A pipelined block decomposition: a [`RankTopology`] plus what
/// compiling it needs — validation, the step count, and the tiled
/// space its schedule is projected from.
pub trait Layout: RankTopology + Copy {
    /// Arity of the tiled space.
    const DIMS: usize;
    /// The tiled dimension the pipeline runs along (all of its tiles
    /// stay on their rank).
    const MAPPING_DIM: usize;

    /// Validate sizes and divisibility.
    fn validate(&self) -> Result<(), DecompError>;

    /// Pipeline steps per rank.
    fn steps(&self) -> usize;

    /// The dependence set of the kernels this layout runs.
    fn dependences() -> DependenceSet;

    /// The executable projection of `mode`'s schedule over this layout.
    fn step_plan(&self, mode: ExecMode) -> StepPlan {
        mode.step_plan(Self::DIMS, Self::MAPPING_DIM, Layout::steps(self))
    }
}

/// Which of `rank`'s halo directions have an upstream neighbour in
/// `layout`: the faces it receives, and so the halos it keeps.
pub(crate) fn has_upstream<L: RankTopology>(layout: &L, rank: usize) -> [bool; MAX_DIRS] {
    core::array::from_fn(|dir| dir < layout.num_dirs() && layout.upstream(rank, dir).is_some())
}

/// Why a decomposition is invalid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecompError {
    /// A global grid extent is zero.
    EmptyGrid,
    /// A processor-grid extent or the tile height `V` is zero.
    EmptyDecomposition,
    /// An extent does not divide evenly across its processor-grid axis.
    NotDivisible {
        /// The global axis (e.g. `"nx"`).
        axis: &'static str,
        /// The global extent along that axis.
        extent: usize,
        /// The number of processor-grid parts it must divide into.
        parts: usize,
    },
    /// More pipeline steps than a per-rank program counts (`2³² − 1`).
    TooManySteps {
        /// `⌈extent / V⌉`.
        steps: usize,
    },
    /// The grid's `f32` cells do not fit in one allocation: their
    /// bytes overflow `isize`.
    TooLarge,
}

impl fmt::Display for DecompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompError::EmptyGrid => write!(f, "empty grid"),
            DecompError::EmptyDecomposition => write!(f, "empty decomposition"),
            DecompError::NotDivisible {
                axis,
                extent,
                parts,
            } => write!(f, "{axis} = {extent} not divisible by {parts} processors"),
            DecompError::TooManySteps { steps } => write!(f, "{steps} steps, over 2^32 - 1"),
            DecompError::TooLarge => write!(f, "grid bytes overflow isize"),
        }
    }
}

impl std::error::Error for DecompError {}

/// All global extents must be positive.
pub fn require_nonempty_grid(extents: &[usize]) -> Result<(), DecompError> {
    if extents.contains(&0) {
        return Err(DecompError::EmptyGrid);
    }
    Ok(())
}

/// The grid's `f32` cells, `4 · ∏ extents` bytes, must fit in one
/// allocation: at most `isize::MAX` bytes.
pub fn require_addressable(extents: &[usize]) -> Result<(), DecompError> {
    extents
        .iter()
        .try_fold(std::mem::size_of::<f32>(), |bytes, &e| bytes.checked_mul(e))
        .filter(|&bytes| isize::try_from(bytes).is_ok())
        .map(|_| ())
        .ok_or(DecompError::TooLarge)
}

/// All processor-grid extents and the tile height must be positive.
pub fn require_nonempty_decomp(parts: &[usize]) -> Result<(), DecompError> {
    if parts.contains(&0) {
        return Err(DecompError::EmptyDecomposition);
    }
    Ok(())
}

/// `extent` must divide evenly into `parts` blocks along `axis`.
pub fn require_divides(axis: &'static str, extent: usize, parts: usize) -> Result<(), DecompError> {
    if !extent.is_multiple_of(parts) {
        return Err(DecompError::NotDivisible {
            axis,
            extent,
            parts,
        });
    }
    Ok(())
}

/// A pipeline of `steps` steps must fit a program's `u32` step count.
pub fn require_steps_fit(steps: usize) -> Result<(), DecompError> {
    u32::try_from(steps)
        .map(|_| ())
        .map_err(|_| DecompError::TooManySteps { steps })
}

/// Number of pipeline steps along the pipelined dimension:
/// `⌈extent / V⌉` (the last tile may be partial); 0 for the invalid
/// `V = 0`, which `validate()` rejects.
pub fn pipeline_steps(extent: usize, v: usize) -> usize {
    if v == 0 {
        0
    } else {
        extent.div_ceil(v)
    }
}

/// The half-open index range of pipeline step `k`, clamped at the
/// global extent for the partial last tile. Both endpoints clamp, so a
/// step index past the pipeline yields an empty range instead of a
/// reversed one (`start > end`).
pub fn tile_range(extent: usize, v: usize, k: usize) -> (usize, usize) {
    ((k * v).min(extent), ((k + 1) * v).min(extent))
}

/// Assert that `ops` — rank `rank`'s executor state — names its halo
/// directions exactly as `layout`'s [`RankTopology`] impl does, which
/// is how the engine maps a program's wire codes back to faces.
#[cfg(test)]
pub(crate) fn assert_ops_read_layout<L: Layout + fmt::Debug>(
    layout: &L,
    rank: usize,
    ops: &impl crate::engine::TileOps,
) {
    assert_eq!(ops.num_dirs(), layout.num_dirs(), "rank {rank}");
    for dir in 0..layout.num_dirs() {
        let at = format!("{layout:?} rank {rank} dir {dir}");
        assert_eq!(ops.wire_dir(dir), layout.wire_dir(dir), "{at}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_helpers() {
        assert_eq!(require_nonempty_grid(&[4, 4, 8]), Ok(()));
        assert_eq!(require_nonempty_grid(&[4, 0]), Err(DecompError::EmptyGrid));
        assert_eq!(require_nonempty_decomp(&[2, 2, 1]), Ok(()));
        assert_eq!(
            require_nonempty_decomp(&[2, 0]),
            Err(DecompError::EmptyDecomposition)
        );
        assert_eq!(require_divides("nx", 8, 2), Ok(()));
        assert_eq!(
            require_divides("ny", 7, 2),
            Err(DecompError::NotDivisible {
                axis: "ny",
                extent: 7,
                parts: 2
            })
        );
        assert_eq!(
            require_addressable(&[1 << 30, 1 << 30, 1 << 1]),
            Err(DecompError::TooLarge)
        );
        assert_eq!(require_steps_fit(u32::MAX as usize), Ok(()));
        assert_eq!(
            require_steps_fit(1 << 32),
            Err(DecompError::TooManySteps { steps: 1 << 32 })
        );
    }

    #[test]
    fn steps_and_ranges() {
        assert_eq!(pipeline_steps(10, 4), 3);
        assert_eq!(tile_range(10, 4, 0), (0, 4));
        assert_eq!(tile_range(10, 4, 2), (8, 10)); // partial last tile
        assert_eq!(pipeline_steps(5, 9), 1);
        assert_eq!(pipeline_steps(5, 0), 0); // invalid V: no steps, no panic
        assert_eq!(tile_range(5, 9, 0), (0, 5)); // V > extent clamps
                                                 // A step index past the pipeline is empty, not reversed.
        assert_eq!(tile_range(10, 4, 3), (10, 10));
        assert_eq!(tile_range(10, 4, 100), (10, 10));
    }

    #[test]
    fn errors_render() {
        let e = DecompError::NotDivisible {
            axis: "ny",
            extent: 10,
            parts: 3,
        };
        assert_eq!(e.to_string(), "ny = 10 not divisible by 3 processors");
        assert_eq!(DecompError::EmptyGrid.to_string(), "empty grid");
    }
}
