//! Shared decomposition arithmetic and validation for the distributed
//! executor.
//!
//! [`Decomp3D`] is the one layout: a block partition of the `i×j`
//! cross-section plus a tile height `V` along `k`. A 2-D strip
//! ([`Decomp2D`], Example 1) is that layout with a unit `i`-axis
//! ([`Decomp2D::block`]). The block-extent division, step count
//! `⌈extent / V⌉`, per-step tile ranges and validation checks live here.
//! Validation errors are a typed [`DecompError`] (not a panic), and the
//! drivers surface them as `Result`s.
//!
//! [`Decomp3D`] is also its own [`RankTopology`] — who is
//! upstream/downstream of a rank, which wire code, how long a face is:
//! pre-flight emits every rank's program from it, and the compiled plan
//! keeps the programs it proved for the executor to run, so what is
//! analysed is what runs.

use crate::dist3d::Decomp3D;
use crate::engine::MAX_DIRS;
use analyzer::RankTopology;
use std::fmt;

/// The strip decomposition of a 2-D nest (Example 1, §3): ranks own
/// contiguous `j`-strips and the pipeline runs along `i`. It runs as
/// its [`Decomp2D::block`].
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
    /// The strip as a block with a unit `i`-axis: strip cell `(i, j)` is
    /// block cell `(0, j, i)`, so the strips are the `1 × ranks`
    /// processor grid's blocks and the strip's `i` is the block's
    /// pipelined `k`. Its j-column face is the block's J face — same
    /// peer, tag and length — so its programs are a 1-D chain's.
    pub fn block(&self) -> Decomp3D {
        Decomp3D {
            nx: 1,
            ny: self.ny,
            nz: self.nx,
            pi: 1,
            pj: self.ranks,
            v: self.v,
            boundary: self.boundary,
        }
    }

    /// Number of pipeline steps `⌈nx / V⌉`.
    pub fn steps(&self) -> usize {
        self.block().steps()
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
