//! Stencil kernels: the paper's workloads plus further uniform-
//! dependence recurrences that exercise the same tiled pipelines.
//!
//! All kernels are *single-assignment wavefront* recurrences — each cell
//! is written exactly once from already-final upstream values — so every
//! distributed execution is **bitwise** identical to the sequential one
//! regardless of interleaving ([`crate::verify`] checks exact equality).
//!
//! Every kernel is a [`Kernel3D`]: it sees `(im1, jm1, km1)` =
//! `A(i−1,j,k), A(i,j−1,k), A(i,j,k−1)` (dependences {e₁,e₂,e₃}) and the
//! diagonal `diag` = `A(i,j−1,k−1)` (e₂+e₃), plus the global cell
//! coordinates, enabling data-dependent recurrences like LCS-style
//! dynamic programming. The 2-D kernels of Example 1 run as a block
//! with a unit `i`-axis: their cell `(i, j)` is the block's `(0, j, i)`,
//! so their `(1,0)`, `(0,1)` and `(1,1)` dependences are e₃, e₂ and
//! e₂+e₃ — `km1`, `jm1` and `diag`.
//!
//! The executors walk a pencil's `k`-chain through two methods per tier,
//! [`Kernel3D::lift`] and [`Kernel3D::step`] (the fast tier's
//! [`Kernel3D::lift_fast`] and [`Kernel3D::step_fast`]): a cell is
//! stepped from its predecessors' *lifted* values and lifted once, and
//! that one value is what all of its successors read — with uniform
//! dependences every reader wants the same function of a cell, so the
//! paper kernel takes one square root per cell where `eval` takes
//! three. The defaults lift by the identity and step by `eval`; the
//! tile sweep steps the [`LANES`] pencils of one row at a time, each one
//! cell behind the last, a [`LaneBlock`] of [`LANES`] steps per
//! super-round.

use tiling_core::dependence::DependenceSet;
pub use tiling_core::machine::KernelTier;

/// Chains one [`LaneBlock`] steps together, and the cells of each it
/// steps: four `f32` fill the 128-bit registers every x86-64 and
/// aarch64 target has without a build flag.
pub const LANES: usize = 4;

/// One block of a row group of the tile sweep: [`LANES`] steps of the
/// [`LANES`] pencils `(i + l, j)` of one row, lane `l` one cell behind
/// lane `l − 1` — at step `z` lane `l` is at cell `k[l] + z`, with
/// `k[l] = k[0] − l` — so that cell `(i, j, k)` is stepped at
/// `i + j + k`, the paper's `Π = (1, 1, 1)` at cell grain. The inputs
/// are lane-transposed — `jm1[z][l]` is the `j−1` input of lane `l` at
/// step `z` — so that one vector holds one step of every lane, and every
/// input is a lifted value ([`Kernel3D::lift`]).
///
/// A lane's `i−1` input is the cell lane `l − 1` stepped one step
/// earlier: one lane shift of the last step's output, lane 0 taking
/// `corner`. [`LaneBlock::run`] steps the four lanes lane-wise, one
/// instruction per cell of all four; the chain from step to step stays
/// serial.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneBlock {
    /// Global `i` of each lane's pencil.
    pub i: [i64; LANES],
    /// Global `j` of each lane's pencil.
    pub j: [i64; LANES],
    /// Global `k` of each lane's cell at step 0: `k[l] = k[0] − l`.
    pub k: [i64; LANES],
    /// `corner[z]`: `A(i − 1, j, k[0] + z)`, lane 0's `i−1` input at
    /// step `z`.
    pub corner: [f32; LANES],
    /// `jm1[z][l]`: `A(i + l, j−1, k[l] + z)`, which is also the
    /// diagonal of lane `l` at step `z + 1`.
    pub jm1: [[f32; LANES]; LANES],
    /// The diagonal `A(i + l, j−1, k[l] − 1)` of each lane's step-0
    /// cell; of a first block, of the cell lane `l` starts on.
    pub diag: [f32; LANES],
    /// The cell `A(i + l, j, k[l] − 1)` below each lane's step-0 cell
    /// (the output of the step before the block); of a first block, the
    /// cell below the one lane `l` starts on.
    pub km1: [f32; LANES],
}

impl LaneBlock {
    /// Step every cell of the block through `step` and lift it through
    /// `lift` (a tier's pair of [`Kernel3D`] methods): cell `z` of lane
    /// `l` is `raw[z][l] = step(i, j, k + z, im1, jm1, diag, km1)` and
    /// `lifted[z][l] = lift(raw[z][l])`, whose lane `l` is the `km1` of
    /// lane `l` and the `im1` of lane `l + 1` at step `z + 1`. Returns
    /// `(raw, lifted)`.
    ///
    /// A `FIRST` block starts lane `l`'s chain at step `l`, on `km1[l]`
    /// and `diag[l]`; the steps before it are not cells, and what they
    /// return is the caller's to drop. Each cell sees exactly the
    /// operands and order of a scalar walk of its row; the lanes only
    /// decide which cells share an instruction, never a bit of the
    /// result. A lane the caller does not read (masked, not started, or
    /// past its tile) is stepped all the same: it costs nothing extra in
    /// a vector, and no branch in here depends on the data.
    #[inline(always)]
    pub fn run<const FIRST: bool>(
        &self,
        lift: impl Fn(f32) -> f32,
        step: impl Fn(i64, i64, i64, f32, f32, f32, f32) -> f32,
    ) -> ([[f32; LANES]; LANES], [[f32; LANES]; LANES]) {
        let mut raw = [[0.0f32; LANES]; LANES];
        let mut lifted = [[0.0f32; LANES]; LANES];
        let mut prev = self.km1;
        // LINT: z and l index six arrays each; this shape is what vectorizes
        #[allow(clippy::needless_range_loop)]
        for z in 0..LANES {
            let diag = if z == 0 { self.diag } else { self.jm1[z - 1] };
            for l in 0..LANES {
                let im1 = if l == 0 { self.corner[z] } else { prev[l - 1] };
                let (i, j, k) = (self.i[l], self.j[l], self.k[l] + z as i64);
                raw[z][l] = step(i, j, k, im1, self.jm1[z][l], diag[l], prev[l]);
                lifted[z][l] = lift(raw[z][l]);
            }
            if FIRST {
                for l in 0..LANES {
                    if self.k[l] + (z as i64) < 0 {
                        lifted[z][l] = self.km1[l];
                    }
                }
            }
            prev = lifted[z];
        }
        (raw, lifted)
    }
}

/// A wavefront kernel over a 3-D block with dependences among
/// `{e₁, e₂, e₃, e₂+e₃}`.
///
/// The executors never call [`Kernel3D::eval`] in their hot loop. They
/// lift every cell once, [`Kernel3D::lift`] — the value the cell hands
/// to each of its successors — and compute a cell from its
/// predecessors' lifted values, [`Kernel3D::step`]. The defaults lift by
/// the identity and step by `eval`, so a kernel is `eval` alone, bitwise
/// by construction. An override moves the work every reader of a cell
/// repeats into `lift` (the paper kernel lifts `x ↦ √x⁺`, one square
/// root per cell instead of three) and must keep
/// `step(i, j, k, lift(a), lift(c), lift(d), lift(z))` bit for bit equal
/// to `eval(i, j, k, a, c, z, d)` for every input, ±0 and ±∞ included,
/// a NaN for a NaN (the kernel proptests assert this). A kernel that
/// overrides one of the pair overrides the other.
pub trait Kernel3D: Copy + Send + Sync + 'static {
    /// Compute the value of cell `(i, j, k)` from its upstream values:
    /// `im1`, `jm1`, `km1` along the axes and `diag` = `A(i, j−1, k−1)`,
    /// which only the unit-axis 2-D kernels read.
    #[allow(clippy::too_many_arguments)] // LINT: one argument per neighbour and coordinate
    fn eval(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, km1: f32, diag: f32) -> f32;

    /// The value a cell hands to its successors: what [`Kernel3D::step`]
    /// reads of it along every dependence.
    #[inline]
    fn lift(&self, x: f32) -> f32 {
        x
    }

    /// Cell `(i, j, k)` from the lifted values of its upstream cells
    /// (argument order as the sweep holds them: the `k−1` input last).
    #[inline]
    #[allow(clippy::too_many_arguments)] // LINT: eval()'s arguments
    fn step(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, diag: f32, km1: f32) -> f32 {
        self.eval(i, j, k, im1, jm1, km1, diag)
    }

    /// Fast-math tier of [`Kernel3D::lift`] ([`KernelTier::Fast`]).
    #[inline]
    fn lift_fast(&self, x: f32) -> f32 {
        self.lift(x)
    }

    /// Fast-math tier of [`Kernel3D::step`] ([`KernelTier::Fast`]).
    ///
    /// Overrides may reassociate the per-cell arithmetic and substitute
    /// cheaper equivalents valid on the recurrence's reachable domain,
    /// shortening the loop-carried dependency chain at the cost of
    /// bitwise reproducibility. Results are ULP-bounded against the
    /// pinned tier (asserted by the fast-tier tests), never assumed
    /// identical. The default is the bitwise step.
    #[inline]
    #[allow(clippy::too_many_arguments)] // LINT: step()'s signature
    fn step_fast(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, diag: f32, km1: f32) -> f32 {
        self.step(i, j, k, im1, jm1, diag, km1)
    }
}

/// The 3-point √ kernel of the paper's experiments (§5):
/// `A(i,j,k) = √A(i−1,j,k) + √A(i,j−1,k) + √A(i,j,k−1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Paper3D;

impl Paper3D {
    /// Apply the update given the three upstream values (coordinate-free
    /// convenience used by the hand-written fast paths and tests).
    #[inline]
    pub fn eval(a_im1: f32, a_jm1: f32, a_km1: f32) -> f32 {
        a_im1.max(0.0).sqrt() + a_jm1.max(0.0).sqrt() + a_km1.max(0.0).sqrt()
    }

    /// The dependence set `{e₁, e₂, e₃}`.
    pub fn deps() -> DependenceSet {
        DependenceSet::paper_3d()
    }
}

impl Kernel3D for Paper3D {
    #[inline]
    fn eval(&self, _i: i64, _j: i64, _k: i64, im1: f32, jm1: f32, km1: f32, _diag: f32) -> f32 {
        Paper3D::eval(im1, jm1, km1)
    }

    // Every reader of a cell takes its `√x⁺`, so the cell is lifted to
    // it once. The scalar form adds `(√im1⁺ + √jm1⁺) + √km1⁺`
    // left-to-right, which is exactly the step's order, so bitwise
    // equal; `max` maps NaN to 0 in both.
    #[inline]
    fn lift(&self, x: f32) -> f32 {
        x.max(0.0).sqrt()
    }

    #[inline]
    fn step(&self, _: i64, _: i64, _: i64, a: f32, c: f32, _: f32, s: f32) -> f32 {
        (a + c) + s
    }

    // Fast tier: every cell is a sum of square roots, hence ≥ 0, so on
    // the reachable domain `max(x, 0)` reduces to `|x|` (one cycle, off
    // the sqrt's critical path on most cores). Off-domain (negative)
    // inputs lift to `√|x|` here where the pinned tier clamps them to
    // 0, which is exactly the contract difference the tier flag
    // signals. The step is the pinned one.
    #[inline]
    fn lift_fast(&self, x: f32) -> f32 {
        x.abs().sqrt()
    }
}

/// A damped 3-D smoothing recurrence (successive-relaxation flavour):
/// `A = ω/3 · (A_{i−1} + A_{j−1} + A_{k−1})` with `ω < 1` for stability.
#[derive(Clone, Copy, Debug)]
pub struct Relax3D {
    /// Relaxation factor in `(0, 1]`.
    pub omega: f32,
}

impl Default for Relax3D {
    fn default() -> Self {
        Relax3D { omega: 0.9 }
    }
}

impl Kernel3D for Relax3D {
    #[inline]
    fn eval(&self, _i: i64, _j: i64, _k: i64, im1: f32, jm1: f32, km1: f32, _diag: f32) -> f32 {
        self.omega / 3.0 * (im1 + jm1 + km1)
    }

    // The bitwise lift and step are the defaults: the identity and
    // `eval`. Fast tier: distribute `w = ω/3` into the carry-free
    // term, so the chain is `v = prev·w + w·(a + c)` — reassociated,
    // each cell perturbed by ≤ a few ULP; the recurrence is a
    // contraction (`ω < 1`), so the perturbation stays bounded. A separate multiply and add, not
    // `mul_add`: without the `fma` target feature that is a call into
    // libm per cell. Unfused, the chain is as long as the pinned tier's
    // and the two run at the same rate.
    #[inline]
    fn step_fast(&self, _: i64, _: i64, _: i64, a: f32, c: f32, _: f32, prev: f32) -> f32 {
        let w = self.omega / 3.0;
        prev * w + w * (a + c)
    }
}

/// A max-plus "longest path through a 3-D lattice" recurrence:
/// `A = max(im1, jm1, km1) + w(i,j,k)` with a deterministic pseudo-
/// random cell weight — the 3-D analogue of sequence-alignment DP.
#[derive(Clone, Copy, Debug, Default)]
pub struct LongestPath3D;

/// A tiny deterministic hash → `[0, 1)` weight (SplitMix64 finalizer).
#[inline]
pub fn cell_weight(i: i64, j: i64, k: i64) -> f32 {
    let mut z = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((k as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    ((z >> 40) as f32) / ((1u64 << 24) as f32)
}

impl Kernel3D for LongestPath3D {
    #[inline]
    fn eval(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, km1: f32, _diag: f32) -> f32 {
        im1.max(jm1).max(km1) + cell_weight(i, j, k)
    }
}

/// A fused-multiply-add anisotropic smoothing recurrence:
/// `A = wa·A_{i−1} + wa·A_{j−1} + wc·A_{k−1}`, written with
/// [`f32::mul_add`]; its pinned step is `eval` itself, so the sweep is
/// bitwise identical to the scalar form by construction. Contractive
/// when `2·wa + wc < 1`.
#[derive(Clone, Copy, Debug)]
pub struct Fused3D {
    /// Weight of the `i−1` and `j−1` neighbors.
    pub wa: f32,
    /// Weight of the loop-carried `k−1` neighbor.
    pub wc: f32,
}

impl Default for Fused3D {
    fn default() -> Self {
        Fused3D { wa: 0.45, wc: 0.09 }
    }
}

impl Kernel3D for Fused3D {
    #[inline]
    fn eval(&self, _i: i64, _j: i64, _k: i64, im1: f32, jm1: f32, km1: f32, _diag: f32) -> f32 {
        im1.mul_add(self.wa, jm1.mul_add(self.wa, km1 * self.wc))
    }

    // Bitwise: the fused expression nests `prev` *inside* the second
    // FMA, so no carry-free prefix can be split off without
    // reassociating — the step is the whole expression, the default
    // one built from `eval`, and the lift the identity. Fast tier: the
    // non-carried `wa·a + wa·c` comes off the chain, which collapses to
    // `v = prev·wc + e` — reassociated, ULP-bounded, and contractive for
    // the shipped weights (`2·wa + wc < 1`). Unfused on
    // purpose: the pinned tier must keep the kernel's two `mul_add`s,
    // which cost a libm call each where the target has no `fma`
    // feature, and plain multiplies and adds are what lets this tier
    // vectorize past it.
    #[inline]
    fn step_fast(&self, _: i64, _: i64, _: i64, a: f32, c: f32, _: f32, prev: f32) -> f32 {
        let (wa, wc) = (self.wa, self.wc);
        prev * wc + (a * wa + c * wa)
    }
}

/// The 2-D kernel of Example 1 (§3), damped so long sweeps stay finite
/// in `f32` (the dependence structure — the only thing the schedule
/// cares about — is unchanged).
#[derive(Clone, Copy, Debug, Default)]
pub struct Example1;

impl Example1 {
    /// Apply the update given the three upstream values.
    #[inline]
    pub fn eval(a_diag: f32, a_im1: f32, a_jm1: f32) -> f32 {
        0.25 * (a_diag + a_im1 + a_jm1)
    }

    /// The dependence set `{(1,1), (1,0), (0,1)}`.
    pub fn deps() -> DependenceSet {
        DependenceSet::example_1()
    }
}

/// Cell `(i, j)` of the strip is cell `(0, j, i)` of its block: the
/// strip's `i−1` neighbour is `km1`, its `j−1` one `jm1`.
impl Kernel3D for Example1 {
    #[inline]
    fn eval(&self, _i: i64, _j: i64, _k: i64, _im1: f32, jm1: f32, km1: f32, diag: f32) -> f32 {
        Example1::eval(diag, km1, jm1)
    }
}

/// LCS-style sequence-alignment dynamic programming:
/// `A(i,j) = max(diag + match(i,j), im1, jm1)` where `match` is 1 when
/// two deterministic pseudo-random sequences agree at `(i, j)`.
#[derive(Clone, Copy, Debug)]
pub struct Alignment2D {
    /// Alphabet size of the synthetic sequences (≥ 1; smaller = more
    /// matches).
    pub alphabet: u32,
}

impl Default for Alignment2D {
    fn default() -> Self {
        Alignment2D { alphabet: 4 }
    }
}

impl Alignment2D {
    #[inline]
    fn symbol(seed: u64, idx: i64, alphabet: u32) -> u32 {
        let mut z = (idx as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed);
        z ^= z >> 31;
        z = z.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^= z >> 32;
        (z % u64::from(alphabet.max(1))) as u32
    }
}

/// On the strip's unit-axis block, as [`Example1`]: strip `i` is `k`.
impl Kernel3D for Alignment2D {
    #[inline]
    fn eval(&self, _i: i64, j: i64, k: i64, _im1: f32, jm1: f32, km1: f32, diag: f32) -> f32 {
        let m = Self::symbol(0xA5A5, k, self.alphabet) == Self::symbol(0x5A5A, j, self.alphabet);
        let with_match = diag + if m { 1.0 } else { 0.0 };
        with_match.max(km1).max(jm1)
    }
}

/// A 2-D smoothing recurrence using only the axis dependences
/// `{(1,0), (0,1)}` (Gauss–Seidel sweep flavour).
#[derive(Clone, Copy, Debug)]
pub struct Smooth2D {
    /// Relaxation factor in `(0, 1]`.
    pub omega: f32,
}

impl Default for Smooth2D {
    fn default() -> Self {
        Smooth2D { omega: 0.8 }
    }
}

/// On the strip's unit-axis block, as [`Example1`]: strip `i` is `k`.
impl Kernel3D for Smooth2D {
    #[inline]
    fn eval(&self, _i: i64, _j: i64, _k: i64, _im1: f32, jm1: f32, km1: f32, _diag: f32) -> f32 {
        self.omega * 0.5 * (km1 + jm1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper3d_deps() {
        let d = Paper3D::deps();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dims(), 3);
    }

    #[test]
    fn paper3d_eval() {
        assert_eq!(Paper3D::eval(4.0, 9.0, 16.0), 2.0 + 3.0 + 4.0);
        assert_eq!(Paper3D::eval(0.0, 0.0, 0.0), 0.0);
        // Negative guards (can't feed NaNs into the pipeline).
        assert_eq!(Paper3D::eval(-1.0, 4.0, 0.0), 2.0);
        // Trait form agrees with the inherent form.
        let k = Paper3D;
        assert_eq!(Kernel3D::eval(&k, 5, 6, 7, 4.0, 9.0, 16.0, -1.0), 9.0);
    }

    #[test]
    fn example1_eval() {
        assert_eq!(Example1::eval(4.0, 8.0, 4.0), 4.0);
        assert_eq!(Example1::eval(0.0, 0.0, 0.0), 0.0);
        let k = Example1;
        // Strip cell (1, 2) is block cell (0, 2, 1): km1 = 8, jm1 = 4.
        assert_eq!(Kernel3D::eval(&k, 0, 2, 1, -1.0, 4.0, 8.0, 4.0), 4.0);
    }

    #[test]
    fn example1_bounded_on_constant_boundary() {
        let mut v = 1000.0f32;
        for _ in 0..100 {
            v = Example1::eval(v, v, v);
        }
        assert!(v < 1.0);
    }

    #[test]
    fn relax3d_is_contraction() {
        let k = Relax3D::default();
        let v = Kernel3D::eval(&k, 0, 0, 0, 1.0, 1.0, 1.0, 1.0);
        assert!(v < 1.0 && v > 0.0);
    }

    #[test]
    fn longest_path_monotone() {
        let k = LongestPath3D;
        let a = Kernel3D::eval(&k, 1, 2, 3, 5.0, 1.0, 2.0, 9.0);
        assert!((5.0..6.0).contains(&a));
    }

    #[test]
    fn cell_weight_deterministic_and_bounded() {
        for (i, j, k) in [(0, 0, 0), (5, 7, 11), (100, -3, 2)] {
            let w = cell_weight(i, j, k);
            assert_eq!(w, cell_weight(i, j, k));
            assert!((0.0..1.0).contains(&w), "{w}");
        }
        assert_ne!(cell_weight(1, 2, 3), cell_weight(3, 2, 1));
    }

    #[test]
    fn alignment_match_increments_diagonal() {
        let k = Alignment2D { alphabet: 1 }; // everything matches
        let v = Kernel3D::eval(&k, 0, 4, 3, 0.0, 1.0, 1.0, 2.0);
        assert_eq!(v, 3.0);
        // Score is non-decreasing in all inputs.
        assert!(Kernel3D::eval(&k, 0, 4, 3, 0.0, 1.0, 5.0, 2.0) >= v);
    }

    #[test]
    fn smooth2d_ignores_diagonal_and_declares_axis_deps() {
        let k = Smooth2D::default();
        assert_eq!(
            Kernel3D::eval(&k, 0, 0, 0, 0.0, 1.0, 1.0, 1e9),
            Kernel3D::eval(&k, 0, 0, 0, 0.0, 1.0, 1.0, -1e9)
        );
        // Its two axis dependences are the block's e₂ and e₃.
        let eval = |jm1, km1| Kernel3D::eval(&k, 0, 0, 0, 0.0, jm1, km1, 0.0);
        assert_eq!(eval(2.0, 0.0), eval(0.0, 2.0));
        assert!(eval(2.0, 0.0) > eval(0.0, 0.0));
    }

    #[test]
    fn example1_deps() {
        let d = Example1::deps();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dims(), 2);
    }

    #[test]
    fn fused3d_is_contraction() {
        let k = Fused3D::default();
        let v = Kernel3D::eval(&k, 0, 0, 0, 1.0, 1.0, 1.0, 1.0);
        assert!(v < 1.0 && v > 0.0);
    }

    /// Walk `eval` cell by cell with the loop-carried `k−1` value and
    /// the diagonal read off `jm1` — the reference every step must
    /// match bitwise.
    #[allow(clippy::too_many_arguments)] // LINT: one pencil's inputs, returned
    fn scalar_pencil<K: Kernel3D>(
        k: &K,
        i: i64,
        j: i64,
        k0: i64,
        im1: &[f32],
        jm1: &[f32],
        km1: f32,
        diag: f32,
    ) -> Vec<f32> {
        let mut prev = km1;
        let mut out = Vec::with_capacity(im1.len());
        for (n, (&a, &c)) in im1.iter().zip(jm1).enumerate() {
            let d = if n == 0 { diag } else { jm1[n - 1] };
            let v = k.eval(i, j, k0 + n as i64, a, c, prev, d);
            out.push(v);
            prev = v;
        }
        out
    }

    /// Walk one pencil through `lift`/`step` one cell at a time.
    #[allow(clippy::too_many_arguments)] // LINT: one pencil's inputs, returned
    fn stepped_pencil<K: Kernel3D>(
        k: &K,
        i: i64,
        j: i64,
        k0: i64,
        im1: &[f32],
        jm1: &[f32],
        km1: f32,
        diag: f32,
    ) -> Vec<f32> {
        let (mut s, mut d) = (k.lift(km1), k.lift(diag));
        let cells = im1.iter().zip(jm1).enumerate();
        let step = |(n, (&a, &c)): (usize, (&f32, &f32))| {
            let c = k.lift(c);
            let v = k.step(i, j, k0 + n as i64, k.lift(a), c, d, s);
            (s, d) = (k.lift(v), c);
            v
        };
        cells.map(step).collect()
    }

    fn check_pencil_bitwise<K: Kernel3D>(kernel: K, name: &str) {
        // Deterministic awkward data: mixed signs and magnitudes so the
        // `max(0.0)` guards and non-associative sums are exercised.
        for (len, seed) in [(1usize, 3u64), (7, 17), (64, 255), (129, 4096)] {
            let gen = |s: u64, n: usize| {
                let w = cell_weight(s as i64, n as i64, len as i64);
                (w - 0.5) * 8.0 * if n.is_multiple_of(3) { -1.0 } else { 1.0 }
            };
            let im1: Vec<f32> = (0..len).map(|n| gen(seed, n)).collect();
            let jm1: Vec<f32> = (0..len).map(|n| gen(seed ^ 0xFF, n)).collect();
            let (km1, diag) = (gen(seed ^ 0xABCD, len), gen(seed ^ 0x1234, len));
            let want = scalar_pencil(&kernel, 5, -2, 11, &im1, &jm1, km1, diag);
            let got = stepped_pencil(&kernel, 5, -2, 11, &im1, &jm1, km1, diag);
            for (n, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name}: cell {n} of {len} differs: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn pencil_matches_scalar_bitwise() {
        check_pencil_bitwise(Paper3D, "paper3d");
        check_pencil_bitwise(Relax3D::default(), "relax3d");
        check_pencil_bitwise(Relax3D { omega: 0.37 }, "relax3d-0.37");
        check_pencil_bitwise(LongestPath3D, "longest-path");
        check_pencil_bitwise(Fused3D::default(), "fused3d");
        check_pencil_bitwise(Fused3D { wa: 0.3, wc: 0.25 }, "fused3d-0.3");
        check_pencil_bitwise(Example1, "example1");
        check_pencil_bitwise(Alignment2D { alphabet: 2 }, "alignment2d");
        check_pencil_bitwise(Smooth2D::default(), "smooth2d");
    }

    /// One row of up to [`LANES`] pencils `(l, −1)` from `k = 0`:
    /// pencil 0's `i−1` inputs, every pencil's `j−1` inputs (each as long
    /// as the first), and each pencil's `k−1` and diagonal seeds.
    struct Row {
        corner: Vec<f32>,
        jm1s: Vec<Vec<f32>>,
        km1s: Vec<f32>,
        diags: Vec<f32>,
    }

    /// Walk the row with `eval`, pencil by pencil: pencil `l ≥ 1` reads
    /// pencil `l − 1`'s cells as its `i−1` inputs.
    fn scalar_row<K: Kernel3D>(k: &K, row: &Row) -> Vec<Vec<f32>> {
        let mut outs: Vec<Vec<f32>> = Vec::new();
        for (l, jm1) in row.jm1s.iter().enumerate() {
            let im1 = outs.last().unwrap_or(&row.corner);
            let (km1, diag) = (row.km1s[l], row.diags[l]);
            outs.push(scalar_pencil(k, l as i64, -1, 0, im1, jm1, km1, diag));
        }
        outs
    }

    /// Step the row block by block through [`LaneBlock::run`], as the
    /// sweep steps a row group's first tile: lane `l` one cell behind
    /// lane `l − 1`, the cells below `k = 0` read as the seeds (a `j−1`
    /// input's cell −1 is its pencil's diagonal seed), and lanes past
    /// the last pencil and steps past a lane's cells run on padding and
    /// are not read.
    fn lane_row<K: Kernel3D>(k: &K, fast: bool, row: &Row) -> Vec<Vec<f32>> {
        let lift = |x: f32| if fast { k.lift_fast(x) } else { k.lift(x) };
        let step = |i, j, kz, a, c, d, s| match fast {
            true => k.step_fast(i, j, kz, a, c, d, s),
            false => k.step(i, j, kz, a, c, d, s),
        };
        let len = row.corner.len();
        let at = |x: &[f32], c: i64| {
            lift(
                usize::try_from(c)
                    .ok()
                    .and_then(|c| x.get(c))
                    .map_or(0.0, |&x| x),
            )
        };
        let seed = |x: &[f32], l: usize| lift(x.get(l).copied().unwrap_or(0.0));
        let jm1 = |l: usize, c: i64| match (row.jm1s.get(l), c) {
            (Some(_), -1) => seed(&row.diags, l),
            (Some(x), c) => at(x, c),
            (None, _) => 0.0,
        };
        let mut blk = LaneBlock {
            km1: core::array::from_fn(|l| seed(&row.km1s, l)),
            ..LaneBlock::default()
        };
        let mut outs = vec![vec![0.0; len]; row.jm1s.len()];
        for r in 0..(len + LANES - 1).div_ceil(LANES) {
            let k0 = (LANES * r) as i64;
            for l in 0..LANES {
                (blk.i[l], blk.j[l], blk.k[l]) = (l as i64, -1, k0 - l as i64);
                blk.corner[l] = at(&row.corner, k0 + l as i64);
                for z in 0..LANES {
                    blk.jm1[z][l] = jm1(l, k0 + (z as i64) - l as i64);
                }
                blk.diag[l] = jm1(l, k0 - 1 - l as i64);
            }
            let (out, up) = match r {
                0 => blk.run::<true>(lift, step),
                _ => blk.run::<false>(lift, step),
            };
            blk.km1 = up[LANES - 1];
            for (l, o) in outs.iter_mut().enumerate() {
                for (z, cells) in out.iter().enumerate() {
                    if let Some(o) = (LANES * r + z).checked_sub(l).and_then(|c| o.get_mut(c)) {
                        *o = cells[l];
                    }
                }
            }
        }
        outs
    }

    /// Deterministic mixed-sign pencil data, distinct per (pencil, salt).
    fn wave_data(p: usize, salt: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|n| {
                let w = cell_weight(p as i64 + salt as i64 * 31, n as i64, len as i64);
                (w - 0.5) * 8.0
            })
            .collect()
    }

    /// A row of `m` pencils of `len` cells.
    fn row_inputs(m: usize, len: usize) -> Row {
        let seeds = |salt: i64| -> Vec<f32> {
            let seed = |p: usize| (cell_weight(p as i64, salt, 9) - 0.5) * 4.0;
            (0..m).map(seed).collect()
        };
        Row {
            corner: wave_data(m, 1, len),
            jm1s: (0..m).map(|p| wave_data(p, 2, len)).collect(),
            km1s: seeds(9),
            diags: seeds(10),
        }
    }

    fn check_wave_bitwise<K: Kernel3D>(kernel: K, name: &str) {
        // Widths 1..=LANES, lengths with and without a `(len + 3) %
        // LANES` remainder, one block and several.
        for (m, len) in (1..=LANES).flat_map(|m| [1usize, 5, 7, 64, 129].map(|len| (m, len))) {
            let row = row_inputs(m, len);
            let got = lane_row(&kernel, false, &row);
            let want = scalar_row(&kernel, &row);
            for (p, (got, want)) in got.iter().zip(&want).enumerate() {
                for (n, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name}: row of {m}, pencil {p} cell {n} of {len} differs: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn wave_matches_pencil_bitwise() {
        check_wave_bitwise(Paper3D, "paper3d");
        check_wave_bitwise(Relax3D::default(), "relax3d");
        check_wave_bitwise(Relax3D { omega: 0.37 }, "relax3d-0.37");
        check_wave_bitwise(LongestPath3D, "longest-path");
        check_wave_bitwise(Fused3D::default(), "fused3d");
        check_wave_bitwise(Fused3D { wa: 0.3, wc: 0.25 }, "fused3d-0.3");
        check_wave_bitwise(Example1, "example1");
        check_wave_bitwise(Alignment2D { alphabet: 2 }, "alignment2d");
        check_wave_bitwise(Smooth2D::default(), "smooth2d");
    }

    /// ULP distance between two finite f32 of the same sign region.
    fn ulp_diff(a: f32, b: f32) -> u32 {
        let (ia, ib) = (a.to_bits() as i32, b.to_bits() as i32);
        ia.abs_diff(ib)
    }

    fn fast_drift<K: Kernel3D>(kernel: K) -> u32 {
        // Non-negative inputs: the fast tier's domain contract.
        let row = row_inputs(LANES, 65);
        let abs = |x: &Vec<f32>| x.iter().map(|x| x.abs()).collect::<Vec<_>>();
        let row = Row {
            corner: abs(&row.corner),
            jm1s: row.jm1s.iter().map(abs).collect(),
            km1s: abs(&row.km1s),
            diags: vec![0.0; LANES],
        };
        let want = lane_row(&kernel, false, &row);
        let got = lane_row(&kernel, true, &row);
        let cells = got.iter().flatten().zip(want.iter().flatten());
        cells.map(|(g, w)| ulp_diff(*g, *w)).max().unwrap()
    }

    #[test]
    fn fast_tier_stays_within_ulp_bound() {
        for (name, drift) in [
            ("paper3d", fast_drift(Paper3D)),
            ("relax3d", fast_drift(Relax3D::default())),
            ("fused3d", fast_drift(Fused3D::default())),
        ] {
            assert!(drift <= 8, "{name}: fast tier drifted {drift} ULP");
        }
    }
}
