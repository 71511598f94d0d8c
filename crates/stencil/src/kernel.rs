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

use tiling_core::dependence::DependenceSet;
pub use tiling_core::machine::KernelTier;

/// Maximum number of pencils a [`Wave`] can hold.
///
/// One step of a carry chain is latency-bound (`add → max → sqrt` is
/// ~6.5 ns on the paper kernel, scalar or vector alike) while the units
/// accept a new vector every ~1.2 ns, so a wave wants several
/// [`LANES`]-wide groups of chains in flight at once. Four groups cover
/// that latency, and their carry state (`4 × [f32; 4]`) stays in
/// registers.
pub const MAX_WAVE: usize = 16;

/// Chains stepped together in one vector: four `f32` fill the 128-bit
/// registers every x86-64 and aarch64 target has without a build flag.
pub(crate) const LANES: usize = 4;

/// Waves this narrow go pencil by pencil on the bitwise tier: a lone
/// chain has nothing to overlap with, so the split into a pre-pass and
/// a carry pass only adds a second sweep over `out` (measured by the
/// crate's `tests/wave_micro.rs`; from two chains up the wave form wins). Both
/// forms run each cell's scalar operation order, so the choice never
/// shows in the bits; the fast tier has no pencil form to fall back to.
const NARROW_WAVE: usize = 1;

/// A fixed-capacity stack vector ([`MAX_WAVE`] slots) stored as groups
/// of [`LANES`] that are filled in when their first slot is pushed, so
/// setting up and dropping an `m`-element vector touches `⌈m / LANES⌉`
/// groups, not `MAX_WAVE` slots — the tile walk builds one per wave,
/// and most waves of a small tile are narrow.
pub(crate) struct LaneVec<T> {
    len: usize,
    groups: [Option<[T; LANES]>; MAX_WAVE / LANES],
}

impl<T: Default> LaneVec<T> {
    pub(crate) fn new() -> Self {
        LaneVec {
            len: 0,
            groups: core::array::from_fn(|_| None),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// # Panics
    /// If all [`MAX_WAVE`] slots are taken.
    pub(crate) fn push(&mut self, item: T) {
        let (g, l) = (self.len / LANES, self.len % LANES);
        assert!(g < self.groups.len(), "wave overflow");
        self.groups[g].get_or_insert_with(Default::default)[l] = item;
        self.len += 1;
    }

    /// The live slots of every group in turn: all [`LANES`] of a full
    /// group, fewer of the last.
    fn groups_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let len = self.len;
        let groups = self.groups.iter_mut().flatten().enumerate();
        groups.map(move |(g, group)| &mut group[..LANES.min(len - g * LANES)])
    }
}

/// One pencil of a [`Wave`]: the arguments of [`Kernel3D::eval_pencil`].
#[derive(Default)]
struct Pencil<'a> {
    gi: i64,
    gj: i64,
    k0: i64,
    km1: f32,
    diag: f32,
    im1: &'a [f32],
    jm1: &'a [f32],
    out: &'a mut [f32],
}

/// A batch of up to [`MAX_WAVE`] *mutually independent* pencils.
///
/// The executors walk a tile's cross-section in anti-diagonal order:
/// all pencils with `i + j = const` depend only on rows from earlier
/// diagonals, so their loop-carried `k`-chains are independent and a
/// kernel may interleave them freely — each *cell* still sees exactly
/// its sequential operation order, so the bitwise tier stays pinned,
/// but the CPU now has `m` independent dependency chains in flight
/// instead of one, [`LANES`] of them per vector.
pub struct Wave<'a>(LaneVec<Pencil<'a>>);

impl<'a> Default for Wave<'a> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Wave<'a> {
    /// An empty wave.
    pub fn new() -> Self {
        Wave(LaneVec::new())
    }

    /// Number of pencils currently batched.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no pencils are batched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pencils (and with them the `out` borrows).
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Append one pencil. The caller asserts (by construction of the
    /// batch) that it is independent of every pencil already present.
    /// `km1` and `diag` seed the pencil's first cell as in
    /// [`Kernel3D::eval_pencil`].
    ///
    /// # Panics
    /// If the wave is full, or if `im1`, `jm1` and `out` differ in
    /// length — checked here once so the kernels' zipped passes can
    /// never leave the cells past a short neighbour unwritten.
    #[allow(clippy::too_many_arguments)] // LINT: mirrors eval_pencil's signature
    pub fn push(
        &mut self,
        gi: i64,
        gj: i64,
        k0: i64,
        im1: &'a [f32],
        jm1: &'a [f32],
        km1: f32,
        diag: f32,
        out: &'a mut [f32],
    ) {
        assert!(
            im1.len() == out.len() && jm1.len() == out.len(),
            "wave pencil lengths differ: im1 {}, jm1 {}, out {}",
            im1.len(),
            jm1.len(),
            out.len()
        );
        self.0.push(Pencil {
            gi,
            gj,
            k0,
            km1,
            diag,
            im1,
            jm1,
            out,
        });
    }

    /// Pre-pass: `out[z] = f(im1[z], jm1[z])` over every pencil — the
    /// carry-free part of a cell, a plain zipped loop the compiler
    /// vectorizes whatever `f` is.
    #[inline(always)]
    fn pre(&mut self, f: impl Fn(f32, f32) -> f32) {
        for p in self.0.groups_mut().flatten() {
            for (o, (&a, &c)) in p.out.iter_mut().zip(p.im1.iter().zip(p.jm1)) {
                *o = f(a, c);
            }
        }
    }

    /// Carry pass: walk every pencil's `k`-chain, cell `z` doing
    /// `(out[z], s) = step(im1[z], jm1[z], out[z], s)` with `s` seeded
    /// by `seed(km1)`, all chains advancing together [`LANES`] cells a
    /// round.
    ///
    /// A full group of [`LANES`] pencils runs *lane-transposed* over
    /// the whole blocks they all have: the block's rows are loaded as
    /// `[f32; LANES]`, transposed so that one vector holds the same `z`
    /// of all four chains, stepped lane-wise — four chains per
    /// instruction — and transposed back. The last, partial group and
    /// the cells past a group's shortest pencil take the same `step`
    /// one chain at a time inside the same round, so their latency
    /// still overlaps the vector groups'. Either way a cell sees exactly
    /// the operations, operands and order of a scalar walk up its
    /// pencil: grouping changes which chains share an instruction,
    /// never a bit of the result. Inputs a `step` ignores are never
    /// loaded.
    #[inline(always)]
    fn carry(
        &mut self,
        seed: impl Fn(f32) -> f32,
        step: impl Fn(f32, f32, f32, f32) -> (f32, f32),
    ) {
        let mut state = [[0.0f32; LANES]; MAX_WAVE / LANES];
        // Cells of each group that run lane-transposed: the whole
        // blocks of a full group's shortest pencil.
        let mut blocks = [0usize; MAX_WAVE / LANES];
        let mut longest = 0;
        for (g, group) in self.0.groups_mut().enumerate() {
            let mut shortest = usize::MAX;
            for (p, s) in group.iter().zip(&mut state[g]) {
                *s = seed(p.km1);
                shortest = shortest.min(p.out.len());
                longest = longest.max(p.out.len());
            }
            if group.len() == LANES {
                blocks[g] = shortest - shortest % LANES;
            }
        }
        // A row of a block; all zeros where the pencil is too short,
        // which `push` rules out for im1/jm1 once `out` has the row —
        // but a load that cannot panic is one the compiler may drop.
        #[allow(clippy::expect_used)] // LINT: a `z..z + LANES` slice is LANES long
        let row = |x: &[f32], z: usize| -> [f32; LANES] {
            let r = x.get(z..z + LANES);
            r.map_or([0.0; LANES], |r| r.try_into().expect("LANES long"))
        };
        for z in (0..longest).step_by(LANES) {
            for (g, group) in self.0.groups_mut().enumerate() {
                let s = &mut state[g];
                if z < blocks[g] {
                    #[allow(clippy::expect_used)] // LINT: only full groups have blocks
                    let lanes: &mut [Pencil<'_>; LANES] =
                        group.try_into().expect("only full groups have blocks");
                    // x[k][l]: cell z + k of lane l.
                    let mut a = [[0.0f32; LANES]; LANES];
                    let mut c = [[0.0f32; LANES]; LANES];
                    let mut t = [[0.0f32; LANES]; LANES];
                    for (l, p) in lanes.iter().enumerate() {
                        let (ra, rc, rt) = (row(p.im1, z), row(p.jm1, z), row(p.out, z));
                        for k in 0..LANES {
                            (a[k][l], c[k][l], t[k][l]) = (ra[k], rc[k], rt[k]);
                        }
                    }
                    for k in 0..LANES {
                        for l in 0..LANES {
                            (t[k][l], s[l]) = step(a[k][l], c[k][l], t[k][l], s[l]);
                        }
                    }
                    for (l, p) in lanes.iter_mut().enumerate() {
                        let r: [f32; LANES] = core::array::from_fn(|k| t[k][l]);
                        p.out[z..z + LANES].copy_from_slice(&r);
                    }
                } else {
                    for (p, s) in group.iter_mut().zip(s) {
                        let r = z.min(p.out.len())..(z + LANES).min(p.out.len());
                        let ins = p.im1[r.clone()].iter().zip(&p.jm1[r.clone()]);
                        for (o, (&a, &c)) in p.out[r].iter_mut().zip(ins) {
                            (*o, *s) = step(a, c, *o, *s);
                        }
                    }
                }
            }
        }
    }
}

/// A wavefront kernel over a 3-D block with dependences among
/// `{e₁, e₂, e₃, e₂+e₃}`.
pub trait Kernel3D: Copy + Send + Sync + 'static {
    /// Compute the value of cell `(i, j, k)` from its upstream values:
    /// `im1`, `jm1`, `km1` along the axes and `diag` = `A(i, j−1, k−1)`,
    /// which only the unit-axis 2-D kernels read.
    #[allow(clippy::too_many_arguments)] // LINT: one argument per neighbour and coordinate
    fn eval(&self, i: i64, j: i64, k: i64, im1: f32, jm1: f32, km1: f32, diag: f32) -> f32;

    /// Evaluate a whole `k`-pencil: cells `(i, j, k0..k0+out.len())`,
    /// with `im1`/`jm1` the equal-length neighbor pencils, `km1`
    /// seeding the loop-carried `k−1` dependence and `diag` the first
    /// cell's diagonal `A(i, j−1, k0−1)`; every later cell's diagonal is
    /// the `jm1` cell below it.
    ///
    /// This is the executors' inner loop. The default walks
    /// [`Kernel3D::eval`] cell by cell — **bitwise identical** by
    /// construction. Kernels override it to hoist loop-invariant work
    /// out of the pencil and iterate over zipped slices (no bounds
    /// checks, no per-cell index arithmetic), which is what lets the
    /// compiler keep the non-carried part of the arithmetic in vector
    /// registers; overrides must preserve each cell's exact operation
    /// order so results stay bitwise equal to the scalar form (the
    /// kernel tests assert this).
    #[inline]
    #[allow(clippy::too_many_arguments)] // LINT: mirrors eval()'s per-cell signature, pencil-wide
    fn eval_pencil(
        &self,
        i: i64,
        j: i64,
        k0: i64,
        im1: &[f32],
        jm1: &[f32],
        km1: f32,
        diag: f32,
        out: &mut [f32],
    ) {
        let (mut prev, mut diag) = (km1, diag);
        for (kz, (o, (&a, &c))) in (k0..).zip(out.iter_mut().zip(im1.iter().zip(jm1))) {
            let v = self.eval(i, j, kz, a, c, prev, diag);
            *o = v;
            (prev, diag) = (v, c);
        }
    }

    /// Walk a [`Wave`] pencil by pencil through
    /// [`Kernel3D::eval_pencil`]: the default [`Kernel3D::eval_wave`],
    /// and what the overrides fall back to on waves too narrow to gain
    /// from interleaving (`NARROW_WAVE`).
    #[inline]
    fn eval_pencils(&self, wave: &mut Wave<'_>) {
        for p in wave.0.groups_mut().flatten() {
            self.eval_pencil(p.gi, p.gj, p.k0, p.im1, p.jm1, p.km1, p.diag, p.out);
        }
    }

    /// Evaluate a [`Wave`] of mutually independent pencils.
    ///
    /// This is the two-pass vectorized form of [`Kernel3D::eval_pencil`]:
    /// overrides run a plain zipped pre-pass (the non-carried term of
    /// every cell) followed by a carry pass that steps the `m`
    /// independent `k`-chains together, four chains to a vector — each
    /// cell still performs exactly its sequential operations in the
    /// sequential order, so the result is **bitwise** equal to running
    /// [`Kernel3D::eval_pencil`] on each pencil (the kernel proptests
    /// assert this); only the chain-level parallelism changes.
    ///
    /// The default simply walks the pencils one by one — bitwise by
    /// construction for kernels without an override.
    #[inline]
    fn eval_wave(&self, wave: &mut Wave<'_>) {
        self.eval_pencils(wave)
    }

    /// Fast-math tier of [`Kernel3D::eval_wave`] ([`KernelTier::Fast`]).
    ///
    /// Overrides may reassociate the per-cell arithmetic and substitute
    /// cheaper equivalents valid on the recurrence's reachable domain,
    /// shortening the loop-carried dependency chain at the cost of
    /// bitwise reproducibility. Results are ULP-bounded against the
    /// pinned tier (asserted by the fast-tier tests), never assumed
    /// identical. The default falls back to the bitwise wave.
    #[inline]
    fn eval_wave_fast(&self, wave: &mut Wave<'_>) {
        self.eval_wave(wave)
    }

    /// Dispatch a wave through the tier-selected evaluator.
    #[inline]
    fn eval_wave_tier(&self, tier: KernelTier, wave: &mut Wave<'_>) {
        match tier {
            KernelTier::Bitwise => self.eval_wave(wave),
            KernelTier::Fast => self.eval_wave_fast(wave),
        }
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

    // Carry √A(i,j,k−1) across the pencil: each cell then does two fresh
    // square roots (vectorizable, no index math) plus the carried one.
    // The scalar form adds `(√im1 + √jm1) + √km1` left-to-right, which
    // is exactly this loop's order, so results are bitwise equal.
    #[inline]
    fn eval_pencil(
        &self,
        _i: i64,
        _j: i64,
        _k0: i64,
        im1: &[f32],
        jm1: &[f32],
        km1: f32,
        _diag: f32,
        out: &mut [f32],
    ) {
        let mut sk = km1.max(0.0).sqrt();
        for (o, (&a, &c)) in out.iter_mut().zip(im1.iter().zip(jm1)) {
            let v = a.max(0.0).sqrt() + c.max(0.0).sqrt() + sk;
            *o = v;
            sk = v.max(0.0).sqrt();
        }
    }

    // Two-pass wave: the pre-pass writes the carry-free `√im1 + √jm1`
    // term of every cell into `out`; the carry pass steps the m chains
    // `v = out[z] + sk; sk = √v⁺` together. Each cell computes
    // `(√a⁺ + √c⁺) + √km1⁺` in exactly the scalar order, so the result
    // is bitwise equal to `eval_pencil`; the win is that the
    // add→max→sqrt carry latency of one group of chains hides under
    // the other groups', and each sqrt instruction serves four cells.
    #[inline]
    fn eval_wave(&self, wave: &mut Wave<'_>) {
        if wave.len() <= NARROW_WAVE {
            return self.eval_pencils(wave);
        }
        wave.pre(|a, c| a.max(0.0).sqrt() + c.max(0.0).sqrt());
        wave.carry(
            |km1| km1.max(0.0).sqrt(),
            |_, _, t, sk| {
                let v = t + sk;
                (v, v.max(0.0).sqrt())
            },
        );
    }

    // Fast tier: every carried value is a sum of square roots, hence
    // ≥ 0, so on the reachable domain `max(v, 0)` reduces to `|v|` (one
    // cycle, off the sqrt's critical path on most cores) and the input
    // guards of the pre-pass can go entirely — the executors only feed
    // the kernel its own outputs, the (non-negative) boundary splat, or
    // halos thereof. Off-domain (negative) inputs would produce NaNs
    // here where the pinned tier clamps, which is exactly the contract
    // difference the tier flag signals.
    #[inline]
    fn eval_wave_fast(&self, wave: &mut Wave<'_>) {
        wave.pre(|a, c| a.sqrt() + c.sqrt());
        wave.carry(
            |km1| km1.abs().sqrt(),
            |_, _, t, sk| {
                let v = t + sk;
                (v, v.abs().sqrt())
            },
        );
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

    // Hoist the `ω/3` division out of the pencil and pre-add the two
    // non-carried neighbors. The scalar form is `(ω/3) · ((im1 + jm1)
    // + km1)`, so `w · (s + prev)` performs the identical operations in
    // the identical order — bitwise equal, one divide per pencil.
    #[inline]
    fn eval_pencil(
        &self,
        _i: i64,
        _j: i64,
        _k0: i64,
        im1: &[f32],
        jm1: &[f32],
        km1: f32,
        _diag: f32,
        out: &mut [f32],
    ) {
        let w = self.omega / 3.0;
        let mut prev = km1;
        for (o, (&a, &c)) in out.iter_mut().zip(im1.iter().zip(jm1)) {
            let v = w * (a + c + prev);
            *o = v;
            prev = v;
        }
    }

    // Two-pass wave: the pre-pass writes the carry-free `im1 + jm1`
    // term; the carry pass does `w · ((a + c) + prev)` per cell in
    // exactly the scalar association — the scalar `a + c + prev` parses
    // left-to-right, so bitwise equal.
    #[inline]
    fn eval_wave(&self, wave: &mut Wave<'_>) {
        if wave.len() <= NARROW_WAVE {
            return self.eval_pencils(wave);
        }
        let w = self.omega / 3.0;
        wave.pre(|a, c| a + c);
        wave.carry(
            |km1| km1,
            |_, _, t, prev| {
                let v = w * (t + prev);
                (v, v)
            },
        );
    }

    // Fast tier: distribute `w` into the carry-free term — the pre-pass
    // computes `w·(a + c)` and the carry is `v = prev·w + ws[z]`. The
    // reassociation perturbs each cell by ≤ a few ULP; the recurrence
    // is a contraction (`ω < 1`), so the perturbation stays bounded.
    // Written with a separate multiply and add, not `mul_add`: without
    // the `fma` target feature that is a call into libm per cell (this
    // tier used to run at 0.67× the pinned one for it). Unfused, the
    // chain is as long as the pinned tier's and the two run at the same
    // rate.
    #[inline]
    fn eval_wave_fast(&self, wave: &mut Wave<'_>) {
        let w = self.omega / 3.0;
        wave.pre(|a, c| w * (a + c));
        wave.carry(
            |km1| km1,
            |_, _, t, prev| {
                let v = prev * w + t;
                (v, v)
            },
        );
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
/// [`f32::mul_add`] in **both** the scalar and pencil forms so the two
/// are bitwise identical by construction and the compiler can emit FMA
/// instructions for the non-carried lanes. Contractive when
/// `2·wa + wc < 1`.
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

    // Same fused expression over zipped slices: nothing to hoist, but
    // the slice form drops the per-cell coordinate bookkeeping of the
    // default and keeps the two FMAs in straight-line code.
    #[inline]
    fn eval_pencil(
        &self,
        _i: i64,
        _j: i64,
        _k0: i64,
        im1: &[f32],
        jm1: &[f32],
        km1: f32,
        _diag: f32,
        out: &mut [f32],
    ) {
        let (wa, wc) = (self.wa, self.wc);
        let mut prev = km1;
        for (o, (&a, &c)) in out.iter_mut().zip(im1.iter().zip(jm1)) {
            let v = a.mul_add(wa, c.mul_add(wa, prev * wc));
            *o = v;
            prev = v;
        }
    }

    // Bitwise wave: the fused expression nests `prev` *inside* the
    // second FMA, so no carry-free prefix can be split off without
    // reassociating — instead the carry pass takes the full per-cell
    // expression (identical ops and order per cell, m chains in
    // flight) and there is no pre-pass.
    #[inline]
    fn eval_wave(&self, wave: &mut Wave<'_>) {
        if wave.len() <= NARROW_WAVE {
            return self.eval_pencils(wave);
        }
        let (wa, wc) = (self.wa, self.wc);
        wave.carry(
            |km1| km1,
            |a, c, _, prev| {
                let v = a.mul_add(wa, c.mul_add(wa, prev * wc));
                (v, v)
            },
        );
    }

    // Fast tier: hoist the non-carried `wa·a + wa·c` into the pre-pass
    // so the carry chain collapses to `v = prev·wc + e[z]` —
    // reassociated, ULP-bounded, and contractive for the shipped
    // weights (`2·wa + wc < 1`). Unfused on purpose: the pinned tier
    // must keep the kernel's two `mul_add`s, which cost a libm call
    // each where the target has no `fma` feature, and plain multiplies
    // and adds are what lets this tier vectorize past it.
    #[inline]
    fn eval_wave_fast(&self, wave: &mut Wave<'_>) {
        let (wa, wc) = (self.wa, self.wc);
        wave.pre(|a, c| a * wa + c * wa);
        wave.carry(
            |km1| km1,
            |_, _, t, prev| {
                let v = prev * wc + t;
                (v, v)
            },
        );
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
    /// the diagonal read off `jm1` — the reference the pencil overrides
    /// must match bitwise.
    #[allow(clippy::too_many_arguments)] // LINT: eval_pencil's arguments, returned
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
            let mut got = vec![0.0f32; len];
            kernel.eval_pencil(5, -2, 11, &im1, &jm1, km1, diag, &mut got);
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

    /// Deterministic mixed-sign pencil data, distinct per (pencil, salt).
    fn wave_data(p: usize, salt: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|n| {
                let w = cell_weight(p as i64 + salt as i64 * 31, n as i64, len as i64);
                (w - 0.5) * 8.0
            })
            .collect()
    }

    fn check_wave_bitwise<K: Kernel3D>(kernel: K, name: &str) {
        // Widths spanning 1..MAX_WAVE (full lane groups and a partial
        // one), lengths with and without a `% LANES` remainder, plus one
        // ragged batch (mixed pencil lengths: cells past a group's
        // shortest pencil leave the lane-transposed path).
        for (m, lens) in [
            (1usize, vec![5usize]),
            (3, vec![64; 3]),
            (4, vec![7; 4]),
            (MAX_WAVE, vec![129; MAX_WAVE]),
            (5, vec![1, 8, 17, 3, 40]),
        ] {
            let im1s: Vec<Vec<f32>> = (0..m).map(|p| wave_data(p, 1, lens[p])).collect();
            let jm1s: Vec<Vec<f32>> = (0..m).map(|p| wave_data(p, 2, lens[p])).collect();
            let seeds = |salt: i64| -> Vec<f32> {
                let seed = |p: usize| (cell_weight(p as i64, salt, 9) - 0.5) * 4.0;
                (0..m).map(seed).collect()
            };
            let (km1s, diags) = (seeds(9), seeds(10));
            let mut want: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0; l]).collect();
            for p in 0..m {
                let (im1, jm1) = (&im1s[p], &jm1s[p]);
                kernel.eval_pencil(p as i64, -1, 3, im1, jm1, km1s[p], diags[p], &mut want[p]);
            }
            let mut got: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0; l]).collect();
            let mut wave = Wave::new();
            for (p, g) in got.iter_mut().enumerate() {
                wave.push(p as i64, -1, 3, &im1s[p], &jm1s[p], km1s[p], diags[p], g);
            }
            assert_eq!(wave.len(), m);
            kernel.eval_wave(&mut wave);
            wave.clear(); // release the `out` borrows before reading `got`
            for p in 0..m {
                for (n, (g, w)) in got[p].iter().zip(&want[p]).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name}: wave m={m} pencil {p} cell {n} differs: {g} vs {w}"
                    );
                }
            }
        }
    }

    /// A zipped pass stops at the shortest slice, so a short neighbour
    /// would leave the cells past it unwritten — `push` must refuse it.
    #[test]
    #[should_panic(expected = "wave pencil lengths differ")]
    fn push_rejects_a_short_neighbour() {
        let (im1, jm1) = ([1.0f32; 8], [1.0f32; 7]);
        let mut out = [0.0f32; 8];
        Wave::new().push(0, 0, 0, &im1, &jm1, 1.0, 1.0, &mut out);
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
    }

    /// ULP distance between two finite f32 of the same sign region.
    fn ulp_diff(a: f32, b: f32) -> u32 {
        let (ia, ib) = (a.to_bits() as i32, b.to_bits() as i32);
        ia.abs_diff(ib)
    }

    #[test]
    fn fast_tier_stays_within_ulp_bound() {
        // Non-negative inputs: the fast tier's domain contract.
        for kernel_check in [0usize, 1, 2] {
            let m = 6;
            let len = 65;
            let im1s: Vec<Vec<f32>> = (0..m)
                .map(|p| wave_data(p, 1, len).iter().map(|x| x.abs()).collect())
                .collect();
            let jm1s: Vec<Vec<f32>> = (0..m)
                .map(|p| wave_data(p, 2, len).iter().map(|x| x.abs()).collect())
                .collect();
            let km1s: Vec<f32> = (0..m).map(|p| cell_weight(p as i64, 9, 9) * 4.0).collect();
            let mut want: Vec<Vec<f32>> = vec![vec![0.0; len]; m];
            let mut got: Vec<Vec<f32>> = vec![vec![0.0; len]; m];
            let run = |fast: bool, outs: &mut Vec<Vec<f32>>| {
                let mut wave = Wave::new();
                for (p, g) in outs.iter_mut().enumerate() {
                    wave.push(p as i64, -1, 3, &im1s[p], &jm1s[p], km1s[p], 0.0, g);
                }
                match (kernel_check, fast) {
                    (0, false) => Paper3D.eval_wave(&mut wave),
                    (0, true) => Paper3D.eval_wave_fast(&mut wave),
                    (1, false) => Relax3D::default().eval_wave(&mut wave),
                    (1, true) => Relax3D::default().eval_wave_fast(&mut wave),
                    (2, false) => Fused3D::default().eval_wave(&mut wave),
                    (2, true) => Fused3D::default().eval_wave_fast(&mut wave),
                    _ => unreachable!(),
                }
            };
            run(false, &mut want);
            run(true, &mut got);
            let max_ulp = got
                .iter()
                .flatten()
                .zip(want.iter().flatten())
                .map(|(g, w)| ulp_diff(*g, *w))
                .max()
                .unwrap();
            assert!(
                max_ulp <= 8,
                "kernel {kernel_check}: fast tier drifted {max_ulp} ULP"
            );
        }
    }
}
