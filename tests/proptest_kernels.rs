//! Property tests pinning the sweep's kernel contract. For every
//! kernel, a cell stepped from its predecessors' lifted values,
//! `step(lift(im1), lift(jm1), lift(diag), lift(km1))`, must be
//! **bitwise** equal to `eval` on the raw values — in the recurrence's
//! domain and off it (negative values, ±0, NaN, ±∞, subnormals; only
//! where `+∞` and `−∞` can meet in one sum does a NaN match any NaN,
//! since which of two payloads a sum propagates is the code generator's
//! choice). And
//! stepping up to [`LANES`] independent pencils together — a *wave*, one
//! [`LaneBlock`] of each after another on lifted inputs, as the tile
//! sweep runs a group's lanes through its rounds — must equal that
//! scalar walk: for every wave width 1..=`LANES` (the lanes past the
//! last pencil run on padding), every pencil length (including the
//! `len % LANES` cells of the last, partial block), and ragged waves
//! whose pencils have unequal lengths (a lane that ends early runs on
//! padding while the others go on). This is the invariant that lets the
//! tile sweep lift each cell once and regroup cells into lane groups
//! without perturbing a single bit of the distributed-vs-sequential
//! verification.
//!
//! The fast tier ([`KernelTier::Fast`]) is *not* bitwise: it may
//! reassociate and drop domain guards. Its property is a ULP bound
//! against the pinned tier on the reachable (non-negative, contractive)
//! domain, plus NaN-freedom.
//!
//! The 2-D kernels read a fourth input, the diagonal `A(i, j−1, k−1)`:
//! a lane gets its first cell's as a seed and the rest off `jm1`. Their
//! waves must equal a per-cell `eval` walk of the strip wherever the
//! sweep takes that seed from.

use proptest::prelude::*;
use stencil::kernel::{
    Alignment2D, Example1, Fused3D, Kernel3D, KernelTier, LaneBlock, LongestPath3D, Paper3D,
    Relax3D, Smooth2D, LANES,
};

/// One pencil of a wave: `(im1, jm1, km1)`.
type Pencil = (Vec<f32>, Vec<f32>, f32);

/// The diagonal seed of a pencil whose `k−1` seed is `km1`: another
/// value of the same domain, so a kernel that mixes them up shows.
fn diag_seed(km1: f32) -> f32 {
    km1 * 0.5
}

/// Pencil `n` of a wave starts at cell `(n + 1, 2, 1)`.
fn origin(n: usize) -> (i64, i64, i64) {
    (n as i64 + 1, 2, 1)
}

/// The reference: walk one pencil with `eval`, the `k−1` value carried
/// and the diagonal read off `jm1` after the seeded first cell.
fn eval_walk<K: Kernel3D>(k: &K, (i, j, k0): (i64, i64, i64), p: &Pencil, diag: f32) -> Vec<f32> {
    let (im1, jm1, km1) = p;
    let (mut prev, mut d) = (*km1, diag);
    let cells = im1.iter().zip(jm1).zip(k0..);
    let eval = |((&a, &c), kz): ((&f32, &f32), i64)| {
        let v = k.eval(i, j, kz, a, c, prev, d);
        (prev, d) = (v, c);
        v
    };
    cells.map(eval).collect()
}

/// The contract cell by cell: walk one pencil with `step`, every input
/// lifted where it is read — the raw `k−1` value carried, each cell
/// lifted afresh by each reader.
fn lifted_walk<K: Kernel3D>(k: &K, (i, j, k0): (i64, i64, i64), p: &Pencil, diag: f32) -> Vec<f32> {
    let (im1, jm1, km1) = p;
    let (mut prev, mut d) = (*km1, diag);
    let cells = im1.iter().zip(jm1).zip(k0..);
    let step = |((&a, &c), kz): ((&f32, &f32), i64)| {
        let v = k.step(i, j, kz, k.lift(a), k.lift(c), k.lift(d), k.lift(prev));
        (prev, d) = (v, c);
        v
    };
    cells.map(step).collect()
}

/// Step up to [`LANES`] pencils together, block by block through
/// [`LaneBlock::run`] on `tier`, every input lifted once before it
/// enters a block and the `k−1` value carried lifted, as the sweep
/// does: pencil `n` in lane `n`, seeded with `diags[n]`. Lanes past the
/// last pencil, and cells past a pencil's end, run on padding and are
/// not read.
fn wave<K: Kernel3D>(k: &K, tier: KernelTier, ps: &[Pencil], diags: &[f32]) -> Vec<Vec<f32>> {
    assert!(ps.len() <= LANES);
    let fast = tier == KernelTier::Fast;
    let lift = |x: f32| if fast { k.lift_fast(x) } else { k.lift(x) };
    let mut blk = LaneBlock::default();
    for (l, p) in ps.iter().enumerate() {
        (blk.km1[l], blk.diag[l]) = (lift(p.2), lift(diags[l]));
    }
    let mut outs: Vec<Vec<f32>> = ps.iter().map(|p| vec![0.0; p.0.len()]).collect();
    let longest = outs.iter().map(Vec::len).max().unwrap_or(0);
    let at = |x: &[f32], z: usize| lift(x.get(z).copied().unwrap_or(0.25));
    for z0 in (0..longest).step_by(LANES) {
        for (l, (im1, jm1, _)) in ps.iter().enumerate() {
            let (i, j, k0) = origin(l);
            (blk.i[l], blk.j[l], blk.k[l]) = (i, j, k0 + z0 as i64);
            if z0 > 0 {
                blk.diag[l] = at(jm1, z0 - 1);
            }
            for z in 0..LANES {
                (blk.im1[z][l], blk.jm1[z][l]) = (at(im1, z0 + z), at(jm1, z0 + z));
            }
        }
        let (out, up) = match fast {
            true => blk.run(lift, |i, j, kz, a, c, d, s| {
                k.step_fast(i, j, kz, a, c, d, s)
            }),
            false => blk.run(lift, |i, j, kz, a, c, d, s| k.step(i, j, kz, a, c, d, s)),
        };
        blk.km1 = up[LANES - 1];
        for (l, o) in outs.iter_mut().enumerate() {
            for (z, o) in o.iter_mut().skip(z0).take(LANES).enumerate() {
                *o = out[z][l];
            }
        }
    }
    outs
}

/// Pencil shapes and inputs for one wave, every value drawn from
/// `value()`. Lengths are drawn small and independently so ragged waves
/// and lane-block remainders are both routine.
fn pencils_of<S: Strategy<Value = f32>>(
    value: fn() -> S,
    max_len: usize,
) -> impl Strategy<Value = Vec<Pencil>> {
    let pencil = (0..=max_len).prop_flat_map(move |len| {
        (
            prop::collection::vec(value(), len),
            prop::collection::vec(value(), len),
            value(),
        )
    });
    prop::collection::vec(pencil, 1..=LANES)
}

/// Pencils on the recurrences' reachable (non-negative) domain.
fn pencils(max_len: usize) -> impl Strategy<Value = Vec<Pencil>> {
    pencils_of(|| 0.0f32..4.0, max_len)
}

/// An `f32` whose edge cases are as frequent as reachable values: one
/// NaN payload and, unless `neg_inf`, no `−∞`, so no sum meets `+∞` and
/// `−∞` and every NaN in flight is that one: its bits cannot depend on
/// operand order.
fn off_domain(neg_inf: bool) -> impl Strategy<Value = f32> {
    (0usize..11, 0.0f32..4.0).prop_map(move |(kind, x)| match kind {
        0 => -x,
        1 => -0.0,
        2 => 0.0,
        3 => f32::NAN,
        4 => f32::INFINITY,
        5 => x * 1e-41, // subnormal
        6 if neg_inf => f32::NEG_INFINITY,
        _ => x,
    })
}

/// Pencils off the domain, `−∞` left out.
fn off_domain_pencils(max_len: usize) -> impl Strategy<Value = Vec<Pencil>> {
    pencils_of(|| off_domain(false), max_len)
}

/// Pencils off the domain, `−∞` included.
fn opposite_infinity_pencils(max_len: usize) -> impl Strategy<Value = Vec<Pencil>> {
    pencils_of(|| off_domain(true), max_len)
}

/// Walk the pencils with `eval`, then require bit-for-bit equality of
/// the lifted walk (the contract, cell by cell) and of the pencils
/// stepped as one wave on the bitwise tier. Returns the `eval` walk.
fn check_bitwise<K: Kernel3D>(k: K, inputs: &[Pencil]) -> Result<Vec<Vec<f32>>, TestCaseError> {
    let diags: Vec<f32> = inputs.iter().map(|p| diag_seed(p.2)).collect();
    let pencils = || inputs.iter().zip(&diags).enumerate();
    let pinned: Vec<Vec<f32>> = pencils()
        .map(|(n, (p, &d))| eval_walk(&k, origin(n), p, d))
        .collect();
    let lifted = pencils().map(|(n, (p, &d))| lifted_walk(&k, origin(n), p, d));
    let lifted: Vec<Vec<f32>> = lifted.collect();
    let waved = wave(&k, KernelTier::Bitwise, inputs, &diags);
    // One licence, for a pencil that reads `−∞`: a NaN matches a NaN.
    // There a sum can meet `+∞` and `−∞`, and which of two NaN payloads
    // it propagates (a drawn NaN, or the default NaN of `∞ − ∞`) is the
    // code generator's choice, because `fadd` commutes. Every other
    // result, ±0 and ±∞ included, must match bit for bit.
    let neg_inf = |(a, c, z): &Pencil| [&a[..], c, &[*z]].concat().contains(&f32::NEG_INFINITY);
    for (what, got) in [("lifted step", lifted), ("wave", waved)] {
        for (n, (got, want)) in got.iter().zip(&pinned).enumerate() {
            let licence = neg_inf(&inputs[n]);
            for (z, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits() || (licence && g.is_nan() && w.is_nan()),
                    "pencil {} cell {}: {} {} != eval {}",
                    n,
                    z,
                    what,
                    g,
                    w
                );
            }
        }
    }
    Ok(pinned)
}

/// [`check_bitwise`], then run the fast tier and bound its drift.
fn check_kernel<K: Kernel3D>(k: K, inputs: &[Pencil]) -> Result<(), TestCaseError> {
    let pinned = check_bitwise(k, inputs)?;
    // Fast tier: ULP-bounded against pinned on the reachable domain,
    // never NaN. The bound is loose — it catches catastrophic
    // divergence (a dropped guard going NaN, a wrong carry), not
    // rounding; the tier's contract is "close", not "equal".
    let diags: Vec<f32> = inputs.iter().map(|p| diag_seed(p.2)).collect();
    let fast = wave(&k, KernelTier::Fast, inputs, &diags);
    for (n, (got, want)) in fast.iter().zip(&pinned).enumerate() {
        for (z, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.is_finite(),
                "pencil {} cell {}: fast tier produced {}",
                n,
                z,
                g
            );
            let ulps = (g.to_bits() as i64 - w.to_bits() as i64).unsigned_abs();
            prop_assert!(
                ulps <= 1024 || (g - w).abs() <= 1e-5,
                "pencil {} cell {}: fast {} vs pinned {} ({} ulps)",
                n,
                z,
                g,
                w,
                ulps
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's √ kernel: its carried `√A(i,j,k−1)` vs the scalar chain.
    #[test]
    fn paper3d_wave_is_bitwise(inputs in pencils(40)) {
        check_kernel(Paper3D, &inputs)?;
    }

    /// Damped relaxation with a random (stable) ω.
    #[test]
    fn relax3d_wave_is_bitwise(inputs in pencils(40), omega in 0.05f32..1.0) {
        check_kernel(Relax3D { omega }, &inputs)?;
    }

    /// FMA smoothing with random contractive weights (2·wa + wc < 1).
    #[test]
    fn fused3d_wave_is_bitwise(inputs in pencils(40), wa in 0.01f32..0.45, wc in 0.01f32..0.09) {
        check_kernel(Fused3D { wa, wc }, &inputs)?;
    }

    /// Inputs the recurrences never produce — negative, ±0, NaN, ±∞,
    /// subnormal — must still come out of the lifted step and the wave
    /// exactly as they come out of the `eval` walk, for every kernel:
    /// Paper3D's `max(·, 0)` clamps in its lift, and the NaN/∞
    /// propagation of the others survives the lanes. `inputs` draws no
    /// `−∞`, so every bit is held; a pencil of `with_neg_inf` that
    /// reads `−∞` may make another NaN.
    #[test]
    fn off_domain_inputs_stay_bitwise(
        inputs in off_domain_pencils(40),
        with_neg_inf in opposite_infinity_pencils(40),
        omega in 0.05f32..1.0,
    ) {
        for inputs in [&inputs, &with_neg_inf] {
            check_bitwise(Paper3D, inputs)?;
            check_bitwise(Relax3D { omega }, inputs)?;
            check_bitwise(Fused3D::default(), inputs)?;
            check_bitwise(LongestPath3D, inputs)?;
            check_bitwise(Example1, inputs)?;
            check_bitwise(Alignment2D { alphabet: 2 }, inputs)?;
            check_bitwise(Smooth2D { omega }, inputs)?;
        }
    }

    /// A kernel with *no* step override runs the defaults built from
    /// `eval`, and reads its cell coordinates: each lane must see its
    /// own `(i, j, k)`.
    #[test]
    fn longest_path_wave_is_bitwise(inputs in pencils(24)) {
        check_kernel(LongestPath3D, &inputs)?;
    }

    /// A diagonal kernel's waves equal its per-cell `eval` walk of a
    /// strip for lanes seeded as the block executor seeds them: the
    /// diagonal of a lane's first cell in a tile comes from the
    /// neighbour column's previous tile, the halo column, or at `k = 0`
    /// the boundary.
    #[test]
    fn diagonal_wave_matches_per_cell_eval(
        (by, nz, v) in (1usize..=6, 1usize..=40, 1usize..=12),
        halo in prop::collection::vec(0.0f32..4.0, 40),
        b in 0.0f32..4.0,
        alphabet in 1u32..=4,
    ) {
        let halo = &halo[..nz];
        check_diagonal(Example1, by, halo, v, b)?;
        check_diagonal(Alignment2D { alphabet }, by, halo, v, b)?;
        check_diagonal(Smooth2D::default(), by, halo, v, b)?;
    }
}

/// [`diagonal_wave_matches_per_cell_eval`] for one kernel over `by`
/// strip columns behind `halo`: column `j` is the block's global column
/// `j + 1`, the halo column `0`; `v` cuts the pencils into tiles, whose
/// columns go to the kernel `LANES` at a time.
fn check_diagonal<K: Kernel3D>(
    k: K,
    by: usize,
    halo: &[f32],
    v: usize,
    b: f32,
) -> Result<(), TestCaseError> {
    let nz = halo.len();
    let mut a = vec![vec![0.0f32; nz]; by];
    for j in 0..by {
        for z in 0..nz {
            let west = |z: usize| if j == 0 { halo[z] } else { a[j - 1][z] };
            let (km1, diag) = match z {
                0 => (b, b),
                _ => (a[j][z - 1], west(z - 1)),
            };
            a[j][z] = k.eval(0, j as i64 + 1, z as i64, b, west(z), km1, diag);
        }
    }
    let west = |j: usize| if j == 0 { halo } else { &a[j - 1][..] };
    for s in (0..nz).step_by(v) {
        let e = (s + v).min(nz);
        for cols in (0..by).collect::<Vec<_>>().chunks(LANES) {
            let mut outs = vec![vec![0.0f32; e - s]; cols.len()];
            let mut lanes = LaneBlock::default();
            for (l, &j) in cols.iter().enumerate() {
                let (km1, diag) = match s {
                    0 => (b, b),
                    _ => (a[j][s - 1], west(j)[s - 1]),
                };
                (lanes.km1[l], lanes.diag[l]) = (k.lift(km1), k.lift(diag));
            }
            for z0 in (s..e).step_by(LANES) {
                for (l, &j) in cols.iter().enumerate() {
                    (lanes.i[l], lanes.j[l], lanes.k[l]) = (0, j as i64 + 1, z0 as i64);
                    if z0 > s {
                        lanes.diag[l] = k.lift(west(j)[z0 - 1]);
                    }
                    for z in 0..LANES {
                        let at = (z0 + z).min(e - 1);
                        (lanes.im1[z][l], lanes.jm1[z][l]) = (k.lift(b), k.lift(west(j)[at]));
                    }
                }
                let step = |i, j, kz, a, c, d, s| k.step(i, j, kz, a, c, d, s);
                let (out, up) = lanes.run(|x| k.lift(x), step);
                lanes.km1 = up[LANES - 1];
                for (l, o) in outs.iter_mut().enumerate() {
                    for (z, o) in o.iter_mut().skip(z0 - s).take(LANES).enumerate() {
                        *o = out[z][l];
                    }
                }
            }
            for (&j, got) in cols.iter().zip(&outs) {
                let want = &a[j][s..e];
                let same = got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                prop_assert!(
                    same,
                    "column {} cells {}..{}: {:?} vs {:?}",
                    j,
                    s,
                    e,
                    got,
                    want
                );
            }
        }
    }
    Ok(())
}

/// Inputs of `m` pencils, pencil `n` `len(n)` cells long.
fn ragged(m: usize, len: impl Fn(usize) -> usize) -> Vec<Pencil> {
    (0..m)
        .map(|n| {
            let l = len(n);
            let im1 = (0..l)
                .map(|z| 0.25 + ((n * 7 + z) % 13) as f32 * 0.3)
                .collect();
            let jm1 = (0..l)
                .map(|z| 0.5 + ((n * 5 + z) % 11) as f32 * 0.2)
                .collect();
            (im1, jm1, 1.0 + n as f32 * 0.1)
        })
        .collect()
}

/// Exhaustive sweep of the length × width corner cases the proptests
/// sample: every pencil length 0..=33 (all `% LANES` remainders, the
/// empty pencil, and a several-block span) at every wave width
/// 1..=LANES, with ragged tails (pencil `n` is `n` cells shorter), so
/// lanes run on padding past their pencil's end while others go on.
#[test]
fn wave_matches_pencil_for_every_length_and_width() {
    for len in 0..=33usize {
        for m in 1..=LANES {
            let inputs = ragged(m, |n| len.saturating_sub(n));
            check_kernel(Paper3D, &inputs).unwrap();
            check_kernel(Relax3D::default(), &inputs).unwrap();
            check_kernel(Fused3D::default(), &inputs).unwrap();
        }
    }
}

/// Long pencils of one length (64–100 cells, every `len % LANES`) and
/// one short straggler, at every wave width — whole blocks, the partial
/// last block and a lane that stops early all run in the same wave.
#[test]
fn long_waves_with_a_straggler_match_pencil() {
    for len in 64..=100usize {
        for m in 1..=LANES {
            // The straggler takes each lane in turn.
            let inputs = ragged(m, |n| if n == len % m { len / 3 } else { len });
            check_kernel(Paper3D, &inputs).unwrap();
            check_kernel(Relax3D::default(), &inputs).unwrap();
            check_kernel(Fused3D::default(), &inputs).unwrap();
        }
    }
}
