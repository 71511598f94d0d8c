//! Property tests pinning the wave-kernel contract: for every 3-D
//! kernel, evaluating a [`Wave`] of independent pencils must be
//! **bitwise** identical to evaluating the same pencils one by one with
//! `eval_pencil` — for every wave width (the narrow-wave pencil
//! fallback, full lane groups of four chains, the partial last group),
//! every pencil length (including the `len % 4` cells past the last
//! whole lane block), ragged waves whose pencils have unequal lengths,
//! and inputs off the recurrence's domain. This is the invariant that lets the
//! tile walk regroup cells into chunked super-diagonal waves without
//! perturbing a single bit of the distributed-vs-sequential
//! verification.
//!
//! The fast tier ([`KernelTier::Fast`]) is *not* bitwise: it may
//! reassociate and drop domain guards. Its property is a ULP bound
//! against the pinned tier on the reachable (non-negative, contractive)
//! domain, plus NaN-freedom.
//!
//! The 2-D kernels read a fourth input, the diagonal `A(i, j−1, k−1)`:
//! a wave pencil gets its first cell's as a seed and reads the rest off
//! `jm1`. Their wave must equal a per-cell `eval` walk of the strip
//! whichever place the walk takes that seed from.

use proptest::prelude::*;
use stencil::kernel::{
    Alignment2D, Example1, Fused3D, Kernel3D, LongestPath3D, Paper3D, Relax3D, Smooth2D, Wave,
    MAX_WAVE,
};

type Pencils = [(Vec<f32>, Vec<f32>, f32)];

/// The diagonal seed of a pencil whose `k−1` seed is `km1`: another
/// value of the same domain, so a kernel that mixes them up shows.
fn diag_seed(km1: f32) -> f32 {
    km1 * 0.5
}

/// Pencil shapes and inputs for one wave: `(im1, jm1, km1)` per entry,
/// every value drawn from `value()`. Lengths are drawn small and
/// independently so ragged waves and lane-block remainders are both
/// routine.
fn pencils_of<S: Strategy<Value = f32>>(
    value: fn() -> S,
    max_m: usize,
    max_len: usize,
) -> impl Strategy<Value = Vec<(Vec<f32>, Vec<f32>, f32)>> {
    let pencil = (0..=max_len).prop_flat_map(move |len| {
        (
            prop::collection::vec(value(), len),
            prop::collection::vec(value(), len),
            value(),
        )
    });
    prop::collection::vec(pencil, 1..=max_m)
}

/// Pencils on the recurrences' reachable (non-negative) domain.
fn pencils(max_m: usize, max_len: usize) -> impl Strategy<Value = Vec<(Vec<f32>, Vec<f32>, f32)>> {
    pencils_of(|| 0.0f32..4.0, max_m, max_len)
}

/// Pencils with the edge cases of `f32` as frequent as reachable values.
fn off_domain_pencils(
    max_m: usize,
    max_len: usize,
) -> impl Strategy<Value = Vec<(Vec<f32>, Vec<f32>, f32)>> {
    let value = || {
        (0usize..10, 0.0f32..4.0).prop_map(|(kind, x)| match kind {
            0 => -x,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => x * 1e-41, // subnormal
            _ => x,
        })
    };
    pencils_of(value, max_m, max_len)
}

/// Evaluate the pencils one by one and as one wave on the bitwise tier
/// and require bit-for-bit equality. Returns the pencil-form outputs.
fn check_bitwise<K: Kernel3D>(k: K, inputs: &Pencils) -> Result<Vec<Vec<f32>>, TestCaseError> {
    // Scalar reference: one eval_pencil call per pencil.
    let mut pinned: Vec<Vec<f32>> = Vec::new();
    for (n, (im1, jm1, km1)) in inputs.iter().enumerate() {
        let mut out = vec![0.0f32; im1.len()];
        k.eval_pencil(
            n as i64 + 1,
            2,
            1,
            im1,
            jm1,
            *km1,
            diag_seed(*km1),
            &mut out,
        );
        pinned.push(out);
    }

    // Wave form (bitwise tier): same pencils, one batched call.
    let mut wave_out: Vec<Vec<f32>> = inputs.iter().map(|(a, _, _)| vec![0.0; a.len()]).collect();
    {
        let mut wave = Wave::new();
        let mut rest: &mut [Vec<f32>] = &mut wave_out;
        for (n, (im1, jm1, km1)) in inputs.iter().enumerate() {
            let (out, r) = rest.split_first_mut().unwrap();
            rest = r;
            wave.push(n as i64 + 1, 2, 1, im1, jm1, *km1, diag_seed(*km1), out);
        }
        k.eval_wave(&mut wave);
    }
    for (n, (got, want)) in wave_out.iter().zip(&pinned).enumerate() {
        for (z, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "pencil {} cell {}: wave {} != pencil {}",
                n,
                z,
                g,
                w
            );
        }
    }
    Ok(pinned)
}

/// [`check_bitwise`], then run the fast tier and bound its drift.
fn check_kernel<K: Kernel3D>(k: K, inputs: &Pencils) -> Result<(), TestCaseError> {
    let pinned = check_bitwise(k, inputs)?;

    // Fast tier: ULP-bounded against pinned on the reachable domain,
    // never NaN. The bound is loose — it catches catastrophic
    // divergence (a dropped guard going NaN, a wrong carry), not
    // rounding; the tier's contract is "close", not "equal".
    let mut fast_out: Vec<Vec<f32>> = inputs.iter().map(|(a, _, _)| vec![0.0; a.len()]).collect();
    {
        let mut wave = Wave::new();
        let mut rest: &mut [Vec<f32>] = &mut fast_out;
        for (n, (im1, jm1, km1)) in inputs.iter().enumerate() {
            let (out, r) = rest.split_first_mut().unwrap();
            rest = r;
            wave.push(n as i64 + 1, 2, 1, im1, jm1, *km1, diag_seed(*km1), out);
        }
        k.eval_wave_fast(&mut wave);
    }
    for (n, (got, want)) in fast_out.iter().zip(&pinned).enumerate() {
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

    /// The paper's √ kernel: two-pass wave vs scalar chain.
    #[test]
    fn paper3d_wave_is_bitwise(inputs in pencils(MAX_WAVE, 40)) {
        check_kernel(Paper3D, &inputs)?;
    }

    /// Damped relaxation with a random (stable) ω.
    #[test]
    fn relax3d_wave_is_bitwise(inputs in pencils(MAX_WAVE, 40), omega in 0.05f32..1.0) {
        check_kernel(Relax3D { omega }, &inputs)?;
    }

    /// FMA smoothing with random contractive weights (2·wa + wc < 1).
    #[test]
    fn fused3d_wave_is_bitwise(inputs in pencils(MAX_WAVE, 40), wa in 0.01f32..0.45, wc in 0.01f32..0.09) {
        check_kernel(Fused3D { wa, wc }, &inputs)?;
    }

    /// Inputs the recurrences never produce — negative, `-0.0`, NaN,
    /// `+∞`, subnormal — must still come out of the wave exactly as
    /// they come out of the pencil loop: Paper3D's `max(·, 0)` clamps
    /// and the NaN/∞ propagation of the others survive the lane
    /// transposition. (One NaN payload and no `-∞`, so every NaN in
    /// flight is that one and its bits cannot depend on operand order.)
    #[test]
    fn off_domain_inputs_stay_bitwise(inputs in off_domain_pencils(MAX_WAVE, 40), omega in 0.05f32..1.0) {
        check_bitwise(Paper3D, &inputs)?;
        check_bitwise(Relax3D { omega }, &inputs)?;
        check_bitwise(Fused3D::default(), &inputs)?;
        check_bitwise(LongestPath3D, &inputs)?;
    }

    /// A kernel with *no* wave override exercises the default
    /// pencil-by-pencil path (bitwise by construction — the test pins
    /// that the default stays that way).
    #[test]
    fn longest_path_wave_is_bitwise(inputs in pencils(MAX_WAVE, 24)) {
        check_kernel(LongestPath3D, &inputs)?;
    }

    /// A diagonal kernel's wave equals its per-cell `eval` walk of a
    /// strip for pencils seeded as the block executor seeds them: the
    /// diagonal of a pencil's first cell comes from the neighbour
    /// column's lower chunk (a chunk start), its previous tile (a tile
    /// start), the halo column, or at `k = 0` the boundary.
    #[test]
    fn diagonal_wave_matches_per_cell_eval(
        (by, nz, v, chunk) in (1usize..=4, 1usize..=40, 1usize..=12)
            .prop_flat_map(|(by, nz, v)| (Just(by), Just(nz), Just(v), 1..=v)),
        halo in prop::collection::vec(0.0f32..4.0, 40),
        b in 0.0f32..4.0,
        alphabet in 1u32..=4,
    ) {
        let halo = &halo[..nz];
        check_diagonal(Example1, by, halo, (v, chunk), b)?;
        check_diagonal(Alignment2D { alphabet }, by, halo, (v, chunk), b)?;
        check_diagonal(Smooth2D::default(), by, halo, (v, chunk), b)?;
    }
}

/// [`diagonal_wave_matches_per_cell_eval`] for one kernel over `by`
/// strip columns behind `halo`: column `j` is the block's global column
/// `j + 1`, the halo column `0`; `(v, chunk)` cut the pencils into
/// tiles and those into chunks.
fn check_diagonal<K: Kernel3D>(
    k: K,
    by: usize,
    halo: &[f32],
    (v, chunk): (usize, usize),
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
    // Every (column, chunk) pencil with its inputs read off `a`, so any
    // MAX_WAVE of them are independent.
    let west = |j: usize| if j == 0 { halo } else { &a[j - 1][..] };
    let tiles = |j| (0..nz).step_by(v).map(move |t| (j, t, (t + v).min(nz)));
    let chunks = |(j, t, end): (usize, usize, usize)| {
        (t..end)
            .step_by(chunk)
            .map(move |s| (j, s, (s + chunk).min(end)))
    };
    let pencils: Vec<_> = (0..by).flat_map(tiles).flat_map(chunks).collect();
    let splat = vec![b; nz];
    let mut outs: Vec<Vec<f32>> = pencils.iter().map(|&(_, s, e)| vec![0.0; e - s]).collect();
    for (ps, os) in pencils.chunks(MAX_WAVE).zip(outs.chunks_mut(MAX_WAVE)) {
        let mut wave = Wave::new();
        for (&(j, s, e), out) in ps.iter().zip(os) {
            let (km1, diag) = match s {
                0 => (b, b),
                _ => (a[j][s - 1], west(j)[s - 1]),
            };
            let (im1, jm1) = (&splat[s..e], &west(j)[s..e]);
            wave.push(0, j as i64 + 1, s as i64, im1, jm1, km1, diag, out);
        }
        k.eval_wave(&mut wave);
    }
    for (&(j, s, e), got) in pencils.iter().zip(&outs) {
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
    Ok(())
}

/// Exhaustive sweep of the length × width corner cases the proptests
/// sample: every pencil length 0..=33 (all `% 4` remainders, the empty
/// pencil, and a several-block span) at every wave width 1..=MAX_WAVE,
/// with ragged tails (pencil `n` is `n` cells shorter) so the carry
/// pass exercises the cells past each group's shortest pencil.
#[test]
fn wave_matches_pencil_for_every_length_and_width() {
    for len in 0..=33usize {
        for m in 1..=MAX_WAVE {
            let inputs: Vec<(Vec<f32>, Vec<f32>, f32)> = (0..m)
                .map(|n| {
                    let l = len.saturating_sub(n);
                    let im1: Vec<f32> = (0..l)
                        .map(|z| 0.25 + ((n * 7 + z) % 13) as f32 * 0.3)
                        .collect();
                    let jm1: Vec<f32> = (0..l)
                        .map(|z| 0.5 + ((n * 5 + z) % 11) as f32 * 0.2)
                        .collect();
                    (im1, jm1, 1.0 + n as f32 * 0.1)
                })
                .collect();
            check_kernel(Paper3D, &inputs).unwrap();
            check_kernel(Relax3D::default(), &inputs).unwrap();
            check_kernel(Fused3D::default(), &inputs).unwrap();
        }
    }
}

/// The shape the tile walk produces: long pencils of one length (64–100
/// cells, every `len % 4`) and one short straggler, at every wave width
/// — so whole lane blocks of full groups, the partial last group, the
/// remainder cells and a ragged tail all run in the same wave.
#[test]
fn long_waves_with_a_straggler_match_pencil() {
    for len in 64..=100usize {
        for m in 1..=MAX_WAVE {
            let inputs: Vec<(Vec<f32>, Vec<f32>, f32)> = (0..m)
                .map(|n| {
                    // The straggler takes each lane of each group in turn.
                    let l = if n == len % m { len / 3 } else { len };
                    let im1: Vec<f32> = (0..l)
                        .map(|z| 0.25 + ((n * 7 + z) % 13) as f32 * 0.3)
                        .collect();
                    let jm1: Vec<f32> = (0..l)
                        .map(|z| 0.5 + ((n * 5 + z) % 11) as f32 * 0.2)
                        .collect();
                    (im1, jm1, 1.0 + n as f32 * 0.1)
                })
                .collect();
            check_kernel(Paper3D, &inputs).unwrap();
            check_kernel(Relax3D::default(), &inputs).unwrap();
            check_kernel(Fused3D::default(), &inputs).unwrap();
        }
    }
}
