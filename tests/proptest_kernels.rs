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

use proptest::prelude::*;
use stencil::kernel::{Fused3D, Kernel3D, LongestPath3D, Paper3D, Relax3D, Wave, MAX_WAVE};

type Pencils = [(Vec<f32>, Vec<f32>, f32)];

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
        k.eval_pencil(n as i64 + 1, 2, 1, im1, jm1, *km1, &mut out);
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
            wave.push(n as i64 + 1, 2, 1, im1, jm1, *km1, out);
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
            wave.push(n as i64 + 1, 2, 1, im1, jm1, *km1, out);
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
