//! Property tests pinning the optimized hot paths to the preserved
//! element-wise baseline in `stencil::legacy`, bitwise.
//!
//! Two layers:
//!
//! * the row-chunked `halo::pack_rows`/`unpack_rows` against the
//!   element-wise face gather/scatter, on random shapes including
//!   partial last tiles (`v` not dividing `nz`);
//! * the full optimized executors against the legacy executors, both
//!   modes, 2-D and 3-D.

use msgpass::thread_backend::{LatencyModel, WorldConfig};
use proptest::prelude::*;
use stencil::dist2d::Decomp2D;
use stencil::dist3d::{Decomp3D, ExecMode};
use stencil::halo::{pack_rows, unpack_rows};
use stencil::kernel::{Example1, Paper3D};
use stencil::legacy;

/// Deterministic pseudo-random fill (the copies under test are
/// value-agnostic; we only need distinct recognizable values).
fn fill(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|t| {
            let x = (t as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0x2545_F491_4F6C_DD1D));
            ((x >> 40) as f32) * 2.0_f32.powi(-10)
        })
        .collect()
}

fn krange(d: &Decomp3D, k: usize) -> (usize, usize) {
    (k * d.v, ((k + 1) * d.v).min(d.nz))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chunked_face_pack_matches_elementwise(
        (bx, by, nz, v) in (1usize..5, 1usize..5, 1usize..25, 1usize..8),
        salt in 0u64..10_000,
    ) {
        let d = Decomp3D { nx: bx, ny: by, nz, pi: 1, pj: 1, v, boundary: 0.0 };
        let block = fill(bx * by * nz, salt);
        for k in 0..nz.div_ceil(v) {
            let (k0, k1) = krange(&d, k);
            let len = k1 - k0;

            let oracle = legacy::face_i_elementwise(&block, &d, k);
            let mut packed = vec![0.0; by * len];
            pack_rows(&block, (bx - 1) * by * nz, nz, k0, len, &mut packed);
            prop_assert_eq!(&packed, &oracle, "i-face, step {}", k);

            let oracle = legacy::face_j_elementwise(&block, &d, k);
            let mut packed = vec![0.0; bx * len];
            pack_rows(&block, (by - 1) * nz, by * nz, k0, len, &mut packed);
            prop_assert_eq!(&packed, &oracle, "j-face, step {}", k);
        }
    }

    #[test]
    fn chunked_halo_unpack_matches_elementwise(
        (bx, by, nz, v) in (1usize..5, 1usize..5, 1usize..25, 1usize..8),
        salt in 0u64..10_000,
    ) {
        let d = Decomp3D { nx: bx, ny: by, nz, pi: 1, pj: 1, v, boundary: 0.0 };
        for k in 0..nz.div_ceil(v) {
            let (k0, k1) = krange(&d, k);
            let len = k1 - k0;

            let data = fill(by * len, salt ^ k as u64);
            let mut oracle = fill(by * nz, salt.wrapping_add(1));
            let mut chunked = oracle.clone();
            legacy::store_halo_i_elementwise(&mut oracle, &d, k, &data);
            unpack_rows(&data, &mut chunked, 0, nz, k0, len);
            prop_assert_eq!(&chunked, &oracle, "i-halo, step {}", k);

            let data = fill(bx * len, salt ^ (k as u64) << 8);
            let mut oracle = fill(bx * nz, salt.wrapping_add(2));
            let mut chunked = oracle.clone();
            legacy::store_halo_j_elementwise(&mut oracle, &d, k, &data);
            unpack_rows(&data, &mut chunked, 0, nz, k0, len);
            prop_assert_eq!(&chunked, &oracle, "j-halo, step {}", k);
        }
    }

    #[test]
    fn face_column_pack_matches_elementwise(
        (nx, by, v) in (1usize..30, 1usize..6, 1usize..8),
        salt in 0u64..10_000,
    ) {
        // The 2-D outgoing face is a strided column; the executor packs
        // it row-by-row (stride `by`, rows of length 1).
        let d = Decomp2D { nx, ny: by, ranks: 1, v, boundary: 0.0 };
        let strip = fill(nx * by, salt);
        for k in 0..nx.div_ceil(v) {
            let (i0, i1) = (k * v, ((k + 1) * v).min(nx));
            let oracle = legacy::face_2d_elementwise(&strip, &d, k);
            let mut packed = vec![0.0; i1 - i0];
            pack_rows(&strip, i0 * by + (by - 1), by, 0, 1, &mut packed);
            prop_assert_eq!(&packed, &oracle, "2-D face, step {}", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimized_3d_executor_matches_legacy_bitwise(
        (pi, pj, mi, mj) in (1usize..3, 1usize..3, 1usize..3, 1usize..3),
        (nz, v) in (1usize..16, 1usize..6),
        blocking in any::<bool>(),
    ) {
        let d = Decomp3D {
            nx: pi * mi,
            ny: pj * mj,
            nz,
            pi,
            pj,
            v, // independent of nz: partial last tiles are common here
            boundary: 1.25,
        };
        let mode = if blocking { ExecMode::Blocking } else { ExecMode::Overlapping };
        let (new, _, _) = stencil::dist3d::run_dist3d_with(Paper3D, d, &WorldConfig::new(LatencyModel::zero()), mode)
            .expect("valid decomp");
        let (old, _) =
            legacy::run_dist3d(Paper3D, d, LatencyModel::zero(), mode).expect("valid decomposition");
        prop_assert_eq!(new.max_abs_diff(&old), 0.0, "{:?} {:?}", mode, d);
    }

    #[test]
    fn optimized_2d_executor_matches_legacy_bitwise(
        (ranks, width, nx, v) in (1usize..4, 1usize..4, 1usize..30, 1usize..7),
        blocking in any::<bool>(),
    ) {
        let d = Decomp2D {
            nx,
            ny: ranks * width,
            ranks,
            v,
            boundary: 0.75,
        };
        let mode = if blocking { ExecMode::Blocking } else { ExecMode::Overlapping };
        let (new, _, _) = stencil::dist2d::run_dist2d_with(Example1, d, &WorldConfig::new(LatencyModel::zero()), mode)
            .expect("valid decomp");
        let (old, _) =
            legacy::run_dist2d(Example1, d, LatencyModel::zero(), mode).expect("valid decomposition");
        prop_assert_eq!(new.max_abs_diff(&old), 0.0, "{:?} {:?}", mode, d);
    }
}
