//! Property tests pinning the row-chunked `halo::pack_rows`/
//! `unpack_rows` to element-wise face gather/scatter oracles, bitwise,
//! on random shapes including partial last tiles (`v` not dividing
//! `nz`).

use proptest::prelude::*;
use stencil::dist3d::Decomp3D;
use stencil::halo::{pack_rows, unpack_rows};

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

// ---- element-wise oracles ----------------------------------------------

/// Element-wise extraction of the outgoing `i`-face (i = bx−1) of step
/// `k` from a `bx × by × nz` block (k fastest).
fn face_i_elementwise(block: &[f32], d: &Decomp3D, k: usize) -> Vec<f32> {
    let (k0, k1) = krange(d, k);
    let (bx, by) = (d.bx(), d.by());
    let i = bx - 1;
    let mut out = Vec::with_capacity(by * (k1 - k0));
    for j in 0..by {
        for kz in k0..k1 {
            out.push(block[(i * by + j) * d.nz + kz]);
        }
    }
    out
}

/// Element-wise extraction of the outgoing `j`-face (j = by−1).
fn face_j_elementwise(block: &[f32], d: &Decomp3D, k: usize) -> Vec<f32> {
    let (k0, k1) = krange(d, k);
    let (bx, by) = (d.bx(), d.by());
    let j = by - 1;
    let mut out = Vec::with_capacity(bx * (k1 - k0));
    for i in 0..bx {
        for kz in k0..k1 {
            out.push(block[(i * by + j) * d.nz + kz]);
        }
    }
    out
}

/// Element-wise install of a received face of `rows` rows into a
/// `rows × nz` halo plane (`by` rows for the `i`-halo, `bx` for `j`).
fn store_halo_elementwise(halo: &mut [f32], rows: usize, d: &Decomp3D, k: usize, data: &[f32]) {
    let (k0, k1) = krange(d, k);
    assert_eq!(data.len(), rows * (k1 - k0), "face size mismatch");
    let nz = d.nz;
    let cells = (0..rows).flat_map(|r| (k0..k1).map(move |kz| r * nz + kz));
    for (idx, &v) in cells.zip(data) {
        halo[idx] = v;
    }
}

/// Element-wise extraction of the last column (j = by−1) of rows
/// `k·v ..` of an `nx × by` row-major strip.
fn column_elementwise(strip: &[f32], (nx, by, v): (usize, usize, usize), k: usize) -> Vec<f32> {
    let (i0, i1) = (k * v, ((k + 1) * v).min(nx));
    (i0..i1).map(|i| strip[i * by + (by - 1)]).collect()
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

            let oracle = face_i_elementwise(&block, &d, k);
            let mut packed = vec![0.0; by * len];
            pack_rows(&block, (bx - 1) * by * nz, nz, k0, len, &mut packed);
            prop_assert_eq!(&packed, &oracle, "i-face, step {}", k);

            let oracle = face_j_elementwise(&block, &d, k);
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
            store_halo_elementwise(&mut oracle, by, &d, k, &data);
            unpack_rows(&data, &mut chunked, 0, nz, k0, len);
            prop_assert_eq!(&chunked, &oracle, "i-halo, step {}", k);

            let data = fill(bx * len, salt ^ (k as u64) << 8);
            let mut oracle = fill(bx * nz, salt.wrapping_add(2));
            let mut chunked = oracle.clone();
            store_halo_elementwise(&mut oracle, bx, &d, k, &data);
            unpack_rows(&data, &mut chunked, 0, nz, k0, len);
            prop_assert_eq!(&chunked, &oracle, "j-halo, step {}", k);
        }
    }

    #[test]
    fn face_column_pack_matches_elementwise(
        (nx, by, v) in (1usize..30, 1usize..6, 1usize..8),
        salt in 0u64..10_000,
    ) {
        // A column of a row-major strip is a strided run: rows of
        // length 1, stride `by`.
        let strip = fill(nx * by, salt);
        for k in 0..nx.div_ceil(v) {
            let (i0, i1) = (k * v, ((k + 1) * v).min(nx));
            let oracle = column_elementwise(&strip, (nx, by, v), k);
            let mut packed = vec![0.0; i1 - i0];
            pack_rows(&strip, i0 * by + (by - 1), by, 0, 1, &mut packed);
            prop_assert_eq!(&packed, &oracle, "2-D face, step {}", k);
        }
    }
}
