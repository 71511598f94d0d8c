//! Row-chunked halo face packing and unpacking.
//!
//! A row-major block keeps the pipelined dimension fastest, so every row
//! of an outgoing face is contiguous in memory: packing a face is a
//! strided sequence of `copy_from_slice` row copies instead of a
//! per-element gather, and unpacking into a halo plane is the
//! mirror-image scatter. The generic parameters:
//!
//! * `base` — offset of row 0's start within the source/destination,
//! * `stride` — distance between consecutive row starts,
//! * `k0`/`len` — the tile's window within each row.
//!
//! For the 3-D `bx × by × nz` block (k fastest), the `i = bx−1` face has
//! `base = (bx−1)·by·nz, stride = nz` (rows indexed by `j`) and the
//! `j = by−1` face has `base = (by−1)·nz, stride = by·nz` (rows indexed
//! by `i`). Halo planes unpack with `base = 0, stride = nz`. The 3-D
//! executor unpacks through [`unpack_rows`] into its one-window halo
//! rows; it packs by gathering one lane of its edge groups (its block
//! is stored in the sweep's layout, see [`crate::dist3d`]), while
//! [`pack_rows`] is the flat-block form the benchmark's probe measures.
//!
//! `tests/halo_chunking.rs` asserts bitwise equality with element-wise
//! gather/scatter oracles on random shapes, including partial last
//! tiles.

/// Pack face rows into a flat buffer: for each row `r`,
/// `out[r·len .. (r+1)·len] = src[base + r·stride + k0 ..][.. len]`.
/// The row count is implied by `out.len() / len`.
pub fn pack_rows(src: &[f32], base: usize, stride: usize, k0: usize, len: usize, out: &mut [f32]) {
    assert!(len > 0, "face rows must be non-empty");
    assert!(
        out.len().is_multiple_of(len),
        "packed buffer length {} not a multiple of row length {len}",
        out.len()
    );
    for (r, chunk) in out.chunks_exact_mut(len).enumerate() {
        chunk.copy_from_slice(&src[base + r * stride + k0..][..len]);
    }
}

/// Unpack a flat face buffer into strided rows: for each row `r`,
/// `dst[base + r·stride + k0 ..][.. len] = data[r·len .. (r+1)·len]`.
pub fn unpack_rows(
    data: &[f32],
    dst: &mut [f32],
    base: usize,
    stride: usize,
    k0: usize,
    len: usize,
) {
    assert!(len > 0, "face rows must be non-empty");
    assert!(
        data.len().is_multiple_of(len),
        "packed buffer length {} not a multiple of row length {len}",
        data.len()
    );
    for (r, chunk) in data.chunks_exact(len).enumerate() {
        let start = base + r * stride + k0;
        dst[start..start + len].copy_from_slice(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_then_unpack_roundtrips() {
        // A 3×4 "plane" with stride 5 (2 padding cells per row).
        let stride = 5;
        let src: Vec<f32> = (0..3 * stride).map(|x| x as f32).collect();
        let mut packed = vec![0.0; 3 * 4];
        pack_rows(&src, 0, stride, 1, 4, &mut packed);
        assert_eq!(packed[0..4], [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(packed[4..8], [6.0, 7.0, 8.0, 9.0]);

        let mut dst = vec![0.0; 3 * stride];
        unpack_rows(&packed, &mut dst, 0, stride, 1, 4);
        for r in 0..3 {
            assert_eq!(dst[r * stride], 0.0); // untouched outside the window
            assert_eq!(
                dst[r * stride + 1..r * stride + 5],
                src[r * stride + 1..r * stride + 5]
            );
        }
    }

    #[test]
    fn base_offsets_select_the_face() {
        // 2×2×3 block, k fastest; the i=1 face starts at base 2*3.
        let block: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let mut out = vec![0.0; 2 * 3];
        pack_rows(&block, 6, 3, 0, 3, &mut out);
        assert_eq!(out, [6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn mismatched_length_panics() {
        let src = vec![0.0; 10];
        let mut out = vec![0.0; 5];
        pack_rows(&src, 0, 2, 0, 2, &mut out);
    }
}
