//! Computation and communication cost of a tile (§2.4).
//!
//! * `V_comp = Π s_i` — iteration points per tile.
//! * Formula (1): total communication of a tile over **all** boundary
//!   surfaces,
//!   `V_comm(H) = (1/|det H|) · Σ_i Σ_k Σ_j h_{i,k} d_{k,j}`,
//!   i.e. `det(P)` times the sum of all entries of `H·D`. For a box
//!   (`H = diag(1/s)`) each term `det(P)·(h_i · d_j)` is
//!   `V_comp / s_i · d_{i,j}`: the face normal to axis `i` times the
//!   depth `d_{i,j}` — the iteration points from which dependence `d_j`
//!   crosses that face.
//! * Formula (2): the same sum with the surface normal to the
//!   processor-mapping dimension removed — tiles along that dimension run
//!   on the same processor, so those crossings are free.
//!
//! Every volume is an exact `i64`; a product or sum that overflows
//! panics instead of wrapping.

use crate::dependence::DependenceSet;
use crate::space::IterationSpace;
use crate::tiling::Tiling;

/// `V_comp = Π s_i`: the computation volume (iteration points) of one tile.
pub fn v_comp(tiling: &Tiling) -> i64 {
    tiling.volume()
}

/// Communication volume of dependence `d` through the face normal to
/// axis `i`: `det(P) · (h_i · d) = V_comp / s_i · d_i`, exact.
pub fn v_comm_surface(tiling: &Tiling, dep: &[i64], surface: usize) -> i64 {
    let sides = tiling.sides();
    assert!(surface < sides.len(), "surface index out of range");
    assert_eq!(dep.len(), sides.len(), "dependence arity mismatch");
    (tiling.volume() / sides[surface])
        .checked_mul(dep[surface])
        .unwrap_or_else(|| panic!("communication volume overflows i64"))
}

/// `Σ v_comm_surface` over every dependence and every surface `i` that
/// `keep(i)` admits.
fn v_comm_sum(tiling: &Tiling, deps: &DependenceSet, keep: impl Fn(usize) -> bool) -> i64 {
    let terms = deps.iter().flat_map(|d| {
        (0..tiling.dims())
            .filter(|&i| keep(i))
            .map(|i| v_comm_surface(tiling, d.components(), i))
    });
    terms.fold(0i64, |sum, v| {
        sum.checked_add(v)
            .unwrap_or_else(|| panic!("communication volume overflows i64"))
    })
}

/// Formula (1): total communication volume of a tile, all surfaces.
pub fn v_comm_total(tiling: &Tiling, deps: &DependenceSet) -> i64 {
    v_comm_sum(tiling, deps, |_| true)
}

/// Formula (2): communication volume when tiles along `mapping_dim` are
/// mapped to the same processor — that dimension's surface is excluded.
pub fn v_comm_mapped(tiling: &Tiling, deps: &DependenceSet, mapping_dim: usize) -> i64 {
    assert!(
        mapping_dim < tiling.dims(),
        "mapping dimension out of range"
    );
    v_comm_sum(tiling, deps, |i| i != mapping_dim)
}

/// Communication volume through a *single* boundary family `i`, summed
/// over all dependences: the number of iteration points whose results
/// must be shipped to the neighbor tile in direction `i` (one message).
pub fn v_comm_per_dimension(tiling: &Tiling, deps: &DependenceSet, dim: usize) -> i64 {
    assert!(dim < tiling.dims(), "surface index out of range");
    v_comm_sum(tiling, deps, |i| i == dim)
}

/// Message payload in bytes for the neighbor in direction `dim`, at `b`
/// bytes per array element.
pub fn message_bytes(
    tiling: &Tiling,
    deps: &DependenceSet,
    dim: usize,
    bytes_per_elem: u32,
) -> f64 {
    v_comm_per_dimension(tiling, deps, dim) as f64 * f64::from(bytes_per_elem)
}

/// Brute-force oracle for formula (1): for each dependence `d` and each
/// boundary family `i`, count the points `j0` of the origin tile (the box
/// `0 ≤ j0 < s`) for which `j0 + d` lands in a tile with
/// `⌊(j0+d) / s⌋_i ≥ 1`. Exact under the containment assumption; used to
/// validate the closed formulas in tests.
pub fn v_comm_total_bruteforce(tiling: &Tiling, deps: &DependenceSet) -> i64 {
    let upper = tiling.sides().iter().map(|&s| s - 1).collect();
    let origin_tile = IterationSpace::new(vec![0; tiling.dims()], upper);
    let mut count = 0i64;
    for d in deps.iter() {
        for j0 in origin_tile.points() {
            let shifted: Vec<i64> = j0
                .iter()
                .zip(d.components())
                .map(|(&a, &b)| a + b)
                .collect();
            let t = tiling.tile_of(&shifted);
            count += t.iter().filter(|&&c| c >= 1).count() as i64;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_paper_values() {
        // §3 Example 1: square 10×10 tiles, D = {(1,1),(1,0),(0,1)}.
        let t = Tiling::rectangular(&[10, 10]);
        let d = DependenceSet::example_1();
        assert_eq!(v_comp(&t), 100);
        // Formula (1): total = 40; formula (2) with mapping along i1: 20.
        assert_eq!(v_comm_total(&t, &d), 40);
        assert_eq!(v_comm_mapped(&t, &d, 0), 20);
    }

    #[test]
    fn paper_3d_packet_sizes() {
        // §5 experiment i: tile 4×4×444, b = 4 bytes.
        // Face perpendicular to i (or j) carries 4·444 = 1776 elements
        // = 7104 bytes, the paper's measured packet size.
        let t = Tiling::rectangular(&[4, 4, 444]);
        let d = DependenceSet::paper_3d();
        assert_eq!(v_comm_per_dimension(&t, &d, 0), 1776);
        assert_eq!(v_comm_per_dimension(&t, &d, 1), 1776);
        assert_eq!(message_bytes(&t, &d, 0, 4), 7104.0);
        // Mapping along k (dim 2): only i and j faces communicate.
        assert_eq!(v_comm_mapped(&t, &d, 2), 2 * 1776);
    }

    #[test]
    fn experiment_ii_and_iii_packets() {
        let d = DependenceSet::paper_3d();
        let t2 = Tiling::rectangular(&[4, 4, 538]);
        assert_eq!(message_bytes(&t2, &d, 0, 4), 8608.0);
        let t3 = Tiling::rectangular(&[8, 8, 164]);
        assert_eq!(message_bytes(&t3, &d, 0, 4), 5248.0);
    }

    #[test]
    fn formula_matches_bruteforce_rectangular() {
        let t = Tiling::rectangular(&[10, 10]);
        let d = DependenceSet::example_1();
        let brute = v_comm_total_bruteforce(&t, &d);
        assert_eq!(v_comm_total(&t, &d), brute);
    }

    #[test]
    fn formula_matches_bruteforce_various_shapes() {
        let cases = [
            (vec![4i64, 4], vec![vec![1, 0], vec![0, 1]]),
            (vec![5, 3], vec![vec![1, 1], vec![1, 0]]),
            (vec![2, 2, 3], vec![vec![1, 0, 0], vec![0, 1, 1]]),
            (vec![6, 2], vec![vec![1, 1], vec![0, 1], vec![1, 0]]),
        ];
        for (sides, deps) in cases {
            let t = Tiling::rectangular(&sides);
            let d = DependenceSet::from_vectors(sides.len(), deps);
            let brute = v_comm_total_bruteforce(&t, &d);
            assert_eq!(v_comm_total(&t, &d), brute, "sides {sides:?}");
        }
    }

    #[test]
    fn mapped_volume_excludes_one_dimension() {
        let t = Tiling::rectangular(&[4, 4, 100]);
        let d = DependenceSet::paper_3d();
        let total = v_comm_total(&t, &d);
        let mapped = v_comm_mapped(&t, &d, 2);
        let k_surface = v_comm_per_dimension(&t, &d, 2);
        assert_eq!(total, mapped + k_surface);
    }

    #[test]
    fn surface_volume_scales_with_face_area() {
        // Doubling the tile height doubles the i-face volume.
        let d = DependenceSet::paper_3d();
        let a = v_comm_per_dimension(&Tiling::rectangular(&[4, 4, 100]), &d, 0);
        let b = v_comm_per_dimension(&Tiling::rectangular(&[4, 4, 200]), &d, 0);
        assert_eq!(b, a * 2);
    }

    #[test]
    fn zero_dep_component_no_surface_cost() {
        let t = Tiling::rectangular(&[8, 8]);
        let d = vec![0i64, 3];
        assert_eq!(v_comm_surface(&t, &d, 0), 0);
        assert_eq!(v_comm_surface(&t, &d, 1), 24);
    }

    #[test]
    #[should_panic(expected = "overflows i64")]
    fn v_comm_overflow_panics() {
        let t = Tiling::rectangular(&[1 << 62, 1]);
        v_comm_surface(&t, &[0, 4], 1);
    }
}
