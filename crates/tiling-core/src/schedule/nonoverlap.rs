//! The non-overlapping (Hodzic–Shang) step of §3, priced for
//! [`StepStrategy::Blocking`](super::StepStrategy::Blocking).
//!
//! Every time step is a serialized *receive → compute → send* triplet,
//! so the total execution time is
//!
//! ```text
//! T = P(g) · (T_comp + T_comm),            (3)
//! T_comm = T_startup + T_transmit,
//! ```
//!
//! with one startup pair (`2·t_s`, a send plus a receive) per neighboring
//! processor and a transmission term `b · V_comm · t_t` for the data
//! crossing processor boundaries.

use super::tile::Lanes;
use crate::machine::MachineParams;
use crate::mapping::NeighborMessage;

/// Eq. 3's lanes: the CPU's `A = T_comp + T_startup` and the wire's
/// `B = T_transmit`, which a blocking step pays one after the other.
pub(super) fn lanes(machine: &MachineParams, msgs: &[NeighborMessage], t_comp: f64) -> Lanes {
    // One send and one receive startup per neighboring processor, both
    // byte-dependent (blocking operations walk the full user→kernel
    // copy path: `T_startup = T_fill_MPI + T_fill_kernel`, §4), plus
    // one wire transit per complete send-receive pair (§3 Example 1).
    let mut startup = 0.0;
    let mut t_transmit = 0.0;
    for m in msgs {
        let bytes = m.volume_points as f64 * f64::from(machine.bytes_per_elem);
        startup += machine.startup_us(bytes);
        t_transmit += machine.transmit_us(bytes);
    }
    Lanes {
        a1: startup,
        a3: startup,
        a: t_comp + (startup + startup),
        b: t_transmit,
    }
}

/// One message's closed-form terms under eq. 3: a byte-dependent
/// startup on each side (`T_fill_MPI + T_fill_kernel`) plus the wire.
pub(super) fn message_terms(machine: &MachineParams, b0: f64, b1: f64) -> (f64, f64) {
    let startup_base = machine.fill_mpi_buffer.base_us + machine.fill_kernel_buffer.base_us;
    let startup_slope =
        machine.fill_mpi_buffer.per_byte_us + machine.fill_kernel_buffer.per_byte_us;
    (
        2.0 * (startup_base + startup_slope * b0) + machine.t_t_us_per_byte * b0,
        2.0 * startup_slope * b1 + machine.t_t_us_per_byte * b1,
    )
}

/// Hodzic–Shang optimal tile size (expression (11) of \[4\], quoted in
/// Example 1): `g = c·t_s/t_c` with `c` the number of neighboring
/// processors.
pub fn optimal_g_hodzic_shang(machine: &MachineParams, neighbor_count: usize) -> f64 {
    neighbor_count as f64 * machine.t_s_us / machine.t_c_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::DependenceSet;
    use crate::schedule::{OverlapMode, StepStrategy, TileSchedule};
    use crate::space::IterationSpace;
    use crate::tiling::Tiling;

    fn blocking(dims: usize, mapping_dim: usize) -> TileSchedule {
        TileSchedule::with_mapping(StepStrategy::Blocking, dims, mapping_dim)
    }

    /// §3 Example 1 end-to-end: the paper's exact numbers.
    #[test]
    fn example_1_total_time() {
        let machine = MachineParams::example_1();
        let tiling = Tiling::rectangular(&[10, 10]);
        let deps = DependenceSet::example_1();
        let space = IterationSpace::from_extents(&[10_000, 1_000]);
        let r = blocking(2, 0).analyze(&tiling, &deps, &space, &machine, OverlapMode::default());

        assert_eq!(r.schedule_length, 1099); // P = 999 + 99 + 1
        assert_eq!(r.g, 100);
        assert_eq!(r.v_comm_points, 20);
        assert_eq!(r.neighbor_count, 1);
        assert!((r.a2_us - 100.0).abs() < 1e-9); // T_comp = 100·t_c
        assert!((r.a1_us + r.a3_us - 200.0).abs() < 1e-9); // T_startup = 2·t_s
        assert!((r.b_us - 64.0).abs() < 1e-9); // T_transmit = 20·4·0.8
        assert!((r.step_us - 364.0).abs() < 1e-9);
        // T = 1099 × 364 t_c = 400 036 t_c ≈ 0.4 s.
        assert!((r.total_us - 400_036.0).abs() < 1e-6);
        assert!((r.total_secs() - 0.4).abs() < 0.001);
    }

    #[test]
    fn example_1_optimal_g() {
        // g = c·t_s/t_c with c = 1 ⇒ 100 (the paper's choice).
        let machine = MachineParams::example_1();
        assert_eq!(optimal_g_hodzic_shang(&machine, 1), 100.0);
    }

    #[test]
    fn mapping_defaults_to_longest_dimension() {
        let tiling = Tiling::rectangular(&[4, 4, 64]);
        let space = IterationSpace::from_extents(&[16, 16, 16384]);
        let ts = tiling.tiled_space(&space);
        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            let s = TileSchedule::new(strategy, &ts);
            assert_eq!(s.mapping().mapping_dim(), 2);
        }
    }

    #[test]
    fn time_of_is_coordinate_sum() {
        let ts = IterationSpace::from_extents(&[4, 4, 8]);
        let s = TileSchedule::new(StepStrategy::Blocking, &ts);
        assert_eq!(s.pi(), vec![1, 1, 1]);
        assert_eq!(s.time_of(&[0, 0, 0], &ts), 0);
        assert_eq!(s.time_of(&[1, 2, 3], &ts), 6);
        assert_eq!(s.schedule_length(&ts), 3 + 3 + 7 + 1);
    }

    #[test]
    fn schedule_respects_tile_dependences() {
        let ts = IterationSpace::from_extents(&[3, 3, 3]);
        let s = TileSchedule::new(StepStrategy::Blocking, &ts);
        let deps = DependenceSet::units(3);
        assert!(s.is_valid_for(&deps));
        for t in ts.points() {
            for d in deps.iter() {
                let succ: Vec<i64> = t.iter().zip(d.components()).map(|(&a, &b)| a + b).collect();
                if ts.contains(&succ) {
                    assert!(s.time_of(&succ, &ts) > s.time_of(&t, &ts));
                }
            }
        }
    }

    #[test]
    fn free_communication_reduces_to_compute() {
        let machine = MachineParams::free_communication(2.0);
        let tiling = Tiling::rectangular(&[5, 5]);
        let deps = DependenceSet::units(2);
        let space = IterationSpace::from_extents(&[50, 25]);
        let r = blocking(2, 0).analyze(&tiling, &deps, &space, &machine, OverlapMode::default());
        assert_eq!(r.a1_us + r.a3_us + r.b_us, 0.0);
        assert!((r.step_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn paper_3d_neighbor_count_is_two() {
        let machine = MachineParams::paper_cluster();
        let tiling = Tiling::rectangular(&[4, 4, 444]);
        let deps = DependenceSet::paper_3d();
        let space = IterationSpace::from_extents(&[16, 16, 16384]);
        let r = blocking(3, 2).analyze(&tiling, &deps, &space, &machine, OverlapMode::default());
        assert_eq!(r.neighbor_count, 2);
        assert_eq!(r.v_comm_points, 2 * 1776);
        // 4 tiles × 4 tiles × ⌈16384/444⌉ = 37 tiles.
        assert_eq!(r.tiled_space.extents(), vec![4, 4, 37]);
        assert_eq!(r.schedule_length, 3 + 3 + 36 + 1);
    }
}
