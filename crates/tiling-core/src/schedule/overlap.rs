//! The overlapping (pipelined) step — the paper's contribution (§4),
//! priced for [`StepStrategy::Overlap`](super::StepStrategy::Overlap).
//!
//! At each time step a processor computes a tile while *concurrently*
//! sending the results of the previous step and receiving the inputs of
//! the next one, so a cross-processor dependence advances two steps
//! (one in flight) — the optimal UET-UCT grid schedule of Andronikos et
//! al. \[1\].
//!
//! Per-step cost (eq. 4): `max(A₁+A₂+A₃, B₁+B₂+B₃+B₄)` — the CPU lane
//! (post sends, compute, post receives) races the communication lane
//! (kernel copies plus wire time), and the longer one paces the pipeline.

use super::tile::Lanes;
use crate::machine::MachineParams;
use crate::mapping::NeighborMessage;

/// How the communication lane's phases combine (Fig. 3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlapMode {
    /// Fig. 3b / Fig. 4b: kernel copies and transmissions of all messages
    /// share one DMA/NIC lane — `B₁+B₂+B₃+B₄` is a straight sum.
    #[default]
    Serialized,
    /// Fig. 3c: send and receive directions overlap too (multi-channel
    /// DMA); the lane cost is `max(send side, receive side)`.
    DuplexDma,
}

/// Eq. 4's lanes: the CPU's `A₁+A₂+A₃` and the communication lane
/// `B₁+B₂+B₃+B₄`, which run side by side.
pub(super) fn lanes(
    machine: &MachineParams,
    msgs: &[NeighborMessage],
    a2: f64,
    mode: OverlapMode,
) -> Lanes {
    // CPU lane: A₁ (post all non-blocking sends) + A₂ (compute) + A₃
    // (post all non-blocking receives); the paper assumes the Irecv
    // posting cost equals the Isend one (§5). Communication lane: per
    // message, a kernel copy on each side (B₂, B₃) and the wire time on
    // each side (B₁, B₄). In the pipeline every node both sends and
    // receives the same message set, so both sides cost the same.
    let mut a1 = 0.0;
    let mut a3 = 0.0;
    let mut send_side = 0.0;
    let mut recv_side = 0.0;
    for m in msgs {
        let bytes = m.volume_points as f64 * f64::from(machine.bytes_per_elem);
        a1 += machine.fill_mpi_buffer.eval(bytes);
        a3 += machine.fill_mpi_buffer.eval(bytes);
        send_side += machine.fill_kernel_buffer.eval(bytes) + machine.transmit_us(bytes);
        recv_side += machine.transmit_us(bytes) + machine.fill_kernel_buffer.eval(bytes);
    }
    let b = match mode {
        OverlapMode::Serialized => send_side + recv_side,
        OverlapMode::DuplexDma => send_side.max(recv_side),
    };
    Lanes {
        a1,
        a3,
        a: a1 + a2 + a3,
        b,
    }
}

/// One message's closed-form terms under eq. 4, case 1 (the CPU lane
/// paces): an Isend and an Irecv posting.
pub(super) fn message_terms(machine: &MachineParams, b0: f64, b1: f64) -> (f64, f64) {
    let post = &machine.fill_mpi_buffer;
    (
        2.0 * (post.base_us + post.per_byte_us * b0),
        2.0 * post.per_byte_us * b1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::DependenceSet;
    use crate::schedule::{StepStrategy, TileSchedule};
    use crate::space::IterationSpace;
    use crate::tiling::Tiling;

    /// §4 Example 3: the 2-D loop of Example 1 under the overlapping
    /// schedule — `Π = (1,2)`, `P = 1198`, `T ≈ 0.24 s` vs 0.4 s.
    #[test]
    fn example_3_paper_numbers() {
        let machine = MachineParams::example_1();
        let tiling = Tiling::rectangular(&[10, 10]);
        let deps = DependenceSet::example_1();
        let space = IterationSpace::from_extents(&[10_000, 1_000]);
        let sched = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 0);
        assert_eq!(sched.pi(), vec![1, 2]);

        let ts = tiling.tiled_space(&space);
        // P = 999 + 2·99 + 1 = 1198.
        assert_eq!(sched.schedule_length(&ts), 1198);

        let r = sched.analyze(&tiling, &deps, &space, &machine, OverlapMode::DuplexDma);
        // CPU lane: A₁ = A₃ = ½·t_s = 50·t_c, A₂ = 100·t_c ⇒ 200·t_c.
        assert!((r.a1_us - 50.0).abs() < 1e-9);
        assert!((r.a3_us - 50.0).abs() < 1e-9);
        assert!((r.a2_us - 100.0).abs() < 1e-9);
        assert!((r.a_us - 200.0).abs() < 1e-9);
        // B lane (duplex): per direction 50 (kernel) + 64 (wire) = 114.
        assert!((r.b_us - 114.0).abs() < 1e-9);
        assert!(r.is_cpu_bound());
        // T = 1198 × 200·t_c = 239 600 t_c ≈ 0.24 s.
        assert!((r.total_us - 239_600.0).abs() < 1e-6);
        assert!((r.total_secs() - 0.2396).abs() < 1e-4);
    }

    #[test]
    fn overlap_beats_nonoverlap_on_example() {
        let machine = MachineParams::example_1();
        let tiling = Tiling::rectangular(&[10, 10]);
        let deps = DependenceSet::example_1();
        let space = IterationSpace::from_extents(&[10_000, 1_000]);
        let [no, ov] = [StepStrategy::Blocking, StepStrategy::Overlap].map(|s| {
            TileSchedule::with_mapping(s, 2, 0).analyze(
                &tiling,
                &deps,
                &space,
                &machine,
                OverlapMode::DuplexDma,
            )
        });
        assert!(ov.total_us < no.total_us);
        // The paper reports 0.24 s vs 0.4 s — a ~40% improvement.
        let improvement = 1.0 - ov.total_us / no.total_us;
        assert!(improvement > 0.35 && improvement < 0.45, "{improvement}");
    }

    #[test]
    fn schedule_time_coefficients() {
        let ts = IterationSpace::from_extents(&[4, 4, 37]);
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 3, 2);
        assert_eq!(s.pi(), vec![2, 2, 1]);
        assert_eq!(s.time_of(&[0, 0, 0], &ts), 0);
        assert_eq!(s.time_of(&[1, 0, 0], &ts), 2);
        assert_eq!(s.time_of(&[0, 0, 1], &ts), 1);
        assert_eq!(s.time_of(&[3, 3, 36], &ts), 2 * 3 + 2 * 3 + 36);
        assert_eq!(s.schedule_length(&ts), 2 * 3 + 2 * 3 + 36 + 1);
    }

    #[test]
    fn schedule_length_with_offset_space() {
        let ts = IterationSpace::new(vec![2, 5], vec![4, 9]);
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 1);
        // Extents 3 and 5; mapping along dim 1: P = 2·2 + 4 + 1 = 9.
        assert_eq!(s.schedule_length(&ts), 9);
        assert_eq!(s.time_of(&[2, 5], &ts), 0);
        assert_eq!(s.time_of(&[4, 9], &ts), 8);
    }

    #[test]
    fn validity_cross_processor_needs_two_steps() {
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 0);
        // Unit tile deps: e1 along mapping (Δt=1, same proc: ok),
        // e2 cross-processor (Δt=2: ok).
        assert!(s.is_valid_for(&DependenceSet::units(2)));
        // A hypothetical schedule mapping along dim 1 still works for
        // unit deps…
        assert!(TileSchedule::with_mapping(StepStrategy::Overlap, 2, 1)
            .is_valid_for(&DependenceSet::units(2)));
    }

    #[test]
    fn invalid_when_cross_processor_dep_advances_one() {
        // Construct an invalid case artificially: mapping along dim 0
        // but a dependence (1, 0) declared cross-processor can't happen
        // (its projection is zero). Instead check a diagonal (1,1):
        // Δt = 1·1 + 2·1 = 3 ≥ 2: valid. Negative mapping component:
        // d = (-1, 1): Δt = −1+2 = 1 but cross ⇒ invalid.
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 0);
        let d = DependenceSet::from_vectors(2, vec![vec![1, 0], vec![-1, 1]]);
        assert!(!s.is_valid_for(&d));
        let (dep, dot) = s.first_violation(&d).expect("(-1, 1) is unordered");
        assert_eq!((dep.components(), dot), (&[-1, 1][..], 1));
    }

    #[test]
    fn serialized_mode_doubles_duplex_lane() {
        let machine = MachineParams::example_1();
        let tiling = Tiling::rectangular(&[10, 10]);
        let deps = DependenceSet::example_1();
        let space = IterationSpace::from_extents(&[100, 100]);
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 0);
        let ser = s.analyze(&tiling, &deps, &space, &machine, OverlapMode::Serialized);
        let dup = s.analyze(&tiling, &deps, &space, &machine, OverlapMode::DuplexDma);
        assert!((ser.b_us - 2.0 * dup.b_us).abs() < 1e-9);
        assert!(ser.step_us >= dup.step_us);
    }

    #[test]
    fn free_communication_cpu_bound() {
        let machine = MachineParams::free_communication(1.0);
        let tiling = Tiling::rectangular(&[8, 8]);
        let deps = DependenceSet::units(2);
        let space = IterationSpace::from_extents(&[64, 64]);
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 0);
        let r = s.analyze(&tiling, &deps, &space, &machine, OverlapMode::Serialized);
        assert!(r.is_cpu_bound());
        assert_eq!(r.b_us, 0.0);
        assert!((r.step_us - 64.0).abs() < 1e-9);
    }

    #[test]
    fn paper_3d_experiment_i_theory() {
        // Fig. 12 column i: V = 444, g = 7104, T_fill = 0.627 ms,
        // theoretical t ≈ 0.24 s (the paper's arithmetic uses the
        // *non-overlap* plane count ≈ 43; our exact overlap P = 49 gives
        // ~0.27 s — same shape, documented in EXPERIMENTS.md).
        let machine = MachineParams::paper_cluster();
        let tiling = Tiling::rectangular(&[4, 4, 444]);
        let deps = DependenceSet::paper_3d();
        let space = IterationSpace::from_extents(&[16, 16, 16384]);
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 3, 2);
        let r = s.analyze(&tiling, &deps, &space, &machine, OverlapMode::Serialized);
        assert_eq!(r.schedule_length, 2 * 3 + 2 * 3 + 36 + 1);
        assert_eq!(r.neighbor_count, 2);
        // A-lane: 4 posts ≈ 4×627 µs + 7104×0.441 µs ≈ 5.64 ms.
        assert!((r.a_us - (4.0 * 627.0 + 7104.0 * 0.441)).abs() < 5.0);
        assert!(r.is_cpu_bound());
        // Total ≈ 49 × 5.64 ms ≈ 0.277 s: within 20% of the paper's 0.24.
        assert!(
            r.total_secs() > 0.2 && r.total_secs() < 0.32,
            "{}",
            r.total_secs()
        );
    }
}
