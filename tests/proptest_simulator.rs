//! Property-based tests of the discrete-event cluster simulator:
//! determinism, lower bounds, monotonicity in machine parameters, and
//! deadlock-freedom of the generated programs.

use cluster_sim::prelude::*;
use proptest::prelude::*;
use tiling_core::machine::{AffineCost, MachineParams};
use tiling_core::prelude::*;

fn machine(fill_us: f64, t_t: f64, t_c: f64) -> MachineParams {
    MachineParams {
        t_c_us: t_c,
        t_s_us: 2.0 * fill_us,
        t_t_us_per_byte: t_t,
        bytes_per_elem: 4,
        fill_mpi_buffer: AffineCost::constant(fill_us),
        fill_kernel_buffer: AffineCost::constant(fill_us),
        transfer_curve: None,
    }
}

/// Strategy: a small paper-style problem.
fn problem() -> impl Strategy<Value = (ClusterProblem, i64)> {
    (1i64..=3, 1i64..=3, 2i64..=6, 2i64..=8).prop_map(|(p, q, steps, v)| {
        let bx = 2;
        let by = 2;
        let prob = ClusterProblem::new(
            Tiling::rectangular(&[bx, by, v]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[bx * p, by * q, v * steps]),
            2,
        )
        .unwrap();
        (prob, steps)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated programs never deadlock and always produce a positive
    /// makespan, in every engine mode.
    #[test]
    fn generated_programs_deadlock_free(
        (prob, _) in problem(),
        fill in 1.0f64..50.0,
        t_t in 0.0f64..0.2,
        duplex in any::<bool>(),
    ) {
        let m = machine(fill, t_t, 1.0);
        let cfg = SimConfig::new(m).with_trace(false).with_duplex(duplex);
        let b = simulate(cfg, prob.blocking_programs(&m)).unwrap();
        let o = simulate(cfg, prob.overlapping_programs(&m)).unwrap();
        prop_assert!(b.makespan > SimTime::ZERO);
        prop_assert!(o.makespan > SimTime::ZERO);
    }

    /// The simulator is deterministic: identical inputs, identical
    /// traces and makespans.
    #[test]
    fn simulation_is_deterministic((prob, _) in problem(), fill in 1.0f64..30.0) {
        let m = machine(fill, 0.01, 1.0);
        let cfg = SimConfig::new(m);
        let a = simulate(cfg, prob.overlapping_programs(&m)).unwrap();
        let b = simulate(cfg, prob.overlapping_programs(&m)).unwrap();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.trace.intervals(), b.trace.intervals());
    }

    /// Compute time is a hard lower bound: the makespan is at least the
    /// busiest rank's total computation.
    #[test]
    fn makespan_at_least_compute((prob, steps) in problem(), fill in 1.0f64..30.0) {
        let _ = steps;
        let m = machine(fill, 0.02, 1.0);
        let cfg = SimConfig::new(m).with_trace(false);
        let res = simulate(cfg, prob.overlapping_programs(&m)).unwrap();
        // One rank's total computation (t_c = 1 µs/point) bounds the
        // makespan from below.
        let total_compute_us: f64 = (0..prob.steps())
            .map(|k| prob.tile_points(&[0, 0, k]) as f64)
            .sum();
        prop_assert!(
            res.makespan.as_us() + 1e-6 >= total_compute_us,
            "makespan {} < compute {}",
            res.makespan.as_us(),
            total_compute_us
        );
    }

    /// Raising communication costs never speeds the simulation up.
    #[test]
    fn monotone_in_fill_cost((prob, _) in problem()) {
        let cheap = machine(2.0, 0.005, 1.0);
        let pricey = machine(20.0, 0.05, 1.0);
        let cfg_c = SimConfig::new(cheap).with_trace(false);
        let cfg_p = SimConfig::new(pricey).with_trace(false);
        let a = simulate(cfg_c, prob.blocking_programs(&cheap)).unwrap();
        let b = simulate(cfg_p, prob.blocking_programs(&pricey)).unwrap();
        prop_assert!(b.makespan >= a.makespan);
    }

    /// Duplex DMA essentially never loses to a half-duplex NIC on the
    /// same program. "Essentially": greedy FIFO lane scheduling admits
    /// classic Graham-style anomalies — starting a transmission *earlier*
    /// can reorder a receiver's RX queue and delay a critical-path
    /// message — so a small regression (≤ ~2–3% on very short pipelines, under 0.5% at realistic
    /// depths) is possible and tolerated; systematic wins are required.
    #[test]
    fn duplex_never_materially_slower((prob, _) in problem(), fill in 1.0f64..30.0) {
        let m = machine(fill, 0.05, 1.0);
        let half = simulate(
            SimConfig::new(m).with_trace(false),
            prob.overlapping_programs(&m),
        )
        .unwrap();
        let full = simulate(
            SimConfig::new(m).with_trace(false).with_duplex(true),
            prob.overlapping_programs(&m),
        )
        .unwrap();
        prop_assert!(
            full.makespan.as_us() <= half.makespan.as_us() * 1.05,
            "full {} vs half {}",
            full.makespan,
            half.makespan
        );
    }

    /// With free communication, blocking and overlapping collapse to the
    /// same pipeline (compute-dominated), up to posting overhead = 0.
    #[test]
    fn free_communication_equalizes_schedules((prob, _) in problem()) {
        let m = MachineParams::free_communication(1.0);
        let cfg = SimConfig::new(m).with_trace(false);
        let b = simulate(cfg, prob.blocking_programs(&m)).unwrap();
        let o = simulate(cfg, prob.overlapping_programs(&m)).unwrap();
        // Both equal the compute critical path; overlapping may differ
        // only by zero-cost bookkeeping.
        prop_assert_eq!(b.makespan, o.makespan);
    }

    /// Trace accounting: per-rank CPU busy time never exceeds the
    /// rank's finish time, and compute time matches the program.
    #[test]
    fn trace_accounting_consistent((prob, _) in problem(), fill in 1.0f64..20.0) {
        let m = machine(fill, 0.01, 1.0);
        let cfg = SimConfig::new(m);
        let res = simulate(cfg, prob.overlapping_programs(&m)).unwrap();
        for rank in 0..prob.ranks() {
            let busy = res.trace.cpu_busy(rank);
            prop_assert!(busy <= res.finish[rank]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Message conservation: across the whole program set, every byte
    /// sent to rank r is received by rank r (per peer, per kind), for
    /// both builder outputs.
    #[test]
    fn messages_conserved((prob, _) in problem()) {
        use std::collections::HashMap;
        let m = machine(5.0, 0.01, 1.0);
        for programs in [prob.blocking_programs(&m), prob.overlapping_programs(&m)] {
            // (src, dst, tag) → (sent bytes, received bytes)
            let mut ledger: HashMap<(usize, usize, u64), (u64, u64)> = HashMap::new();
            for (rank, p) in programs.iter().enumerate() {
                for op in p.ops() {
                    match op {
                        Op::Send { to, tag, bytes } | Op::Isend { to, tag, bytes, .. } => {
                            ledger.entry((rank, to, tag)).or_default().0 += bytes;
                        }
                        Op::Recv { from, tag, bytes } | Op::Irecv { from, tag, bytes, .. } => {
                            ledger.entry((from, rank, tag)).or_default().1 += bytes;
                        }
                        _ => {}
                    }
                }
            }
            for ((src, dst, tag), (sent, recvd)) in ledger {
                prop_assert_eq!(
                    sent, recvd,
                    "channel {}→{} tag {}: sent {} vs received {}",
                    src, dst, tag, sent, recvd
                );
            }
        }
    }

    /// The recorded trace's TX and RX lane busy times agree with the
    /// program's total message bytes (work conservation on the NIC).
    #[test]
    fn nic_busy_matches_message_volume((prob, _) in problem(), fill in 1.0f64..20.0) {
        let m = machine(fill, 0.01, 1.0);
        let cfg = SimConfig::new(m);
        let programs = prob.overlapping_programs(&m);
        // Expected per-rank TX busy: Σ over isends (fill_kernel + wire).
        let expected_tx: Vec<f64> = programs
            .iter()
            .map(|p| {
                p.ops()
                    .map(|op| match op {
                        Op::Isend { bytes, .. } => {
                            m.fill_kernel_buffer.eval(bytes as f64)
                                + m.transmit_us(bytes as f64)
                        }
                        _ => 0.0,
                    })
                    .sum()
            })
            .collect();
        let res = simulate(cfg, programs).unwrap();
        for (rank, &expected) in expected_tx.iter().enumerate() {
            let tx: f64 = res
                .trace
                .for_rank(rank)
                .filter(|iv| iv.activity == Activity::TxBusy)
                .map(|iv| (iv.end - iv.start).as_us())
                .sum();
            prop_assert!(
                (tx - expected).abs() < 0.5,
                "rank {}: tx busy {} vs expected {}",
                rank, tx, expected
            );
        }
    }
}

/// Strategy: deadlock-free programs on 2–4 ranks. Messages have one
/// global order; each follows a compute on its sender, is sent blocking
/// or non-blocking (waited at once or never) and is received in that
/// order.
fn message_programs() -> impl Strategy<Value = Vec<Program>> {
    let message = (0usize..4, 0usize..3, 0u8..3, 0.0f64..40.0, 1u64..3000);
    (2usize..=4, prop::collection::vec(message, 1..=12)).prop_map(|(n, messages)| {
        let mut programs = vec![Program::new(); n];
        for (tag, (src, hop, kind, us, bytes)) in (0u64..).zip(messages) {
            let (src, dst) = (src % n, (src % n + 1 + hop % (n - 1)) % n);
            programs[src].compute(us, tag);
            if kind == 0 {
                programs[src].send(dst, tag, bytes);
            } else {
                let q = programs[src].isend(dst, tag, bytes);
                if kind == 1 {
                    programs[src].wait(q);
                }
            }
            programs[dst].recv(src, tag, bytes);
        }
        programs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An `Isend`'s lane booking is neither skipped nor reordered: the
    /// next interval its rank records after `PostSend`, the RX lane
    /// aside, is that send's `TxBusy`, starting no earlier than the
    /// post ends.
    #[test]
    fn isend_books_its_lane_when_the_post_ends(
        programs in message_programs(),
        fill in 1.0f64..20.0,
        duplex in any::<bool>(),
        shared_bus in any::<bool>(),
    ) {
        let topology = [NetworkTopology::Switched, NetworkTopology::SharedBus][shared_bus as usize];
        let cfg = SimConfig::new(machine(fill, 0.01, 1.0)).with_duplex(duplex).with_topology(topology);
        let res = simulate(cfg, programs).unwrap();
        let recorded = res.trace.intervals();
        for (i, post) in recorded.iter().enumerate() {
            let mut later = recorded[i + 1..].iter().filter(|iv| iv.rank == post.rank);
            let next = later.find(|iv| iv.activity != Activity::RxBusy);
            prop_assert!(
                post.activity != Activity::PostSend
                    || next.is_some_and(|tx| tx.activity == Activity::TxBusy && tx.start >= post.end),
                "after {:?}: {:?}", post, next
            );
        }
    }
}

/// Wire latency shifts a two-rank ping stream by exactly the latency.
#[test]
fn wire_latency_shifts_delivery() {
    let m = machine(5.0, 0.01, 1.0);
    let build = || {
        let mut a = Program::new();
        a.send(1, 0, 400);
        let mut b = Program::new();
        b.recv(0, 0, 400);
        vec![a, b]
    };
    let base = simulate(SimConfig::new(m), build()).unwrap();
    let delayed = simulate(SimConfig::new(m).with_wire_latency_us(77.0), build()).unwrap();
    assert_eq!(delayed.finish[1].as_us() - base.finish[1].as_us(), 77.0);
}
