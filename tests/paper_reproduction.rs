//! End-to-end reproduction checks of the paper's headline numbers and
//! claims, at test-friendly scale.

mod common;

use common::verify_paper3d;
use overlap_tiling::prelude::*;

/// §3 Example 1: T = 1099 × 364 t_c = 400 036 t_c ≈ 0.4 s.
#[test]
fn example_1_exact_numbers() {
    let machine = MachineParams::example_1();
    let nest = LoopNest::example_1();
    let deps = nest.dependences().unwrap();
    let tiling = Tiling::rectangular(&[10, 10]);
    let r = TileSchedule::with_mapping(StepStrategy::Blocking, 2, 0).analyze(
        &tiling,
        &deps,
        nest.space(),
        &machine,
        OverlapMode::default(),
    );
    assert_eq!(r.schedule_length, 1099);
    assert_eq!(r.v_comm_points, 20);
    assert!((r.step_us - 364.0).abs() < 1e-9);
    assert!((r.total_us - 400_036.0).abs() < 1e-6);
}

/// §4 Example 3: Π = (1,2), P = 1198, T ≈ 0.24 s.
#[test]
fn example_3_exact_numbers() {
    let machine = MachineParams::example_1();
    let nest = LoopNest::example_1();
    let deps = nest.dependences().unwrap();
    let tiling = Tiling::rectangular(&[10, 10]);
    let s = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 0);
    assert_eq!(s.pi(), vec![1, 2]);
    let r = s.analyze(
        &tiling,
        &deps,
        nest.space(),
        &machine,
        OverlapMode::DuplexDma,
    );
    assert_eq!(r.schedule_length, 1198);
    assert!((r.total_us - 239_600.0).abs() < 1e-6);
    assert!(r.is_cpu_bound());
}

/// The central claim, on the simulated cluster at reduced scale: the
/// overlapping schedule beats the non-overlapping one by a doubl-digit
/// percentage at a reasonable grain, for all three experiment layouts.
#[test]
fn overlap_beats_blocking_all_layouts() {
    let machine = MachineParams::paper_cluster();
    let cfg = SimConfig::new(machine).with_trace(false);
    // (cross-section, nz, V): miniatures of experiments i/ii/iii.
    for (bx, by, nz, v) in [
        (4i64, 4i64, 2048i64, 128i64),
        (4, 4, 4096, 128),
        (8, 8, 1024, 64),
    ] {
        let problem = ClusterProblem::new(
            Tiling::rectangular(&[bx, by, v]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[bx * 4, by * 4, nz]),
            2,
        )
        .unwrap();
        let blocking = simulate(cfg, problem.blocking_programs(&machine)).unwrap();
        let overlap = simulate(cfg, problem.overlapping_programs(&machine)).unwrap();
        let improvement = 1.0 - overlap.makespan.as_us() / blocking.makespan.as_us();
        assert!(
            improvement > 0.10,
            "layout {bx}x{by}x{nz} V={v}: improvement only {:.1}%",
            improvement * 100.0
        );
    }
}

/// The U-shape of Figures 9–11: extremes of V lose to the middle.
#[test]
fn completion_time_vs_v_is_u_shaped() {
    let machine = MachineParams::paper_cluster();
    let cfg = SimConfig::new(machine).with_trace(false);
    let space = IterationSpace::from_extents(&[8, 8, 1024]);
    let run = |v: i64| {
        let problem = ClusterProblem::new(
            Tiling::rectangular(&[4, 4, v]),
            DependenceSet::paper_3d(),
            space.clone(),
            2,
        )
        .unwrap();
        simulate(cfg, problem.overlapping_programs(&machine))
            .unwrap()
            .makespan
            .as_us()
    };
    let fine = run(2);
    let mid = run(64);
    let coarse = run(256);
    assert!(mid < fine, "mid {mid} vs fine {fine}");
    assert!(mid < coarse, "mid {mid} vs coarse {coarse}");
}

/// Theory (eq. 5) tracks the simulation within a modest margin at the
/// paper-scale experiment i optimum (the paper reports 2.5–12%).
#[test]
fn theory_tracks_simulation() {
    let machine = MachineParams::paper_cluster();
    let v = 224; // simulated optimum of fig9
    let problem = ClusterProblem::new(
        Tiling::rectangular(&[4, 4, v]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[16, 16, 16384]),
        2,
    )
    .unwrap();
    let cfg = SimConfig::new(machine).with_trace(false);
    let sim = simulate(cfg, problem.overlapping_programs(&machine))
        .unwrap()
        .makespan
        .as_us();
    let theory = TileSchedule::with_mapping(StepStrategy::Overlap, 3, 2)
        .analyze(
            &Tiling::rectangular(&[4, 4, v]),
            &DependenceSet::paper_3d(),
            &IterationSpace::from_extents(&[16, 16, 16384]),
            &machine,
            OverlapMode::Serialized,
        )
        .total_us;
    let diff = (theory - sim).abs() / sim;
    assert!(
        diff < 0.20,
        "theory {theory} vs sim {sim}: {:.0}%",
        diff * 100.0
    );
}

/// The paper's packet sizes (Fig. 12 g_optimal row): tile faces at the
/// measured optima are 7104 / 8608 / 5248 bytes.
#[test]
fn packet_sizes_match_paper() {
    let deps = DependenceSet::paper_3d();
    for (sides, expect) in [
        (vec![4i64, 4, 444], 7104.0),
        (vec![4, 4, 538], 8608.0),
        (vec![8, 8, 164], 5248.0),
    ] {
        let t = Tiling::rectangular(&sides);
        assert_eq!(tiling_core::cost::message_bytes(&t, &deps, 0, 4), expect);
    }
}

/// Fig. 3 ablation ordering at paper scale: blocking ≥ half-duplex
/// overlap ≥ duplex overlap.
#[test]
fn ablation_ordering() {
    let machine = MachineParams::paper_cluster();
    let problem = ClusterProblem::new(
        Tiling::rectangular(&[4, 4, 128]),
        DependenceSet::paper_3d(),
        IterationSpace::from_extents(&[8, 8, 2048]),
        2,
    )
    .unwrap();
    let run = |duplex: bool, blocking: bool| {
        let cfg = SimConfig::new(machine)
            .with_trace(false)
            .with_duplex(duplex);
        let programs = if blocking {
            problem.blocking_programs(&machine)
        } else {
            problem.overlapping_programs(&machine)
        };
        simulate(cfg, programs).unwrap().makespan
    };
    let a = run(false, true);
    let b = run(false, false);
    let c = run(true, false);
    assert!(b < a, "half-duplex overlap {b} vs blocking {a}");
    assert!(c <= b, "duplex {c} vs half-duplex {b}");
}

/// The real threaded execution agrees with the sequential reference and
/// the overlap variant is not slower at a latency-dominant setting.
#[test]
fn threaded_backend_end_to_end() {
    let d = Decomp3D {
        nx: 4,
        ny: 4,
        nz: 256,
        pi: 2,
        pj: 2,
        v: 32,
        boundary: 1.0,
    };
    let lat = LatencyModel {
        startup_us: 300.0,
        per_byte_us: 0.0,
    };
    let rep_b = verify_paper3d(d, lat, ExecMode::Blocking).expect("valid decomposition");
    let rep_o = verify_paper3d(d, lat, ExecMode::Overlapping).expect("valid decomposition");
    assert!(rep_b.passed());
    assert!(rep_o.passed());
    assert!(rep_o.elapsed_secs <= rep_b.elapsed_secs * 1.05);
}
