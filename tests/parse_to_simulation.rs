//! The full front-to-back pipeline from *source text* to a simulated
//! cluster run: parse the paper's kernel as written in §5, extract
//! dependences, tile, map, build both MPI programs, simulate, and check
//! the paper's claim — all starting from a string.

mod common;

use common::verify_paper3d;
use overlap_tiling::prelude::*;

const PAPER_KERNEL: &str = "
    FOR i = 0 TO 15 DO
      FOR j = 0 TO 15 DO
        FOR k = 0 TO 8191 DO
          A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
        ENDFOR
      ENDFOR
    ENDFOR";

#[test]
fn text_to_speedup() {
    // Front-end.
    let nest = parse_loop_nest(PAPER_KERNEL).expect("parses");
    let deps = nest.dependences().expect("valid dependences");
    assert_eq!(deps.len(), 3);

    // Tile: 4×4 cross-section (one column per processor on a 4×4 grid),
    // height from the closed-form optimum — the §6 open problem's
    // answer, so no sweep is needed anywhere in this pipeline.
    let machine = MachineParams::paper_cluster();
    let cf = overlap_optimal_v(nest.space(), &deps, &machine, &[4, 4], 2);
    let v = cf.v_star_integer().clamp(1, 512);
    let tiling = Tiling::rectangular(&[4, 4, v]);
    assert!(tiling.is_legal(&deps));
    assert!(tiling.contains_dependences(&deps));

    // Build and simulate both schedules.
    let problem = ClusterProblem::new(tiling, deps, nest.space().clone(), 2).expect("layout");
    assert_eq!(problem.ranks(), 16);
    let cfg = SimConfig::new(machine).with_trace(false);
    let blocking = simulate(cfg, problem.blocking_programs(&machine)).expect("no deadlock");
    let overlap = simulate(cfg, problem.overlapping_programs(&machine)).expect("no deadlock");

    // The paper's claim, end to end from text: overlap wins decisively.
    let improvement = 1.0 - overlap.makespan.as_us() / blocking.makespan.as_us();
    assert!(
        improvement > 0.15,
        "improvement only {:.1}% (blocking {}, overlap {})",
        improvement * 100.0,
        blocking.makespan,
        overlap.makespan
    );

    // And the closed-form prediction tracks the simulated overlap time.
    let predicted_s = cf.predict_us(v as f64) * 1e-6;
    let simulated_s = overlap.makespan.as_secs();
    let diff = (predicted_s - simulated_s).abs() / simulated_s;
    assert!(
        diff < 0.15,
        "closed form {predicted_s:.4} s vs simulated {simulated_s:.4} s ({:.0}%)",
        diff * 100.0
    );
}

#[test]
fn text_to_real_execution() {
    // Same text, but executed for real on threads (scaled down) and
    // verified bitwise against the sequential reference.
    let src = "
        FOR i = 0 TO 3 DO
          FOR j = 0 TO 3 DO
            FOR k = 0 TO 127 DO
              A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
            ENDFOR
          ENDFOR
        ENDFOR";
    let nest = parse_loop_nest(src).expect("parses");
    let e = nest.space().extents();
    let d = Decomp3D {
        nx: e[0] as usize,
        ny: e[1] as usize,
        nz: e[2] as usize,
        pi: 2,
        pj: 2,
        v: 16,
        boundary: 1.0,
    };
    let rep = verify_paper3d(d, LatencyModel::zero(), ExecMode::Overlapping)
        .expect("valid decomposition");
    assert!(rep.passed());
}
