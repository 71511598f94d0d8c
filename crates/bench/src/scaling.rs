//! Beyond the paper: strong-scaling behaviour of the two schedules.
//!
//! The paper fixes 16 processors. A natural companion study is to hold
//! the iteration space fixed and grow the processor grid — the blocking
//! schedule's serialized `receive → compute → send` steps shrink with
//! the per-processor tile, but the startup costs per step do not, so
//! its scaling stalls earlier than the overlapping schedule's, whose
//! per-step cost approaches the posting floor instead.
//!
//! For each grid the tile cross-section is chosen as in §5 (one tile
//! column per processor) and the tile height is re-optimized per
//! schedule over a ladder, so each point is each schedule's best
//! configuration at that processor count.

use crate::experiments::{ladder_optima, Experiment, Optima};
use sweep::config::Schedule;
use tiling_core::machine::MachineParams;

/// Serial execution time of an experiment's whole space (µs):
/// `volume · t_c`.
pub fn serial_time_us(exp: &Experiment, machine: &MachineParams) -> f64 {
    (exp.nx * exp.ny * exp.nz) as f64 * machine.t_c_us
}

/// Run the strong-scaling study of an experiment's space on square
/// grids `side × side`: per grid, each schedule's optimum.
///
/// # Panics
/// Panics if a side does not divide the space's cross-section extents.
pub fn strong_scaling(
    exp: &Experiment,
    sides: &[i64],
    ladder_points: usize,
    workers: usize,
) -> Vec<(i64, Optima)> {
    let templates = sides.iter().map(|&side| {
        assert!(
            side > 0 && exp.nx % side == 0 && exp.ny % side == 0,
            "{side}×{side} grid does not divide {}×{}",
            exp.nx,
            exp.ny
        );
        let grid = Experiment {
            pi: side,
            pj: side,
            ..*exp
        };
        (side, grid.config(0, 0, Schedule::Overlap))
    });
    ladder_optima(templates, ladder_points, workers)
}

/// Markdown table of a scaling study: per grid side, each schedule's
/// optimum and its speedup over `serial_us`.
pub fn scaling_markdown(points: &[(i64, Optima)], serial_us: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "| processors | blocking t (s) | speedup | overlap t (s) | speedup | overlap gain |\n|---|---|---|---|---|---|\n",
    );
    for (side, p) in points {
        let _ = writeln!(
            out,
            "| {side}×{side} | {:.4} | {:.1}× | {:.4} | {:.1}× | {:.0}% |",
            p.blocking_us * 1e-6,
            serial_us / p.blocking_us,
            p.overlap_us * 1e-6,
            serial_us / p.overlap_us,
            p.improvement() * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §5 paper machine over an `n × n × nz` space.
    fn space(n: i64, nz: i64) -> Experiment {
        Experiment {
            nx: n,
            ny: n,
            nz,
            ..crate::experiments::paper_experiments()[0]
        }
    }

    #[test]
    fn speedup_grows_with_processors() {
        let pts = strong_scaling(&space(16, 2048), &[1, 2, 4], 8, 2);
        assert_eq!(pts.len(), 3);
        // More processors, less time (for both schedules, at this scale).
        assert!(pts[1].1.overlap_us < pts[0].1.overlap_us);
        assert!(pts[2].1.overlap_us < pts[1].1.overlap_us);
        assert!(pts[2].1.blocking_us < pts[0].1.blocking_us);
    }

    #[test]
    fn single_processor_near_serial() {
        // On a 1×1 grid there is no communication at all: both
        // schedules equal the serial time.
        let exp = space(8, 512);
        let pts = strong_scaling(&exp, &[1], 4, 1);
        let serial = serial_time_us(&exp, &MachineParams::paper_cluster());
        assert!((pts[0].1.overlap_us - serial).abs() / serial < 0.01);
        assert!((pts[0].1.blocking_us - serial).abs() / serial < 0.01);
    }

    #[test]
    fn overlap_scales_at_least_as_well() {
        let pts = strong_scaling(&space(16, 2048), &[2, 4], 8, 2);
        for p in &pts[1..] {
            assert!(p.1.overlap_us <= p.1.blocking_us, "{p:?}");
        }
    }

    #[test]
    fn markdown_renders() {
        let p = Optima {
            blocking_us: 2e6,
            blocking_v: 64,
            overlap_us: 1.5e6,
            overlap_v: 32,
        };
        let md = scaling_markdown(&[(4, p)], 16e6);
        assert!(md.contains("4×4"));
        assert!(md.contains("8.0×")); // blocking speedup
        assert!(md.contains("10.7×")); // overlap speedup
    }
}
