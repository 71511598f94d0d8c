//! The paper's three experiments (§5) and the machinery that regenerates
//! every figure and table from the simulated cluster.
//!
//! | experiment | space (i×j×k) | processor grid | tile cross-section |
//! |---|---|---|---|
//! | i   | 16×16×16384 | 4×4 | 4×4 |
//! | ii  | 16×16×32768 | 4×4 | 4×4 |
//! | iii | 32×32×4096  | 4×4 | 8×8 |
//!
//! The table itself is `sweep::config`'s. For every tile height `V` of a
//! ladder the harness runs both complete MPI programs (blocking `ProcB`,
//! overlapping `ProcNB`) through the discrete-event cluster simulator —
//! one [`run_sweep`] batch — exactly like the authors ran theirs on the
//! Pentium cluster, and finds `V_optimal` per schedule ([`optima`]).

pub use sweep::config::{paper_experiments, Experiment};
use sweep::config::{Schedule, SweepConfig};
use sweep::run::{best, run_sweep, SweepRow};
use tiling_core::dependence::DependenceSet;
use tiling_core::optimize::height_ladder;
use tiling_core::schedule::{OverlapMode, StepStrategy, TileSchedule};
use tiling_core::space::IterationSpace;
use tiling_core::tiling::Tiling;

/// One simulated sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSweepPoint {
    /// Tile height.
    pub v: i64,
    /// Tile volume `g = bx·by·V`.
    pub g: i64,
    /// Simulated blocking (non-overlapping) completion time, µs.
    pub blocking_us: f64,
    /// Simulated overlapping completion time, µs.
    pub overlap_us: f64,
}

/// Each schedule's optimum over a V ladder: the first of its minimum
/// simulated makespans and the tile height it was reached at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Optima {
    /// Best blocking time (µs).
    pub blocking_us: f64,
    /// V at the blocking optimum.
    pub blocking_v: i64,
    /// Best overlapping time (µs).
    pub overlap_us: f64,
    /// V at the overlapping optimum.
    pub overlap_v: i64,
}

impl Optima {
    /// `1 − overlap/blocking` at the respective optima.
    pub fn improvement(&self) -> f64 {
        1.0 - self.overlap_us / self.blocking_us
    }
}

/// Simulate `configs` as one sweep batch on `workers` threads; rows in
/// config order.
///
/// # Panics
/// If a point does not build or simulate: every study point is a valid
/// paper layout.
pub fn run_points(configs: &[SweepConfig], workers: usize) -> Vec<SweepRow> {
    let rows = run_sweep(configs, workers).rows;
    for r in &rows {
        assert!(
            r.metrics.is_some(),
            "{} at V = {}: {}",
            r.status.name(),
            r.config.v,
            r.detail
        );
    }
    rows
}

/// A row's simulated makespan (µs).
pub fn makespan_us(row: &SweepRow) -> f64 {
    row.metrics.map_or(f64::NAN, |m| m.makespan_us)
}

/// `template` under both schedules at every height of `heights`, as one
/// batch: rows in height order, blocking before overlap.
pub fn run_ladder(template: &SweepConfig, heights: &[i64], workers: usize) -> Vec<SweepRow> {
    let configs: Vec<SweepConfig> = (heights.iter())
        .flat_map(|&v| [Schedule::Blocking, Schedule::Overlap].map(|schedule| (v, schedule)))
        .enumerate()
        .map(|(id, (v, schedule))| SweepConfig {
            id,
            v,
            schedule,
            ..template.clone()
        })
        .collect();
    run_points(&configs, workers)
}

/// Each schedule's optimum over a ladder's rows.
///
/// # Panics
/// If a schedule has no simulated row.
#[allow(clippy::expect_used)] // LINT: every ladder simulates both schedules
pub fn optima(rows: &[SweepRow]) -> Optima {
    let (blocking_us, blocking_v) = best(rows, Schedule::Blocking).expect("a blocking row");
    let (overlap_us, overlap_v) = best(rows, Schedule::Overlap).expect("an overlap row");
    Optima {
        blocking_us,
        blocking_v,
        overlap_us,
        overlap_v,
    }
}

/// Each labelled template's [`optima`] over a geometric ladder of
/// `ladder_points` heights from 4 to a quarter of its pipelined extent.
pub fn ladder_optima<L>(
    templates: impl IntoIterator<Item = (L, SweepConfig)>,
    ladder_points: usize,
    workers: usize,
) -> Vec<(L, Optima)> {
    (templates.into_iter())
        .map(|(label, t)| {
            let heights = height_ladder(4, t.extents[2] / 4, ladder_points);
            (label, optima(&run_ladder(&t, &heights, workers)))
        })
        .collect()
}

/// A ladder's rows ([`run_ladder`]) as one figure point per height.
pub fn figure_points(rows: &[SweepRow]) -> Vec<SimSweepPoint> {
    (rows.chunks_exact(2))
        .map(|pair| {
            let c = &pair[0].config;
            SimSweepPoint {
                v: c.v,
                g: c.cross_sides[0] * c.cross_sides[1] * c.v,
                blocking_us: makespan_us(&pair[0]),
                overlap_us: makespan_us(&pair[1]),
            }
        })
        .collect()
}

/// The tile heights swept for an experiment's figure: a geometric ladder
/// from 4 to `nz/4` (the paper's range) plus the paper's measured
/// optimum for direct comparison.
pub fn figure_heights(exp: &Experiment) -> Vec<i64> {
    let mut hs = height_ladder(4, exp.nz / 4, 32);
    if !hs.contains(&exp.paper_v_optimal) {
        hs.push(exp.paper_v_optimal);
        hs.sort_unstable();
    }
    hs
}

/// One row of the Fig. 12 table, paper vs. reproduction.
#[derive(Clone, Debug)]
pub struct Table12Row {
    /// Which experiment.
    pub exp: Experiment,
    /// Simulated optimal tile height (overlap schedule).
    pub v_optimal: i64,
    /// `g = bx·by·V_optimal`.
    pub g_optimal: i64,
    /// Simulated optimal overlapping completion time (s).
    pub t_overlap_s: f64,
    /// Model `T_fill_MPI_buffer` at the optimal packet size (ms).
    pub fill_ms: f64,
    /// Overlap schedule length `P(g)` at `V_optimal` (exact UET-UCT).
    pub planes: i64,
    /// Theoretical overlap time from eq. (5) at `V_optimal` (s).
    pub t_theory_s: f64,
    /// |theory − simulated| / simulated.
    pub theory_diff: f64,
    /// Simulated optimal non-overlapping completion time (s).
    pub t_nonoverlap_s: f64,
    /// 1 − overlap/non-overlap.
    pub improvement: f64,
}

/// Compute a Fig. 12 row by sweeping the simulator over the figure's
/// ladder and evaluating the analytic model at the simulated optimum.
pub fn table12_row(exp: &Experiment, workers: usize) -> Table12Row {
    let template = exp.config(0, 0, Schedule::Overlap);
    let machine = template.preset.params();
    let best = optima(&run_ladder(&template, &figure_heights(exp), workers));
    let v = best.overlap_v;
    let tiling = Tiling::rectangular(&[exp.bx(), exp.by(), v]);
    let theory = TileSchedule::with_mapping(StepStrategy::Overlap, 3, 2).analyze(
        &tiling,
        &DependenceSet::paper_3d(),
        &IterationSpace::from_extents(&template.extents),
        &machine,
        OverlapMode::Serialized,
    );
    let t_ov = best.overlap_us * 1e-6;
    let t_th = theory.total_us * 1e-6;
    Table12Row {
        exp: *exp,
        v_optimal: v,
        g_optimal: exp.bx() * exp.by() * v,
        t_overlap_s: t_ov,
        fill_ms: machine.fill_mpi_buffer.eval(exp.message_bytes(v)) / 1e3,
        planes: theory.schedule_length,
        t_theory_s: t_th,
        theory_diff: (t_th - t_ov).abs() / t_ov,
        t_nonoverlap_s: best.blocking_us * 1e-6,
        improvement: 1.0 - t_ov / (best.blocking_us * 1e-6),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A scaled-down experiment keeps debug-mode tests fast.
    pub(crate) fn mini(nz: i64) -> Experiment {
        Experiment {
            name: "mini",
            nx: 8,
            ny: 8,
            nz,
            pi: 2,
            pj: 2,
            ..paper_experiments()[0]
        }
    }

    #[test]
    fn experiment_cross_sections() {
        let [i, ii, iii] = paper_experiments();
        assert_eq!((i.bx(), i.by()), (4, 4));
        assert_eq!((ii.bx(), ii.by()), (4, 4));
        assert_eq!((iii.bx(), iii.by()), (8, 8));
        // Packet sizes of Fig. 12: 7104, 8608, 5248 bytes.
        assert_eq!(i.message_bytes(444), 7104.0);
        assert_eq!(ii.message_bytes(538), 8608.0);
        assert_eq!(iii.message_bytes(164), 5248.0);
    }

    #[test]
    fn figure_heights_include_paper_optimum() {
        for exp in paper_experiments() {
            let hs = figure_heights(&exp);
            assert!(hs.contains(&exp.paper_v_optimal), "{}", exp.name);
            assert!(hs.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(*hs.first().unwrap(), 4);
            assert_eq!(*hs.last().unwrap(), exp.nz / 4);
        }
    }

    #[test]
    fn simulate_point_small_scale() {
        let exp = mini(256);
        let rows = run_ladder(&exp.config(0, 0, Schedule::Overlap), &[32], 2);
        let [p] = figure_points(&rows)[..] else {
            panic!("one height, one point: {rows:?}")
        };
        assert!(p.overlap_us > 0.0 && p.blocking_us > 0.0);
        assert!(p.overlap_us < p.blocking_us, "{p:?}");
        assert_eq!(p.g, 4 * 4 * 32);
    }

    #[test]
    fn sweep_is_u_shaped_mini() {
        let exp = mini(512);
        let rows = run_ladder(&exp.config(0, 0, Schedule::Overlap), &[2, 8, 32, 128], 2);
        let best = optima(&rows);
        assert!(best.overlap_v > 2, "optimum should not be the finest grain");
        // The worker count does not change a row.
        let one = run_ladder(&exp.config(0, 0, Schedule::Overlap), &[2, 8, 32, 128], 1);
        assert_eq!(figure_points(&one), figure_points(&rows));
    }
}
