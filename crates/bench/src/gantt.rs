//! Regenerating Fig. 1 and Fig. 2: the time-step structure of the two
//! schedules on a small processor pipeline, rendered as ASCII Gantt
//! charts from actual simulator traces.
//!
//! The paper's figures show six processors executing a 1-D tile
//! pipeline: in the non-overlapping schedule every step is a serialized
//! *receive → compute → send* triplet (stripes of distinct phases); in
//! the overlapping schedule the CPU rows are nearly solid computation
//! with communication pushed to the DMA lanes.
//!
//! The same charts can also be rendered from **real execution**: every
//! rank of a thread-backend run logs its phases with their wall-clock
//! spans, and the logs become one trace in the simulator's format
//! ([`thread_figure`]), so a measured run draws through the exact same
//! Gantt/SVG paths as a simulated one.

use cluster_sim::builders::ClusterProblem;
use cluster_sim::engine::{simulate, SimConfig, SimResult};
use cluster_sim::trace::Trace;
use msgpass::comm::Communicator;
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use std::time::Duration;
use stencil::dist3d::{Decomp3D, ExecMode};
use stencil::engine::{to_trace, PhaseLog};
use stencil::kernel::Paper3D;
use stencil::plan::{run3d_observed_with, Compiled3D};
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::MachineParams;
use tiling_core::space::IterationSpace;
use tiling_core::tiling::Tiling;

/// The demo pipeline: `procs` processors, `steps` tiles each, tile side
/// `tile` on a 2-D space with unit dependences, mapped along dimension 1.
///
/// # Panics
/// If an extent is not positive.
#[allow(clippy::expect_used)] // LINT: a demo of positive extents, fixed by its callers
pub fn demo_problem(procs: i64, steps: i64, tile: i64) -> ClusterProblem {
    ClusterProblem::new(
        Tiling::rectangular(&[tile, tile]),
        DependenceSet::units(2),
        IterationSpace::from_extents(&[procs * tile, steps * tile]),
        1,
    )
    .expect("demo layout is valid")
}

/// Simulate the non-overlapping (Fig. 1) schedule with traces.
///
/// # Panics
/// As [`demo_problem`]; the emitted pipeline is deadlock-free.
#[allow(clippy::expect_used)] // LINT: the demo pipeline is deadlock-free (the gantt tests run it)
pub fn fig1_simulation(machine: &MachineParams, procs: i64, steps: i64, tile: i64) -> SimResult {
    let p = demo_problem(procs, steps, tile);
    simulate(SimConfig::new(*machine), p.blocking_programs(machine)).expect("fig1 deadlock-free")
}

/// Simulate the overlapping (Fig. 2) schedule with traces.
///
/// # Panics
/// As [`demo_problem`]; the emitted pipeline is deadlock-free.
#[allow(clippy::expect_used)] // LINT: the demo pipeline is deadlock-free (the gantt tests run it)
pub fn fig2_simulation(machine: &MachineParams, procs: i64, steps: i64, tile: i64) -> SimResult {
    let p = demo_problem(procs, steps, tile);
    simulate(SimConfig::new(*machine), p.overlapping_programs(machine)).expect("fig2 deadlock-free")
}

/// Render both figures side by side (returns the combined text).
pub fn render_figures(machine: &MachineParams, procs: i64, steps: i64, tile: i64) -> String {
    let fig1 = fig1_simulation(machine, procs, steps, tile);
    let fig2 = fig2_simulation(machine, procs, steps, tile);
    let ranks: Vec<usize> = (0..procs as usize).collect();
    let width = 100;
    let horizon = fig1.makespan.max(fig2.makespan);
    let mut out = String::new();
    out += "Fig. 1 — non-overlapping schedule (R = blocking recv copy, #: compute, S: blocking send):\n";
    out += &fig1.trace.gantt(&ranks, horizon, width);
    out += &format!("makespan: {}\n\n", fig1.makespan);
    out += "Fig. 2 — overlapping schedule (r/s: post Irecv/Isend, #: compute, .: idle):\n";
    out += &fig2.trace.gantt(&ranks, horizon, width);
    out += &format!("makespan: {}\n", fig2.makespan);
    out
}

/// A real-execution figure: the wall-clock trace of a thread-backend
/// run, in the same interval format as a [`SimResult`] trace, and the
/// wall-clock time of its parallel region.
pub type ThreadFigure = (Trace, Duration);

/// The default scaled-down workload for real-execution figures: a 2×2
/// processor grid over a deep-enough pipeline that the schedule
/// structure (fill, steady state, drain) is visible at terminal width.
pub fn thread_demo_decomp() -> Decomp3D {
    Decomp3D {
        nx: 8,
        ny: 8,
        nz: 1024,
        pi: 2,
        pj: 2,
        v: 128,
        boundary: 1.0,
    }
}

/// Run the paper's 3-D kernel for real on the thread backend and return
/// its figure: every rank logs its phases against the world epoch, and
/// the logs become one [`Trace`] renderable by the same Gantt/SVG paths
/// as the simulator's.
///
/// # Panics
/// If `d` does not compile or the run fails (a demo layout on a
/// fault-free world does neither).
#[allow(clippy::expect_used)] // LINT: the demo layout is valid and its world fault-free
pub fn thread_figure(d: Decomp3D, latency: LatencyModel, mode: ExecMode) -> ThreadFigure {
    let plan = Compiled3D::compile(d, mode).expect("valid demo decomposition");
    let (_, elapsed, logs, _) =
        run3d_observed_with(Paper3D, &plan, &WorldConfig::new(latency), |comm| {
            PhaseLog::new(comm.rank(), comm.epoch())
        })
        .expect("demo run completes");
    (to_trace(&logs, None), elapsed)
}

/// Render the Fig. 1 / Fig. 2 pair from the **measured** runs of the
/// two schedules on `ranks`: same glyphs, same renderer, wall-clock data.
/// Each chart spans its own run, whose horizon it prints: the
/// overlapping run can be several times shorter, and drawn on the
/// blocking one's horizon it would fill a few columns.
pub fn render_thread_figures(ranks: &[usize], fig1: &ThreadFigure, fig2: &ThreadFigure) -> String {
    let chart = |(trace, wall): &ThreadFigure| {
        let horizon = trace.horizon();
        let chart = trace.gantt(ranks, horizon, 100);
        format!(
            "{chart}horizon: {horizon}, wall time: {:.3} s\n",
            wall.as_secs_f64()
        )
    };
    let mut out = String::new();
    out += "Fig. 1 (measured) — blocking executor on the thread backend (R: blocking recv, #: compute, S: blocking send):\n";
    out += &chart(fig1);
    out += "\nFig. 2 (measured) — overlapping executor (r/s: post Irecv/Isend + face copies, #: compute, .: request wait):\n";
    out += &chart(fig2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineParams {
        MachineParams::example_1()
    }

    #[test]
    fn fig1_structure_has_triplets() {
        let res = fig1_simulation(&machine(), 4, 6, 10);
        // Rank 1 must show blocking recv, compute and blocking send.
        use cluster_sim::trace::Activity;
        let acts: std::collections::HashSet<_> = res
            .trace
            .for_rank(1)
            .map(|iv| format!("{:?}", iv.activity))
            .collect();
        assert!(acts.contains("BlockingRecv"), "{acts:?}");
        assert!(acts.contains("Compute"));
        assert!(acts.contains("BlockingSend"));
        let _ = Activity::Compute;
    }

    #[test]
    fn fig2_is_faster_than_fig1_at_proper_grain() {
        // Tile big enough that compute dominates the posting costs, and
        // a pipeline deep enough (steps ≫ processors) that the overlap
        // schedule's extra hyperplanes are amortized — the paper's
        // regime (e.g. 37 k-tiles across a 4×4 grid).
        let res1 = fig1_simulation(&machine(), 4, 24, 32);
        let res2 = fig2_simulation(&machine(), 4, 24, 32);
        assert!(
            res2.makespan < res1.makespan,
            "overlap {} vs blocking {}",
            res2.makespan,
            res1.makespan
        );
    }

    #[test]
    fn fig2_cpu_activity_is_mostly_compute() {
        let res = fig2_simulation(&machine(), 4, 6, 32);
        // For a middle rank, compute time dominates CPU busy time.
        let busy = res.trace.cpu_busy(2).as_us();
        let comp = res.trace.compute_time(2).as_us();
        assert!(comp / busy > 0.6, "compute fraction {}", comp / busy);
    }

    #[test]
    fn render_produces_both_charts() {
        let text = render_figures(&machine(), 4, 5, 12);
        assert!(text.contains("Fig. 1"));
        assert!(text.contains("Fig. 2"));
        assert!(text.matches("makespan").count() == 2);
        assert!(text.contains('#'));
    }

    #[test]
    fn thread_backend_figures_render_through_same_path() {
        // Small real run: the measured trace must carry per-rank Compute
        // intervals and render through the simulator's Gantt renderer.
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz: 64,
            pi: 2,
            pj: 2,
            v: 16,
            boundary: 1.0,
        };
        let run = |mode| thread_figure(d, LatencyModel::zero(), mode);
        let (fig1, fig2) = (run(ExecMode::Blocking), run(ExecMode::Overlapping));
        let text = render_thread_figures(&[0, 1, 2, 3], &fig1, &fig2);
        assert!(text.contains("Fig. 1 (measured)"));
        assert!(text.contains("Fig. 2 (measured)"));
        assert!(text.contains('#'));
        use cluster_sim::trace::Activity;
        for rank in 0..4 {
            assert!(
                (fig2.0.for_rank(rank)).any(|iv| iv.activity == Activity::Compute),
                "rank {rank} has no compute intervals"
            );
        }
        assert!(fig2.0.horizon() > cluster_sim::time::SimTime::ZERO);
    }

    /// The overlapping run is far shorter than the blocking one on a
    /// wire: drawn on its own horizon, its chart has compute past its
    /// first tenth (on the blocking run's horizon it filled ~7 of 100
    /// columns).
    #[test]
    fn each_measured_chart_spans_its_own_run() {
        let d = thread_demo_decomp();
        let lat = LatencyModel {
            startup_us: 300.0,
            per_byte_us: 0.05,
        };
        let run = |mode| thread_figure(d, lat, mode);
        let (fig1, fig2) = (run(ExecMode::Blocking), run(ExecMode::Overlapping));
        let text = render_thread_figures(&[0, 1, 2, 3], &fig1, &fig2);
        let (_, fig2_text) = text.split_once("Fig. 2").expect("both charts");
        let rows = fig2_text.lines().filter(|l| l.starts_with('P'));
        let late = |row: &str| {
            row.split('|')
                .nth(1)
                .is_some_and(|r| r.chars().skip(10).any(|c| c == '#'))
        };
        assert!(
            rows.clone().count() == 4 && rows.clone().any(late),
            "{fig2_text}"
        );
        assert_eq!(text.matches("horizon: ").count(), 2);
    }

    #[test]
    fn pipeline_stagger_visible_in_start_times() {
        // Later ranks start computing later (pipeline fill).
        let res = fig2_simulation(&machine(), 4, 6, 16);
        use cluster_sim::trace::Activity;
        let first_compute = |rank: usize| {
            res.trace
                .for_rank(rank)
                .find(|iv| iv.activity == Activity::Compute)
                .map(|iv| iv.start)
                .expect("every rank computes")
        };
        assert!(first_compute(0) < first_compute(1));
        assert!(first_compute(1) < first_compute(2));
        assert!(first_compute(2) < first_compute(3));
    }
}
