//! Utilization statistics of a simulation run.
//!
//! §4 of the paper claims the overlapping schedule yields "theoretically
//! 100% processor utilization" — successive computations back to back,
//! with communication hidden on the DMA lanes. This module quantifies
//! that: per-rank busy/idle breakdowns and fleet summaries.
//!
//! The numbers come from [`CpuTotals`], which the engine accumulates
//! interval by interval as it records them — not from the trace — so
//! they are the same bits whether or not the run kept its trace
//! (`SimConfig::with_trace(false)`), and cost nothing to read.

use crate::engine::SimResult;
use crate::program::Rank;
use crate::time::SimTime;
use crate::trace::Activity;

/// CPU time of one rank by activity class (µs): the running sums the
/// engine keeps while it executes, one `+=` per recorded CPU interval
/// in recording order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTotals {
    /// Pure tile computation.
    pub compute_us: f64,
    /// Non-blocking posting costs `A₁ + A₃`.
    pub post_us: f64,
    /// Blocking send/receive CPU time.
    pub blocking_comm_us: f64,
    /// Idle (waiting) time.
    pub idle_us: f64,
}

impl CpuTotals {
    /// Account `us` microseconds of `activity`. NIC-lane activities are
    /// not CPU time and are ignored.
    pub fn add(&mut self, activity: Activity, us: f64) {
        match activity {
            Activity::Compute => self.compute_us += us,
            Activity::PostSend | Activity::PostRecv => self.post_us += us,
            Activity::BlockingSend | Activity::BlockingRecv => self.blocking_comm_us += us,
            Activity::Idle | Activity::Stall => self.idle_us += us,
            Activity::TxBusy | Activity::RxBusy => {}
        }
    }

    /// CPU-busy time: everything but idling.
    pub fn busy_us(&self) -> f64 {
        self.compute_us + self.post_us + self.blocking_comm_us
    }
}

/// Per-rank activity breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankStats {
    /// The rank.
    pub rank: Rank,
    /// Pure tile computation (µs).
    pub compute_us: f64,
    /// Non-blocking posting costs `A₁ + A₃` (µs).
    pub post_us: f64,
    /// Blocking send/receive CPU time (µs).
    pub blocking_comm_us: f64,
    /// Recorded idle (waiting) time (µs).
    pub idle_us: f64,
    /// Completion time of the rank's program (µs).
    pub finish_us: f64,
    /// CPU busy fraction of the rank's own finish time.
    pub utilization: f64,
    /// Fraction of CPU-busy time spent computing (vs copying buffers).
    pub compute_fraction: f64,
}

/// Per-rank statistics of a simulation result (traced or not).
pub fn rank_stats(result: &SimResult) -> Vec<RankStats> {
    result
        .cpu_totals
        .iter()
        .zip(&result.finish)
        .enumerate()
        .map(|(rank, (t, finish))| {
            let finish = finish.as_us();
            let busy = t.busy_us();
            RankStats {
                rank,
                compute_us: t.compute_us,
                post_us: t.post_us,
                blocking_comm_us: t.blocking_comm_us,
                idle_us: t.idle_us,
                finish_us: finish,
                utilization: if finish > 0.0 { busy / finish } else { 0.0 },
                compute_fraction: if busy > 0.0 { t.compute_us / busy } else { 0.0 },
            }
        })
        .collect()
}

/// Fleet-level summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Mean per-rank CPU utilization.
    pub mean_utilization: f64,
    /// Minimum per-rank CPU utilization.
    pub min_utilization: f64,
    /// Maximum per-rank CPU utilization.
    pub max_utilization: f64,
    /// Mean fraction of busy time spent computing.
    pub mean_compute_fraction: f64,
    /// Makespan (µs).
    pub makespan_us: f64,
}

/// Summarize a full result; `None` for a zero-rank result.
///
/// This used to `assert!` on empty input, which aborted whole sweep
/// batches when a degenerate config produced no ranks. An absent
/// summary is data, not a crash.
pub fn summarize(result: &SimResult) -> Option<Summary> {
    let stats = rank_stats(result);
    if stats.is_empty() {
        return None;
    }
    let n = stats.len() as f64;
    Some(Summary {
        mean_utilization: stats.iter().map(|s| s.utilization).sum::<f64>() / n,
        min_utilization: stats
            .iter()
            .map(|s| s.utilization)
            .fold(f64::INFINITY, f64::min),
        max_utilization: stats.iter().map(|s| s.utilization).fold(0.0, f64::max),
        mean_compute_fraction: stats.iter().map(|s| s.compute_fraction).sum::<f64>() / n,
        makespan_us: result.makespan.as_us(),
    })
}

/// `summarize` of a result with no ranks is `None`, not a panic.
#[cfg(test)]
mod empty_tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn empty_result_summarizes_to_none() {
        let empty = SimResult {
            finish: Vec::new(),
            makespan: SimTime::ZERO,
            cpu_totals: Vec::new(),
            trace: Trace::disabled(),
        };
        assert_eq!(summarize(&empty), None);
    }
}

/// Markdown table of per-rank statistics.
pub fn stats_markdown(stats: &[RankStats]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "| rank | compute (ms) | posts (ms) | blocking comm (ms) | idle (ms) | utilization | compute share |\n|---|---|---|---|---|---|---|\n",
    );
    for s in stats {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.0}% | {:.0}% |",
            s.rank,
            s.compute_us / 1e3,
            s.post_us / 1e3,
            s.blocking_comm_us / 1e3,
            s.idle_us / 1e3,
            s.utilization * 100.0,
            s.compute_fraction * 100.0
        );
    }
    out
}

/// Convenience: the horizon for utilization comparisons (makespan).
pub fn horizon(result: &SimResult) -> SimTime {
    result.makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ClusterProblem;
    use crate::engine::{simulate, simulate_heterogeneous, SimConfig};
    use tiling_core::machine::{MachineParams, NodeSpeeds};
    use tiling_core::prelude::*;

    fn problem() -> ClusterProblem {
        ClusterProblem::new(
            Tiling::rectangular(&[4, 4, 64]),
            DependenceSet::paper_3d(),
            IterationSpace::from_extents(&[8, 8, 1024]),
            2,
        )
        .unwrap()
    }

    #[test]
    fn overlap_utilization_beats_blocking() {
        // The Fig. 2 claim: the pipelined schedule keeps CPUs busier.
        let machine = MachineParams::paper_cluster();
        let cfg = SimConfig::new(machine);
        let b = simulate(cfg, problem().blocking_programs(&machine)).unwrap();
        let o = simulate(cfg, problem().overlapping_programs(&machine)).unwrap();
        let sb = summarize(&b).expect("non-empty fleet");
        let so = summarize(&o).expect("non-empty fleet");
        // Blocking counts copies as "busy" too, so compare the *compute*
        // fraction of the makespan instead: overlap packs strictly more
        // computation per wall-clock unit.
        let compute_rate_b =
            rank_stats(&b).iter().map(|s| s.compute_us).sum::<f64>() / sb.makespan_us;
        let compute_rate_o =
            rank_stats(&o).iter().map(|s| s.compute_us).sum::<f64>() / so.makespan_us;
        assert!(
            compute_rate_o > compute_rate_b,
            "overlap {compute_rate_o} vs blocking {compute_rate_b}"
        );
        // And the overlap compute share of busy time is near 1 (the
        // posts are small next to the tile computation).
        assert!(so.mean_compute_fraction > 0.5, "{so:?}");
    }

    #[test]
    fn stats_accounting_sums() {
        let machine = MachineParams::paper_cluster();
        let cfg = SimConfig::new(machine);
        let res = simulate(cfg, problem().overlapping_programs(&machine)).unwrap();
        for s in rank_stats(&res) {
            // busy + idle ≤ finish (the gap is time blocked without a
            // recorded idle interval, which deliver() always records, so
            // equality within rounding is expected for this program).
            let busy = s.compute_us + s.post_us + s.blocking_comm_us;
            assert!(busy <= s.finish_us + 1e-6, "{s:?}");
            assert!(s.utilization <= 1.0 + 1e-9);
            assert!((0.0..=1.0 + 1e-9).contains(&s.compute_fraction));
        }
    }

    #[test]
    fn markdown_renders() {
        let machine = MachineParams::paper_cluster();
        let cfg = SimConfig::new(machine);
        let res = simulate(cfg, problem().overlapping_programs(&machine)).unwrap();
        let md = stats_markdown(&rank_stats(&res));
        assert!(md.contains("| rank |"));
        assert!(md.lines().count() >= 3);
    }

    #[test]
    fn summary_bounds() {
        let machine = MachineParams::paper_cluster();
        let cfg = SimConfig::new(machine);
        let res = simulate(cfg, problem().overlapping_programs(&machine)).unwrap();
        let s = summarize(&res).expect("non-empty fleet");
        assert!(s.min_utilization <= s.mean_utilization);
        assert!(s.mean_utilization <= s.max_utilization);
        assert!(s.max_utilization <= 1.0 + 1e-9);
        assert!(s.makespan_us > 0.0);
    }

    /// Every lane/topology/fleet setting of one blocking and one
    /// overlapping run of a shipped problem.
    fn settings(mut check: impl FnMut(SimConfig, Vec<crate::program::Program>, NodeSpeeds)) {
        use crate::engine::NetworkTopology::{SharedBus, Switched};
        let machine = MachineParams::paper_cluster();
        let p = problem();
        for (duplex, topology, spread) in [
            (false, Switched, 0.0),
            (true, Switched, 0.0),
            (false, SharedBus, 0.0),
            (true, Switched, 0.3),
        ] {
            let cfg = SimConfig::new(machine)
                .with_duplex(duplex)
                .with_topology(topology);
            let speeds = p.node_speeds(17, spread);
            check(cfg, p.blocking_programs(&machine), speeds.clone());
            check(cfg, p.overlapping_programs(&machine), speeds);
        }
    }

    #[test]
    fn statistics_do_not_need_the_trace() {
        // Bitwise: the totals are the same additions in the same order
        // whether or not the intervals are also kept.
        settings(|cfg, programs, speeds| {
            let traced = simulate_heterogeneous(cfg, programs.clone(), speeds.clone()).unwrap();
            let bare = simulate_heterogeneous(cfg.with_trace(false), programs, speeds).unwrap();
            assert!(bare.trace.intervals().is_empty());
            assert_eq!(rank_stats(&traced), rank_stats(&bare));
            let (a, b) = (summarize(&traced).unwrap(), summarize(&bare).unwrap());
            assert_eq!(a, b);
            assert!(b.mean_utilization > 0.0 && b.mean_compute_fraction > 0.0);
        });
    }

    #[test]
    fn totals_agree_with_the_trace() {
        // The trace sums integer nanoseconds, the totals sum the same
        // durations as f64 microseconds.
        let close = |us: f64, t: SimTime| (us - t.as_us()).abs() <= 1e-9 * t.as_us().max(1.0);
        settings(|cfg, programs, speeds| {
            let res = simulate_heterogeneous(cfg, programs, speeds).unwrap();
            for s in rank_stats(&res) {
                let busy = s.compute_us + s.post_us + s.blocking_comm_us;
                assert!(close(s.compute_us, res.trace.compute_time(s.rank)), "{s:?}");
                assert!(close(busy, res.trace.cpu_busy(s.rank)), "{s:?}");
            }
        });
    }
}
