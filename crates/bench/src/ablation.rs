//! Regenerating Fig. 3 / Fig. 4: how much each level of overlapping
//! buys, as an ablation over execution styles on the same problem.
//!
//! * level (a): no overlap at all — blocking primitives (Fig. 3a);
//! * level (b): DMA overlap — non-blocking primitives, half-duplex NIC
//!   (the `B₁+B₂+B₃+B₄` serialized lane of Fig. 4b);
//! * level (c): DMA + duplex — non-blocking with independent send and
//!   receive channels (Fig. 3c).

use crate::experiments::{makespan_us, optima, run_ladder, run_points, Experiment, Optima};
use cluster_sim::engine::NetworkTopology;
use sweep::config::{Schedule, SweepConfig};

/// The three overlap levels of Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OverlapLevel {
    /// Fig. 3a: blocking send/receive, no overlap.
    None,
    /// Fig. 3b: non-blocking with a shared (half-duplex) NIC/DMA lane.
    Dma,
    /// Fig. 3c: non-blocking with duplex DMA channels.
    DuplexDma,
}

impl OverlapLevel {
    /// All levels in presentation order.
    pub fn all() -> [OverlapLevel; 3] {
        [
            OverlapLevel::None,
            OverlapLevel::Dma,
            OverlapLevel::DuplexDma,
        ]
    }

    /// The schedule the level runs: blocking for (a), overlap otherwise.
    pub fn schedule(self) -> Schedule {
        match self {
            OverlapLevel::None => Schedule::Blocking,
            _ => Schedule::Overlap,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            OverlapLevel::None => "no overlap (Fig. 3a)",
            OverlapLevel::Dma => "DMA overlap (Fig. 3b)",
            OverlapLevel::DuplexDma => "DMA + duplex (Fig. 3c)",
        }
    }
}

/// Run the ablation for one experiment at a fixed tile height: each
/// level's simulated completion time (µs).
pub fn run_ablation(exp: &Experiment, v: i64, workers: usize) -> Vec<(OverlapLevel, f64)> {
    let levels = OverlapLevel::all();
    let configs: Vec<SweepConfig> = (levels.iter().enumerate())
        .map(|(id, &level)| SweepConfig {
            duplex: level == OverlapLevel::DuplexDma,
            ..exp.config(id, v, level.schedule())
        })
        .collect();
    let rows = run_points(&configs, workers);
    levels
        .into_iter()
        .zip(rows.iter().map(makespan_us))
        .collect()
}

/// Beyond the paper: the same experiment on a switched network vs a
/// late-90s shared-medium hub, where every transmission in the cluster
/// serializes. The overlap schedule hides even the extra contention as
/// long as the CPU lane still dominates. Each topology's "optima" are
/// its two schedules at `v`.
pub fn run_topology_study(
    exp: &Experiment,
    v: i64,
    workers: usize,
) -> Vec<(NetworkTopology, Optima)> {
    [NetworkTopology::Switched, NetworkTopology::SharedBus]
        .into_iter()
        .map(|topology| {
            let template = SweepConfig {
                shared_bus: topology == NetworkTopology::SharedBus,
                ..exp.config(0, v, Schedule::Overlap)
            };
            (topology, optima(&run_ladder(&template, &[v], workers)))
        })
        .collect()
}

/// Markdown for the topology study.
pub fn topology_markdown(points: &[(NetworkTopology, Optima)]) -> String {
    let mut out =
        String::from("| network | blocking (s) | overlap (s) | improvement |\n|---|---|---|---|\n");
    for (topology, p) in points {
        out += &format!(
            "| {:?} | {:.4} | {:.4} | {:.0}% |\n",
            topology,
            p.blocking_us * 1e-6,
            p.overlap_us * 1e-6,
            p.improvement() * 100.0
        );
    }
    out
}

/// Markdown table of an ablation.
pub fn ablation_markdown(points: &[(OverlapLevel, f64)]) -> String {
    let mut out =
        String::from("| overlap level | completion time (s) | vs no overlap |\n|---|---|---|\n");
    let base = (points
        .iter()
        .find(|(level, _)| *level == OverlapLevel::None))
    .map_or(f64::NAN, |&(_, us)| us);
    for (level, us) in points {
        out += &format!(
            "| {} | {:.4} | {:+.1}% |\n",
            level.label(),
            us * 1e-6,
            (us / base - 1.0) * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::mini;

    #[test]
    fn overlap_levels_ordered() {
        let pts = run_ablation(&mini(512), 64, 2);
        assert_eq!(pts.len(), 3);
        let by_level = |l: OverlapLevel| pts.iter().find(|p| p.0 == l).unwrap().1;
        // Non-blocking beats blocking; duplex never loses to half-duplex.
        assert!(by_level(OverlapLevel::Dma) < by_level(OverlapLevel::None));
        assert!(by_level(OverlapLevel::DuplexDma) <= by_level(OverlapLevel::Dma) * 1.0001);
    }

    #[test]
    fn shared_bus_never_faster() {
        let pts = run_topology_study(&mini(512), 64, 2);
        assert_eq!(pts.len(), 2);
        let sw = &pts[0].1;
        let bus = &pts[1].1;
        assert!(bus.blocking_us >= sw.blocking_us);
        assert!(bus.overlap_us >= sw.overlap_us);
        let md = topology_markdown(&pts);
        assert!(md.contains("SharedBus"));
    }

    #[test]
    fn markdown_contains_rows() {
        let pts = run_ablation(&mini(512), 32, 1);
        let md = ablation_markdown(&pts);
        assert!(md.contains("Fig. 3a"));
        assert!(md.contains("Fig. 3b"));
        assert!(md.contains("Fig. 3c"));
        assert!(md.contains("+0.0%"));
    }
}
