//! The measuring backend: a candidate's makespan under the
//! deterministic cluster simulator.
//!
//! [`SimBackend`] models what the closed form cannot — heterogeneous
//! [`NodeSpeeds`](tiling_core::machine::NodeSpeeds), measured transfer
//! curves, partial last tiles — and is bit-reproducible, so the ≥ 5 %
//! wins of `paper tune`'s acceptance rows are stable assertions, not a
//! race against wall-clock noise.

use crate::candidates::{Candidate, Schedule, TuneProblem};
use cluster_sim::builders::ClusterProblem;
use cluster_sim::engine::{simulate_heterogeneous, NetworkTopology, SimConfig};
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::MachineParams;
use tiling_core::tiling::Tiling;

/// Deterministic measurement under the cluster simulator.
pub struct SimBackend {
    /// The workload being tuned.
    pub problem: TuneProblem,
    /// Machine model (may carry a measured transfer curve).
    pub machine: MachineParams,
    /// Schedule the programs are built for.
    pub schedule: Schedule,
    /// Full- vs half-duplex NICs.
    pub duplex: bool,
    /// Shared-bus vs switched topology.
    pub shared_bus: bool,
    /// Seed of the per-rank speed factors.
    pub hetero_seed: u64,
    /// Spread of the per-rank speed factors (0 = homogeneous).
    pub hetero_spread: f64,
}

impl SimBackend {
    /// Simulated makespan of one full run of the candidate (µs). `Err`
    /// when the candidate cannot be built, e.g. a height too small to
    /// contain a dependence component.
    pub fn measure_us(&self, c: &Candidate) -> Result<f64, String> {
        let sides = [
            (self.problem.nx / c.pi) as i64,
            (self.problem.ny / c.pj) as i64,
            c.v as i64,
        ];
        let problem = ClusterProblem::new(
            Tiling::rectangular(&sides),
            DependenceSet::paper_3d(),
            self.problem.space(),
            2,
        )
        .map_err(|e| e.to_string())?;
        let programs = problem.programs(self.schedule, &self.machine);
        let topology = if self.shared_bus {
            NetworkTopology::SharedBus
        } else {
            NetworkTopology::Switched
        };
        // Only the makespan is read: no interval trace.
        let cfg = SimConfig::new(self.machine)
            .with_duplex(self.duplex)
            .with_topology(topology)
            .with_trace(false);
        let speeds = problem.node_speeds(self.hetero_seed, self.hetero_spread);
        let result = simulate_heterogeneous(cfg, programs, speeds).map_err(|e| e.to_string())?;
        if result.finish.is_empty() {
            return Err("zero-rank fleet".into());
        }
        Ok(result.makespan.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SimBackend {
        SimBackend {
            problem: TuneProblem {
                nx: 8,
                ny: 8,
                nz: 512,
                pi: 2,
                pj: 2,
            },
            machine: MachineParams::paper_cluster(),
            schedule: Schedule::Overlap,
            duplex: true,
            shared_bus: false,
            hetero_seed: 7,
            hetero_spread: 0.0,
        }
    }

    fn cand(v: usize) -> Candidate {
        Candidate { v, pi: 2, pj: 2 }
    }

    #[test]
    fn sim_backend_is_deterministic_and_finite() {
        let b = sim();
        let a = b.measure_us(&cand(64)).unwrap();
        let again = b.measure_us(&cand(64)).unwrap();
        assert_eq!(a, again);
        assert!(a.is_finite() && a > 0.0);
    }

    #[test]
    fn sim_backend_sees_the_height_tradeoff() {
        let b = sim();
        // Extreme heights are worse than a moderate one (the U-shape
        // the tuner descends). V=1 cannot contain the paper's unit
        // dependence along the mapping dimension — the backend refuses
        // it, which the tuner records as infeasible.
        assert!(b.measure_us(&cand(1)).is_err());
        let tiny = b.measure_us(&cand(2)).unwrap();
        let mid = b.measure_us(&cand(64)).unwrap();
        let huge = b.measure_us(&cand(512)).unwrap();
        assert!(mid < tiny, "{mid} !< {tiny}");
        assert!(mid < huge, "{mid} !< {huge}");
    }
}
