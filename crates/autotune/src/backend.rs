//! Measurement backends: where a candidate's makespan comes from.
//!
//! [`ThreadBackend`] runs real calibration executions on the stencil
//! thread backend through compiled [`PlanArtifact`]s, compiling via a
//! shared [`Compiler`] (so repeated probes hit the plan cache) and
//! executing through a shared [`WorldPool`] (so calibration never
//! re-spawns worlds). Its checkpoint probe compiles a *prefix* of the
//! pipeline — the same candidate truncated to a few steps — and
//! extrapolates, which is what lets the tuner abandon slow candidates
//! without paying for a full run.
//!
//! [`SimBackend`] measures under the deterministic cluster simulator
//! instead — the only backend that can model heterogeneous
//! [`NodeSpeeds`](tiling_core::machine::NodeSpeeds) and measured
//! transfer curves, and the one the out-of-model acceptance rows of
//! `paper tune` are produced with (bit-reproducible runs make
//! a ≥5% win a stable CI assertion, not a race against wall-clock
//! noise).

use crate::candidates::{Candidate, Schedule, TuneProblem};
use cluster_sim::builders::ClusterProblem;
use cluster_sim::engine::{simulate_heterogeneous, NetworkTopology, SimConfig};
use msgpass::transport::TransportKind;
use planc::artifact::ExecOptions;
use planc::{Compiler, MachineSpec, PlanRequest, TuneMode, WorldPool};
use stencil::engine::ExecMode;
use tiling_core::dependence::DependenceSet;
use tiling_core::machine::MachineParams;
use tiling_core::tiling::Tiling;

/// Where a candidate's cost is measured.
pub trait MeasureBackend {
    /// Measured makespan of one full run of the candidate (µs).
    fn measure_us(&self, c: &Candidate) -> Result<f64, String>;

    /// Optional cheap probe: an *extrapolated* full-run estimate from a
    /// `checkpoint_steps`-step prefix (µs). `None` when the backend has
    /// no probe cheaper than a full run.
    fn checkpoint_us(&self, c: &Candidate, checkpoint_steps: usize) -> Option<Result<f64, String>> {
        let _ = (c, checkpoint_steps);
        None
    }

    /// Whether repeated measurements are bit-identical (lets the tuner
    /// skip best-of-N repetition and early abandon).
    fn deterministic(&self) -> bool {
        false
    }
}

/// Real thread-backend calibration through compiled plans.
pub struct ThreadBackend<'a> {
    /// The workload being tuned.
    pub problem: TuneProblem,
    /// Machine model the plans are compiled against.
    pub machine: MachineSpec,
    /// Schedule mode of the calibration plans.
    pub mode: ExecMode,
    /// Wire implementation of the calibration plans.
    pub transport: TransportKind,
    /// Shared compiler: repeated probes of one candidate are cache hits.
    pub compiler: &'a Compiler,
    /// Shared warm-world pool: calibration never re-spawns worlds.
    pub pool: &'a WorldPool,
}

impl ThreadBackend<'_> {
    /// The calibration request for a candidate over a pipeline of
    /// depth `nz` (the full problem or a checkpoint prefix). Tagged
    /// [`TuneMode::Calibration`] so probe plans never collide with
    /// ordinary plans for the same coordinates in the shared cache.
    fn request(&self, c: &Candidate, nz: usize) -> PlanRequest {
        PlanRequest::grid3(self.problem.nx, self.problem.ny, nz, c.pi, c.pj)
            .with_v(c.v.min(nz))
            .with_mode(self.mode)
            .with_machine(self.machine)
            .with_transport(self.transport)
            .with_tier(c.tier)
            .with_tune(TuneMode::Calibration)
    }

    fn run(&self, c: &Candidate, nz: usize) -> Result<f64, String> {
        let req = self.request(c, nz);
        let art = self.compiler.compile(&req).map_err(|e| e.to_string())?;
        let opts = ExecOptions { verify: false };
        let outcome = art
            .execute_pooled(self.pool, opts)
            .map_err(|e| e.to_string())?;
        Ok(outcome.elapsed.as_secs_f64() * 1e6)
    }
}

impl MeasureBackend for ThreadBackend<'_> {
    fn measure_us(&self, c: &Candidate) -> Result<f64, String> {
        self.run(c, self.problem.nz)
    }

    fn checkpoint_us(&self, c: &Candidate, checkpoint_steps: usize) -> Option<Result<f64, String>> {
        let full_steps = c.steps(self.problem.nz);
        if checkpoint_steps == 0 || full_steps <= checkpoint_steps {
            return None; // a prefix would be the whole pipeline
        }
        let prefix_nz = (c.v * checkpoint_steps).min(self.problem.nz);
        let prefix_steps = prefix_nz.div_ceil(c.v.max(1)).max(1);
        Some(
            self.run(c, prefix_nz)
                .map(|us| us * full_steps as f64 / prefix_steps as f64),
        )
    }
}

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

impl MeasureBackend for SimBackend {
    fn measure_us(&self, c: &Candidate) -> Result<f64, String> {
        // The tier has no simulator counterpart: the model charges
        // t_c per point regardless. Only (V, shape) matter.
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
        let programs = match self.schedule {
            Schedule::Blocking => problem.blocking_programs(&self.machine),
            Schedule::Overlap => problem.overlapping_programs(&self.machine),
        };
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

    fn deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling_core::machine::KernelTier;

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
        Candidate {
            v,
            pi: 2,
            pj: 2,
            tier: KernelTier::Bitwise,
        }
    }

    #[test]
    fn sim_backend_is_deterministic_and_finite() {
        let b = sim();
        let a = b.measure_us(&cand(64)).unwrap();
        let again = b.measure_us(&cand(64)).unwrap();
        assert_eq!(a, again);
        assert!(a.is_finite() && a > 0.0);
        // No checkpoint probe: full simulation is already cheap.
        assert!(b.checkpoint_us(&cand(64), 4).is_none());
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

    #[test]
    fn thread_backend_measures_and_checkpoints() {
        let compiler = Compiler::new(32);
        let pool = WorldPool::new(2);
        let b = ThreadBackend {
            problem: TuneProblem {
                nx: 4,
                ny: 4,
                nz: 256,
                pi: 2,
                pj: 2,
            },
            machine: MachineSpec::Paper,
            mode: ExecMode::Overlapping,
            transport: TransportKind::shared_slots(),
            compiler: &compiler,
            pool: &pool,
        };
        let c = cand(32);
        let full = b.measure_us(&c).unwrap();
        assert!(full > 0.0);
        // 256/32 = 8 steps; a 4-step checkpoint runs a 128-deep prefix
        // and doubles it.
        let est = b.checkpoint_us(&c, 4).unwrap().unwrap();
        assert!(est > 0.0);
        // Probes of an already-probed candidate hit the plan cache.
        let _ = b.measure_us(&c).unwrap();
        assert!(compiler.cache_stats().hits >= 1);
        // A checkpoint at/past the full depth has nothing to truncate.
        assert!(b.checkpoint_us(&c, 8).is_none());
        assert!(b.checkpoint_us(&c, 0).is_none());
    }
}
