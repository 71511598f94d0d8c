//! Compiled execution plans: validate + analyze once, execute many.
//!
//! A [`Compiled3D`] plan is the sealed bundle a distributed run needs —
//! of a 3-D block or of a 2-D strip as its unit-axis block
//! ([`crate::decomp::Decomp2D::block`]): the validated decomposition, every
//! rank's §5 [`Program`] under the chosen [`ExecMode`]'s schedule, which
//! the engine interprets, and the pre-flight [`AnalysisReport`] proving
//! those very programs legal, fully matched and deadlock-free.
//! Compiling is the *only* place validation and pre-flight happen, and
//! every runner takes a compiled plan, so one compile backs any number
//! of executions (the `planc` crate's `PlanArtifact` caches them).
//!
//! Every run takes one path: the runner takes the result [`Grid3D`] in
//! the sweep's layout (the newest parked storage of a dropped grid of
//! the same size when there is any, unfilled; [`dist3d::result_grid`]),
//! deals its blocks out to the ranks as disjoint mutable views and the
//! ranks' sweeps write straight into them — the result grid *is* the
//! ranks' storage, and the calling thread *is* rank 0 (see
//! `msgpass::thread_backend::run_world`). [`run3d_observed_with`]
//! launches that path on a fresh world; [`run3d_on_world_observed`]
//! launches it over a *prebuilt* one: a service can keep a pool of
//! worlds warm and run job after job on them, reusing links, slot
//! rings, buffer pools and rank threads. That reuse is sound precisely
//! because the analyzer proved the plan drains every link — a completed
//! run leaves no message behind. A result grid larger than memory is an
//! [`EngineError::OutOfMemory`], before any rank runs.
//!
//! [`replay_programs`] turns a logged run back into simulator input:
//! the plan's own programs with every tile priced at its step's
//! measured compute, so the code that ran here can be costed on any
//! machine the simulator models.

use crate::dist3d::{self, Decomp3D};
use crate::engine::{EngineError, ExecMode, NoopObserver, Phase, PhaseLog, StepObserver};
use crate::grid::Grid3D;
use crate::kernel::Kernel3D;
use crate::preflight::analyze_plan;
use analyzer::{AnalysisReport, RankTopology};
use cluster_sim::program::{Op, Program};
use msgpass::comm::Communicator;
use msgpass::fault::FaultStats;
use msgpass::thread_backend::{run_threads_with, run_world, ThreadComm, World, WorldConfig};
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;
use tiling_core::machine::KernelTier;

/// A compiled, analyzer-approved plan over the block layout (§5):
/// decomposition, per-rank programs and pre-flight report, sealed at
/// compile time.
#[derive(Clone, Debug)]
pub struct Compiled3D {
    d: Decomp3D,
    mode: ExecMode,
    programs: Vec<Program>,
    report: Option<AnalysisReport>,
}

impl Compiled3D {
    /// Validate the decomposition, run the pre-flight static analysis
    /// exactly once, and seal the executable plan.
    pub fn compile(d: Decomp3D, mode: ExecMode) -> Result<Self, EngineError> {
        Self::seal(d, mode, true)
    }

    /// Seal without the pre-flight analysis (benchmark hot paths that
    /// opt out via `WorldConfig::without_preflight`; the layout must be
    /// covered elsewhere, e.g. by a test that compiles it): the programs
    /// are emitted, not checked. Validation still runs — an
    /// unexecutable decomposition is never sealed.
    pub fn compile_unchecked(d: Decomp3D, mode: ExecMode) -> Result<Self, EngineError> {
        Self::seal(d, mode, false)
    }

    /// Validate, analyze when `preflight` is set, and seal.
    pub(crate) fn seal(d: Decomp3D, mode: ExecMode, preflight: bool) -> Result<Self, EngineError> {
        d.validate()?;
        let (report, programs) = match preflight {
            true => analyze_plan(&d, mode).map(|(report, programs)| (Some(report), programs))?,
            false => (None, analyzer::programs(&d, &d.step_plan(mode))?),
        };
        Ok(Compiled3D {
            d,
            mode,
            programs,
            report,
        })
    }

    /// The validated decomposition.
    pub fn decomp(&self) -> Decomp3D {
        self.d
    }

    /// The execution mode the plan was compiled for.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The program of `comm`'s rank — what pre-flight analysed and the
    /// executor runs — or [`EngineError::WorldSizeMismatch`] on a world
    /// of another size.
    pub(crate) fn program(&self, comm: &impl Communicator<f32>) -> Result<&Program, EngineError> {
        match self.programs.get(comm.rank()) {
            Some(program) if comm.size() == self.ranks() => Ok(program),
            _ => Err(EngineError::WorldSizeMismatch {
                expected: self.ranks(),
                got: comm.size(),
            }),
        }
    }

    /// The pre-flight report (`None` for [`Compiled3D::compile_unchecked`]).
    pub fn report(&self) -> Option<&AnalysisReport> {
        self.report.as_ref()
    }

    /// World size the plan executes on.
    pub fn ranks(&self) -> usize {
        self.d.ranks()
    }
}

/// Join the ranks of one run: every rank's by-product in rank order,
/// or — when ranks failed — the most diagnostic error (see
/// [`EngineError::severity`]). A panicked rank counts as
/// [`EngineError::RankFailed`].
fn join_ranks<X>(
    results: Vec<std::thread::Result<(Result<(), EngineError>, X)>>,
) -> Result<Vec<X>, EngineError> {
    let mut extras = Vec::with_capacity(results.len());
    let mut worst: Option<EngineError> = None;
    for (rank, joined) in results.into_iter().enumerate() {
        let err = match joined {
            Ok((Ok(()), extra)) => {
                extras.push(extra);
                continue;
            }
            Ok((Err(e), _)) => e,
            Err(_) => EngineError::RankFailed { rank },
        };
        worst = Some(match worst {
            Some(w) => w.prefer(err),
            None => err,
        });
    }
    match worst {
        Some(e) => Err(e),
        None => Ok(extras),
    }
}

/// What one rank of a 3-D run hands back: how its run ended, its
/// observer and its fault counters (its cells are already in the grid).
type RankOut<O> = (Result<(), EngineError>, (O, FaultStats));

/// What a 3-D run returns: the result grid, the wall-clock time of the
/// parallel region, the observers and the fault counters in rank order.
pub type Run3D<O> = Result<(Grid3D, Duration, Vec<O>, Vec<FaultStats>), EngineError>;

/// The one run path: take the result grid and the tile walk
/// ([`dist3d::result_grid`]; a grid larger than memory is an
/// [`EngineError::OutOfMemory`] of the bytes its storage needs), deal
/// its blocks out to the ranks, lend every rank the walk, and have
/// `launch` run the rank body once per rank of some world. Every float
/// of the storage is written by its owner, so what it held before is
/// never read.
fn run3d_ranks<K: Kernel3D, O: StepObserver + Send>(
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    make_obs: impl Fn(&ThreadComm<f32>) -> O + Sync,
    launch: impl FnOnce(
        &(dyn Fn(&mut ThreadComm<f32>) -> RankOut<O> + Sync),
    ) -> (Vec<std::thread::Result<RankOut<O>>>, Duration),
) -> Run3D<O> {
    let (mut out, walk) =
        dist3d::result_grid(&c.d).map_err(|bytes| EngineError::OutOfMemory { bytes })?;
    let (results, elapsed) = {
        // The body is shared by the ranks, so each takes its block out
        // of its own slot.
        let block = out.data().len() / c.ranks();
        let parts: Vec<_> = (out.data_mut().chunks_exact_mut(block))
            .map(|runs| Mutex::new(Some(runs.as_chunks_mut().0)))
            .collect();
        launch(&|comm| {
            let mut obs = make_obs(comm);
            let part = parts[comm.rank()].lock().ok().and_then(|mut p| p.take());
            #[allow(clippy::expect_used)] // LINT: a world runs each rank once
            let runs = part.expect("a world runs each rank once");
            let run = dist3d::run_rank3d_into(comm, kernel, c, tier, &mut obs, runs, &walk);
            (run, (obs, comm.fault_stats()))
        })
    };
    let (observers, stats) = join_ranks(results)?.into_iter().unzip();
    Ok((out, elapsed, observers, stats))
}

/// Execute a compiled 3-D plan on a fully configured world with a
/// per-rank [`StepObserver`] built by `make_obs`. No validation or
/// pre-flight runs here — that happened at compile time. Returns the
/// result grid, the wall-clock time of the parallel region, the
/// observers in rank order, and each rank's fault counters.
pub fn run3d_observed_with<K, O, F>(
    kernel: K,
    c: &Compiled3D,
    cfg: &WorldConfig,
    make_obs: F,
) -> Run3D<O>
where
    K: Kernel3D,
    O: StepObserver + Send,
    F: Fn(&ThreadComm<f32>) -> O + Send + Sync,
{
    run3d_ranks(kernel, c, cfg.kernel_tier, make_obs, |body| {
        // Each rank owns its communicator and drops it with its body,
        // so a rank that stops early reads as a closed peer.
        run_threads_with::<f32, _, _>(c.ranks(), cfg, |mut comm| body(&mut comm))
    })
}

/// Execute a compiled 3-D plan on a fully configured world.
pub fn run3d_with<K: Kernel3D>(
    kernel: K,
    c: &Compiled3D,
    cfg: &WorldConfig,
) -> Result<(Grid3D, Duration, Vec<FaultStats>), EngineError> {
    let (grid, elapsed, _, stats) = run3d_observed_with(kernel, c, cfg, |_| NoopObserver)?;
    Ok((grid, elapsed, stats))
}

/// [`run3d_observed_with`] over a *prebuilt* world (see
/// [`msgpass::thread_backend::build_world_with`] /
/// [`msgpass::thread_backend::run_world`]): the world's links, slot
/// rings, buffer pools and rank threads are reused as-is, so a warm
/// world costs no setup. A world whose size differs from the plan's
/// rank count is an [`EngineError::WorldSizeMismatch`]. On any other
/// error the world may hold undrained messages and must be discarded.
pub fn run3d_on_world_observed<K, O, F>(
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    world: &mut World<f32>,
    make_obs: F,
) -> Run3D<O>
where
    K: Kernel3D,
    O: StepObserver + Send,
    F: Fn(&ThreadComm<f32>) -> O + Send + Sync,
{
    if world.len() != c.ranks() {
        return Err(EngineError::WorldSizeMismatch {
            expected: c.ranks(),
            got: world.len(),
        });
    }
    run3d_ranks(kernel, c, tier, make_obs, |body| {
        run_world(world, false, body)
    })
}

/// Execute a compiled 3-D plan over a *prebuilt* world: what
/// [`run3d_with`] returns, under [`run3d_on_world_observed`]'s rules.
pub fn run3d_on_world<K: Kernel3D>(
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    world: &mut World<f32>,
) -> Result<(Grid3D, Duration, Vec<FaultStats>), EngineError> {
    let (grid, elapsed, _, stats) =
        run3d_on_world_observed(kernel, c, tier, world, |_| NoopObserver)?;
    Ok((grid, elapsed, stats))
}

/// Why [`replay_programs`] cannot price a plan's programs: rank
/// `rank`'s log holds no compute phase for `step`, or (`step` is
/// `None`) a log belongs to a rank the plan does not have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceMismatch {
    /// The rank whose log does not fit the plan.
    pub rank: usize,
    /// Its first step without a [`Phase::Compute`] entry, or `None` for
    /// a rank past the plan's.
    pub step: Option<usize>,
}

impl fmt::Display for TraceMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(step) => write!(f, "rank {}'s log has no compute for step {step}", self.rank),
            None => write!(
                f,
                "a log names rank {}, which the plan does not have",
                self.rank
            ),
        }
    }
}

impl std::error::Error for TraceMismatch {}

/// Every rank's program as pre-flight proved it, with the compute of
/// step `k` priced at the rank's logged [`Phase::Compute`] `{ step: k }`
/// span, in µs: what the code that ran would cost on whatever machine
/// the simulator is given.
///
/// `logs` are the [`PhaseLog`]s of a run of `c`
/// ([`run3d_observed_with`]), matched to ranks by [`PhaseLog::rank`]
/// and to tiles by step, so a compute too short for the clock replays
/// as 0 µs. Only the tile computation (A₂) is replayed: the simulator
/// prices packing and posting (A₁, A₃) and the wire from its
/// `MachineParams`, for every message op. A compute span is wall time,
/// so a rank that waited for its core during the run is priced with
/// that wait. A step with no logged compute is a [`TraceMismatch`],
/// never a misprice.
pub fn replay_programs(c: &Compiled3D, logs: &[PhaseLog]) -> Result<Vec<Program>, TraceMismatch> {
    let mut measured = vec![vec![None; c.d.steps()]; c.ranks()];
    for log in logs {
        let rank = log.rank();
        let mismatch = TraceMismatch { rank, step: None };
        let us = measured.get_mut(rank).ok_or(mismatch)?;
        for &(phase, start, end) in &log.phases {
            if let Phase::Compute { step } = phase {
                if let Some(tile) = us.get_mut(step) {
                    *tile = Some(end.saturating_duration_since(start).as_nanos() as f64 / 1e3);
                }
            }
        }
    }
    let mut priced = Vec::with_capacity(measured.len());
    for (rank, us) in measured.into_iter().enumerate() {
        let step = us.iter().position(Option::is_none);
        let mismatch = TraceMismatch { rank, step };
        priced.push(
            us.into_iter()
                .collect::<Option<Vec<f64>>>()
                .ok_or(mismatch)?,
        );
    }
    let replay = |(proved, us): (&Program, Vec<f64>)| {
        let mut p = Program::new();
        for op in proved.ops() {
            p.push(match op {
                Op::Compute { label, .. } => Op::Compute {
                    us: us[label as usize],
                    label,
                },
                op => op,
            });
        }
        p
    };
    Ok(c.programs.iter().zip(priced).map(replay).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp2D;
    use crate::grid::Grid2D;
    use crate::kernel::{Example1, Paper3D};
    use msgpass::thread_backend::{build_world_with, LatencyModel};

    fn d3() -> Decomp3D {
        Decomp3D {
            nx: 8,
            ny: 8,
            nz: 64,
            pi: 2,
            pj: 2,
            v: 16,
            boundary: 1.0,
        }
    }

    #[test]
    fn compile_once_execute_many_matches_sequential() {
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        assert!(c.report().is_some());
        let seq = crate::seq::run_paper3d_seq(8, 8, 64, 1.0);
        let cfg = WorldConfig::new(LatencyModel::zero());
        for _ in 0..2 {
            let (grid, _, _) = run3d_with(Paper3D, &c, &cfg).expect("runs");
            assert_eq!(grid.max_abs_diff(&seq), 0.0);
        }
    }

    #[test]
    fn a_wide_block_runs_bitwise_twice() {
        // 288 × 288 pencils per rank: a walk of ≈ 1.2 MB, built per run.
        let d = Decomp3D {
            nx: 576,
            ny: 288,
            nz: 3,
            pi: 2,
            pj: 1,
            v: 2,
            boundary: 1.0,
        };
        let c = Compiled3D::compile(d, ExecMode::Overlapping).expect("clean plan");
        let seq = crate::seq::run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
        let cfg = WorldConfig::new(LatencyModel::zero());
        for _ in 0..2 {
            let (grid, _, _) = run3d_with(Paper3D, &c, &cfg).expect("runs");
            assert_eq!(grid.max_abs_diff(&seq), 0.0);
        }
    }

    #[test]
    fn compiled_2d_matches_sequential() {
        let d = Decomp2D {
            nx: 40,
            ny: 12,
            ranks: 4,
            v: 10,
            boundary: 4.0,
        };
        let c = Compiled3D::compile(d.block(), ExecMode::Blocking).expect("clean plan");
        let (grid, _, _) =
            run3d_with(Example1, &c, &WorldConfig::new(LatencyModel::zero())).expect("runs");
        let seq = crate::seq::run_example1_seq(d.nx, d.ny, d.boundary);
        assert_eq!(Grid2D::from_block(&grid).max_abs_diff(&seq), 0.0);
    }

    #[test]
    fn prebuilt_world_of_the_wrong_size_is_a_typed_error() {
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let mut world = build_world_with::<f32>(2, &WorldConfig::new(LatencyModel::zero()));
        let err = run3d_on_world(Paper3D, &c, KernelTier::Bitwise, &mut world).unwrap_err();
        let want = EngineError::WorldSizeMismatch {
            expected: 4,
            got: 2,
        };
        assert_eq!(err, want);
        assert_eq!(
            err.to_string(),
            "prebuilt world has 2 ranks but the compiled plan runs on 4"
        );
    }

    #[test]
    fn prebuilt_world_runs_compiled_plans_back_to_back() {
        use msgpass::transport::TransportKind;
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let cfg =
            WorldConfig::new(LatencyModel::zero()).with_transport(TransportKind::shared_slots());
        let mut world = build_world_with::<f32>(c.ranks(), &cfg);
        let seq = crate::seq::run_paper3d_seq(8, 8, 64, 1.0);
        for _ in 0..3 {
            let (grid, _, _) =
                run3d_on_world(Paper3D, &c, KernelTier::Bitwise, &mut world).expect("runs");
            assert_eq!(grid.max_abs_diff(&seq), 0.0);
        }
        // A different compiled plan (other mode) on the same warm world.
        let c2 = Compiled3D::compile(d3(), ExecMode::Blocking).expect("clean plan");
        let (grid, _, _) =
            run3d_on_world(Paper3D, &c2, KernelTier::Bitwise, &mut world).expect("runs");
        assert_eq!(grid.max_abs_diff(&seq), 0.0);
    }

    #[test]
    fn traced_run_emits_per_rank_intervals() {
        use crate::engine::to_trace;
        use cluster_sim::time::SimTime;
        use cluster_sim::trace::Activity;
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let cfg = WorldConfig::new(LatencyModel::zero());
        let seq = crate::seq::run_paper3d_seq(8, 8, 64, 1.0);
        let make_obs = |comm: &ThreadComm<f32>| PhaseLog::new(comm.rank(), comm.epoch());
        let check = |(grid, _, logs, faults): (Grid3D, _, Vec<PhaseLog>, Vec<_>)| {
            assert_eq!(grid.max_abs_diff(&seq), 0.0);
            assert_eq!(faults, vec![FaultStats::default(); c.ranks()]);
            // Every rank computed d.steps() tiles, one compute phase per
            // tile, and the trace puts every rank on a shared time axis.
            let trace = to_trace(&logs, None);
            for (rank, log) in logs.iter().enumerate() {
                assert_eq!(log.rank(), rank);
                let computes = (log.phases.iter())
                    .filter(|p| matches!(p.0, Phase::Compute { .. }))
                    .count();
                assert_eq!(computes, d3().steps(), "rank {rank}");
                let mut drawn = trace.for_rank(rank);
                assert!(
                    drawn.any(|iv| iv.activity == Activity::Compute),
                    "rank {rank}"
                );
            }
            assert!(trace.horizon() > SimTime::ZERO);
        };
        check(run3d_observed_with(Paper3D, &c, &cfg, make_obs).expect("fresh world"));
        // The pooled path has the same hook: a prebuilt world, twice.
        let mut world = build_world_with::<f32>(c.ranks(), &cfg);
        for _ in 0..2 {
            let tier = KernelTier::Bitwise;
            check(run3d_on_world_observed(Paper3D, &c, tier, &mut world, make_obs).expect("warm"));
        }
    }

    /// Logs of `c`'s ranks in which tile `k` of rank `r` computes for
    /// `r + k + 1` µs, every tile 100 µs after the last.
    fn synthetic_logs(c: &Compiled3D) -> Vec<PhaseLog> {
        let epoch = std::time::Instant::now();
        let at = |us: usize| epoch + Duration::from_micros(us as u64);
        let log = |rank| {
            let mut log = PhaseLog::new(rank, epoch);
            for step in 0..c.d.steps() {
                let start = 100 * step;
                log.on_phase(
                    Phase::Compute { step },
                    at(start),
                    at(start + rank + step + 1),
                );
            }
            log
        };
        (0..c.ranks()).map(log).collect()
    }

    /// `c`'s programs with tile `k` of rank `r` priced at `us(r, k)`.
    fn priced(c: &Compiled3D, us: impl Fn(usize, usize) -> f64) -> Vec<Vec<Op>> {
        let price = |(rank, proved): (usize, &Program)| {
            let tile = |op| match op {
                Op::Compute { label, .. } => Op::Compute {
                    us: us(rank, label as usize),
                    label,
                },
                op => op,
            };
            proved.ops().map(tile).collect()
        };
        c.programs.iter().enumerate().map(price).collect()
    }

    fn ops(programs: &[Program]) -> Vec<Vec<Op>> {
        programs.iter().map(|p| p.ops().collect()).collect()
    }

    #[test]
    fn replay_prices_each_tile_and_rejects_a_trace_that_misses_one() {
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let mut logs = synthetic_logs(&c);
        let want = priced(&c, |rank, step| (rank + step + 1) as f64);
        let replayed = replay_programs(&c, &logs).expect("a compute per tile");
        assert_eq!(ops(&replayed), want);
        // Logs are matched to ranks by their rank, not their position.
        logs.reverse();
        let replayed = replay_programs(&c, &logs).expect("a compute per tile");
        assert_eq!(ops(&replayed), want);
        logs.reverse();

        let mismatch = |logs: &[PhaseLog]| replay_programs(&c, logs).err();
        let full = logs.clone();
        // Rank 2 never logged step 1: the first step without a compute.
        logs[2].phases.retain(|p| p.0 != Phase::Compute { step: 1 });
        let why = TraceMismatch {
            rank: 2,
            step: Some(1),
        };
        assert_eq!(mismatch(&logs), Some(why));
        assert_eq!(why.to_string(), "rank 2's log has no compute for step 1");
        // A rank with no log misses its first step.
        let want = TraceMismatch {
            rank: 3,
            step: Some(0),
        };
        assert_eq!(mismatch(&full[..3]), Some(want));
        // A log for a rank the plan does not have.
        let mut extra = full.clone();
        extra.push(PhaseLog::new(4, std::time::Instant::now()));
        let why = TraceMismatch {
            rank: 4,
            step: None,
        };
        assert_eq!(mismatch(&extra), Some(why));
        assert_eq!(
            why.to_string(),
            "a log names rank 4, which the plan does not have"
        );
    }

    #[test]
    fn a_zero_length_compute_replays_as_zero_us() {
        // A trace drops a zero-length interval; the log keeps it, keyed
        // by its step.
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let mut logs = synthetic_logs(&c);
        let last = c.d.steps() - 1;
        let (phase, start, _) = logs[2].phases[last];
        assert_eq!(phase, Phase::Compute { step: last });
        logs[2].phases[last] = (phase, start, start);
        let drawn = crate::engine::to_trace(&logs[2..3], None).intervals().len();
        assert_eq!(drawn, last, "the trace drops the tile");
        let replayed = replay_programs(&c, &logs).expect("a compute per tile");
        let want = priced(&c, |rank, step| match (rank, step) {
            (2, s) if s == last => 0.0,
            _ => (rank + step + 1) as f64,
        });
        assert_eq!(ops(&replayed), want);
    }
}
