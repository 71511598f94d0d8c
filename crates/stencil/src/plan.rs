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
//! Every run takes one path: the runner takes the result [`Grid3D`]
//! (a dropped grid's parked cells of the same size when there are any,
//! unfilled), deals its pencils out to the ranks as disjoint
//! mutable views ([`dist3d::rank_pencils`]) and the ranks compute
//! straight into them — the result grid *is* the ranks' storage, and
//! the calling thread *is* rank 0 (see
//! `msgpass::thread_backend::run_world`). [`run3d_observed_with`]
//! launches that path on a fresh world; [`run3d_on_world_observed`]
//! launches it over a *prebuilt* one: a service can keep a pool of
//! worlds warm and run job after job on them, reusing links, slot
//! rings, buffer pools and rank threads. That reuse is sound precisely
//! because the analyzer proved the plan drains every link — a completed
//! run leaves no message behind. A result grid larger than memory is an
//! [`EngineError::OutOfMemory`], before any rank runs.
//!
//! [`replay_programs`] turns a traced run back into simulator input:
//! the plan's own programs with every tile priced as measured, so the
//! code that ran here can be costed on any machine the simulator models.

use crate::dist3d::{self, Decomp3D};
use crate::engine::{EngineError, ExecMode, NoopObserver, StepObserver};
use crate::grid::Grid3D;
use crate::kernel::Kernel3D;
use crate::preflight::analyze_plan;
use analyzer::{AnalysisReport, RankTopology};
use cluster_sim::program::{Op, Program};
use cluster_sim::trace::{Activity, Trace};
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

/// The one run path: take the result grid ([`Grid3D::try_unfilled`]),
/// deal its pencils out to the ranks, and have `launch` run the rank
/// body once per rank of some world. Every cell is written exactly
/// once, by its owner, so what the cells held before is never read.
fn run3d_ranks<K: Kernel3D, O: StepObserver + Send>(
    kernel: K,
    c: &Compiled3D,
    tier: KernelTier,
    make_obs: impl Fn(&ThreadComm<f32>) -> O + Sync,
    launch: impl FnOnce(
        &(dyn Fn(&mut ThreadComm<f32>) -> RankOut<O> + Sync),
    ) -> (Vec<std::thread::Result<RankOut<O>>>, Duration),
) -> Run3D<O> {
    let d = c.d;
    let mut out =
        Grid3D::try_unfilled(d.nx, d.ny, d.nz, d.boundary).ok_or(EngineError::OutOfMemory {
            bytes: d.nx * d.ny * d.nz * std::mem::size_of::<f32>(),
        })?;
    let (results, elapsed) = {
        // The body is shared by the ranks, so each takes its pencils
        // and its tile walks (compiled here, on the launching thread —
        // see `WavePlan::for_rank`) out of its own slot.
        let walks = |rank| dist3d::WavePlan::for_rank(&d, rank);
        let parts: Vec<_> = dist3d::rank_pencils(&d, out.pencils_mut())
            .into_iter()
            .enumerate()
            .map(|(rank, rows)| Mutex::new(Some((rows, walks(rank)))))
            .collect();
        launch(&|comm| {
            let mut obs = make_obs(comm);
            let part = parts[comm.rank()].lock().ok().and_then(|mut p| p.take());
            #[allow(clippy::expect_used)] // LINT: a world runs each rank once
            let (rows, plans) = part.expect("a world runs each rank once");
            let run = dist3d::run_rank3d_into(comm, kernel, c, tier, &mut obs, rows, plans);
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
/// `rank`'s trace holds `computes` compute intervals where the plan
/// runs `tiles` tiles on it (a rank without a trace holds none, a trace
/// past the plan's ranks belongs to a rank that runs none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceMismatch {
    /// The rank whose trace does not fit the plan.
    pub rank: usize,
    /// [`Activity::Compute`] intervals its trace holds.
    pub computes: usize,
    /// Tiles the plan runs on it.
    pub tiles: usize,
}

impl fmt::Display for TraceMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TraceMismatch {
            rank,
            computes,
            tiles,
        } = self;
        write!(
            f,
            "rank {rank}'s trace holds {computes} compute intervals for {tiles} tiles"
        )
    }
}

impl std::error::Error for TraceMismatch {}

/// Every rank's program as pre-flight proved it, with the compute of
/// step `k` priced at the rank's `k`-th measured [`Activity::Compute`]
/// interval, in µs: what the code that ran would cost on whatever
/// machine the simulator is given.
///
/// `traces` holds one [`Trace`] per rank, in rank order, recorded by a
/// [`crate::engine::TraceObserver`] on a run of `c`
/// ([`run3d_observed_with`]). Only the tile computation (A₂) is
/// replayed: the simulator prices packing and posting (A₁, A₃) and the
/// wire from its `MachineParams`, for every message op. A compute
/// interval is wall time, so a rank that waited for its core during the
/// run is priced with that wait. A trace without exactly one compute
/// interval per tile is a [`TraceMismatch`], never a misprice
/// ([`Trace::record`] drops a zero-length interval).
pub fn replay_programs(c: &Compiled3D, traces: &[Trace]) -> Result<Vec<Program>, TraceMismatch> {
    let computes = |rank: usize| -> Vec<f64> {
        let intervals = traces.get(rank).into_iter().flat_map(|t| t.for_rank(rank));
        (intervals.filter(|iv| iv.activity == Activity::Compute))
            .map(|iv| (iv.end - iv.start).as_us())
            .collect()
    };
    let measured: Vec<Vec<f64>> = (0..c.ranks().max(traces.len())).map(computes).collect();
    for (rank, us) in measured.iter().enumerate() {
        let tiles = if rank < c.ranks() { c.d.steps() } else { 0 };
        if us.len() != tiles {
            let computes = us.len();
            return Err(TraceMismatch {
                rank,
                computes,
                tiles,
            });
        }
    }
    let replay = |(proved, us): (&Program, &Vec<f64>)| {
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
    Ok(c.programs.iter().zip(&measured).map(replay).collect())
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
        use crate::engine::TraceObserver;
        use cluster_sim::time::SimTime;
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let cfg = WorldConfig::new(LatencyModel::zero());
        let seq = crate::seq::run_paper3d_seq(8, 8, 64, 1.0);
        let make_obs = |comm: &ThreadComm<f32>| TraceObserver::new(comm.rank(), comm.epoch());
        let check = |(grid, _, observers, faults): (Grid3D, _, Vec<TraceObserver>, Vec<_>)| {
            assert_eq!(grid.max_abs_diff(&seq), 0.0);
            assert_eq!(faults, vec![FaultStats::default(); c.ranks()]);
            let mut trace = Trace::enabled();
            for obs in observers {
                trace.extend(obs.into_trace());
            }
            // Every rank computed d.steps() tiles; the trace must hold
            // one Compute interval per tile per rank, on a shared time
            // axis.
            for rank in 0..c.ranks() {
                let computes = trace
                    .for_rank(rank)
                    .filter(|iv| iv.activity == Activity::Compute)
                    .count();
                assert_eq!(computes, d3().steps(), "rank {rank}");
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

    #[test]
    fn replay_prices_each_tile_and_rejects_a_trace_that_misses_one() {
        use cluster_sim::time::SimTime;
        let c = Compiled3D::compile(d3(), ExecMode::Overlapping).expect("clean plan");
        let tiles = d3().steps();
        // Tile `k` of rank `r` computes for `r + k + 1` µs, except that
        // a `short` rank's last tile takes no measurable time.
        let trace = |rank: usize, short: bool| {
            let mut t = Trace::enabled();
            for k in 0..tiles {
                let start = SimTime::from_us(100.0 * k as f64);
                let us = if short && k + 1 == tiles {
                    0.0
                } else {
                    (rank + k + 1) as f64
                };
                t.record(rank, Activity::Compute, start, start + SimTime::from_us(us));
            }
            t
        };
        let mut traces: Vec<Trace> = (0..c.ranks()).map(|r| trace(r, false)).collect();
        let replayed = replay_programs(&c, &traces).expect("one interval per tile");
        for (rank, (got, proved)) in replayed.iter().zip(&c.programs).enumerate() {
            let priced = |op| match op {
                Op::Compute { label, .. } => Op::Compute {
                    us: (rank + label as usize + 1) as f64,
                    label,
                },
                op => op,
            };
            assert_eq!(
                got.ops().collect::<Vec<_>>(),
                proved.ops().map(priced).collect::<Vec<_>>()
            );
        }
        let mismatch = |traces: &[Trace]| replay_programs(&c, traces).err();
        let want = |rank, computes, tiles| {
            Some(TraceMismatch {
                rank,
                computes,
                tiles,
            })
        };
        traces[2] = trace(2, true);
        assert_eq!(mismatch(&traces), want(2, tiles - 1, tiles));
        let why = mismatch(&traces).map(|e| e.to_string());
        assert_eq!(
            why.as_deref(),
            Some("rank 2's trace holds 3 compute intervals for 4 tiles")
        );
        traces[2] = trace(2, false);
        assert_eq!(mismatch(&traces[..3]), want(3, 0, tiles));
        traces.push(trace(4, false));
        assert_eq!(mismatch(&traces), want(4, tiles, 0));
    }
}
