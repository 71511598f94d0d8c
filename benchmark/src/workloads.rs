//! The six workloads: cold set-up, one homogeneous op, its traced
//! twin, and the check of its output against the reference that
//! set-up verified.
//!
//! Every world is `pi=2, pj=1`: two spinning rank threads are all a
//! 2-core box can run without measuring the OS scheduler (see
//! README.md, "Why the protocol is what it is"). Every op of a
//! workload does identical work, so the spread of its samples is the
//! machine's, not the input's; the seed changes *which* inputs (grid
//! boundary value, job order, simulated machines) but never how much
//! work they are.

use crate::stats::{fnv64, fnv64_f32};
use crate::trace::{phase_name, Recorder, SpanObserver};
use msgpass::comm::Communicator;
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use planc::{
    Compiler, ExecOptions, GridResult, JobRequest, JobResponse, PlanArtifact, PlanRequest,
    PlanService, ServiceConfig, WorldPool,
};
use std::sync::Arc;
use std::time::Instant;
use stencil::engine::ExecMode;
use stencil::kernel::Paper3D;
use stencil::plan::run3d_observed_with;
use sweep::config::{MachinePreset, Mix64, Schedule, SweepConfig};
use sweep::run::{run_sweep, RowStatus, SweepOutcome};

/// Workload names, in round order.
pub const NAMES: [&str; 6] = [
    "compute-bound",
    "fine-grain",
    "wire-overlap",
    "wire-blocking",
    "plan-service",
    "sim-sweep",
];

/// `(nx, ny, nz, V)` of the two zero-latency world workloads. The
/// probes measure the layers on these same shapes.
pub const COMPUTE_BOUND: (usize, usize, usize, usize) = (16, 16, 8192, 256);
pub const FINE_GRAIN: (usize, usize, usize, usize) = (8, 8, 16384, 8);

/// The wire the two `wire-*` workloads run over.
pub const WIRE: LatencyModel = LatencyModel {
    startup_us: 300.0,
    per_byte_us: 0.05,
};

/// The service `plan-service` loads: one worker, so that worker plus
/// client plus the two ranks of an Execute job never exceed two
/// runnable threads.
pub const SERVICE: ServiceConfig = ServiceConfig {
    workers: 1,
    queue_cap: 64,
    cache_cap: 32,
};

/// Hot shape `i` of the job script (boundary 1; the workload stamps
/// the seed's).
pub fn hot_shape(i: usize) -> PlanRequest {
    PlanRequest::grid3(8, 8, 256 + 64 * i, 2, 1).with_v(64)
}

/// The shape every never-seen compile of the job script has.
pub fn cold_shape() -> PlanRequest {
    PlanRequest::grid3(8, 8, 512, 2, 1).with_v(64)
}

/// What one op produced, kept so it can be checked after the clock
/// stopped (and dropped there too: freeing an 8 MB grid is not part of
/// the op).
pub enum Output {
    Grid(GridResult),
    /// `(hot shape, grid)` of every Execute job of one script.
    Jobs(Vec<(usize, GridResult)>),
    Sweep(SweepOutcome),
}

impl Output {
    /// Sweep rows that did not simulate cleanly (0 for other outputs).
    pub fn rows_failed(&self) -> u64 {
        match self {
            Output::Sweep(out) => out
                .rows
                .iter()
                .filter(|r| r.status != RowStatus::Ok)
                .count() as u64,
            _ => 0,
        }
    }
}

/// One timed op.
pub struct OpSample {
    /// Request → assembled result, around the front-door call.
    pub op_ns: u64,
    /// The parallel region only (`ExecOutcome::elapsed`).
    pub makespan_ns: u64,
    pub output: Output,
}

/// Per-step lane times of one traced world op, mean over ranks (µs).
#[derive(Clone, Copy)]
pub struct Lanes {
    pub compute_us: f64,
    pub a_us: f64,
    pub b_us: f64,
}

/// Counters that must repeat exactly from round to round.
pub type Counts = Vec<(&'static str, u64)>;

/// The grid boundary value a seed selects. Every value is exactly
/// representable and costs the kernel the same; the result grid (and
/// its checksum) differs per seed, the work does not.
fn boundary_of(seed: u64) -> f32 {
    1.0 + (seed % 8) as f32 * 0.125
}

fn grid_sum(g: &GridResult) -> u64 {
    match g {
        GridResult::Dim3(g) => fnv64_f32(g.data()),
        GridResult::Dim2(g) => fnv64_f32(g.data()),
    }
}

/// Refuse a world the box cannot run in parallel: with more spinning
/// ranks than cores the numbers describe the scheduler.
fn check_ranks(ranks: usize) -> Result<(), String> {
    let nproc = crate::host::nproc();
    if ranks > nproc {
        return Err(format!(
            "world of {ranks} ranks on {nproc} core(s): refusing to measure an oversubscribed world"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- worlds

/// A 2-rank stencil execution through the compiled-plan front door.
pub struct World {
    name: &'static str,
    req: PlanRequest,
    /// `Some` → `execute_with` on a fresh world per op (the wire
    /// workloads: a pooled world cannot carry injected latency);
    /// `None` → `execute_pooled` on a warm world.
    wire: Option<WorldConfig>,
    compiler: Compiler,
    pool: WorldPool,
    art: Arc<PlanArtifact>,
    ref_sum: u64,
}

impl World {
    fn request(name: &str, seed: u64) -> (PlanRequest, Option<WorldConfig>) {
        let wire = WorldConfig::new(WIRE);
        let zero_latency = |(nx, ny, nz, v)| (PlanRequest::grid3(nx, ny, nz, 2, 1).with_v(v), None);
        let (req, wire) = match name {
            "compute-bound" => zero_latency(COMPUTE_BOUND),
            "fine-grain" => zero_latency(FINE_GRAIN),
            "wire-overlap" => (
                PlanRequest::grid3(16, 16, 4096, 2, 1).with_v(128),
                Some(wire),
            ),
            "wire-blocking" => (
                PlanRequest::grid3(16, 16, 4096, 2, 1)
                    .with_v(128)
                    .with_mode(ExecMode::Blocking),
                Some(wire),
            ),
            other => unreachable!("not a world workload: {other}"),
        };
        (req.with_boundary(boundary_of(seed)), wire)
    }

    fn setup(name: &'static str, seed: u64) -> Result<Self, String> {
        let (req, wire) = Self::request(name, seed);
        let compiler = Compiler::new(32);
        let pool = WorldPool::default();
        let art = compiler.compile(&req).map_err(|e| e.to_string())?;
        check_ranks(art.ranks())?;
        let verify = ExecOptions { verify: true };
        let out = match &wire {
            Some(cfg) => art.execute_with(cfg, verify),
            None => art.execute_pooled(&pool, verify),
        }
        .map_err(|e| e.to_string())?;
        if out.verified != Some(true) {
            return Err(format!("{name}: first execution differs from stencil::seq"));
        }
        Ok(World {
            name,
            req,
            wire,
            compiler,
            pool,
            art,
            ref_sum: grid_sum(&out.grid),
        })
    }

    fn op(&mut self) -> Result<OpSample, String> {
        let opts = ExecOptions { verify: false };
        let t0 = Instant::now();
        let art = self
            .compiler
            .compile(&self.req)
            .map_err(|e| e.to_string())?;
        let out = match &self.wire {
            Some(cfg) => art.execute_with(cfg, opts),
            None => art.execute_pooled(&self.pool, opts),
        }
        .map_err(|e| e.to_string())?;
        let op_ns = t0.elapsed().as_nanos() as u64;
        Ok(OpSample {
            op_ns,
            makespan_ns: out.elapsed.as_nanos() as u64,
            output: Output::Grid(out.grid),
        })
    }

    /// The traced twin: the same plan through
    /// `run3d_observed_with` with the harness's observer, recorded as
    /// `op → planc.execute → stencil.run → rank → phase`. It builds a
    /// fresh world per op even where the timed op uses a warm one —
    /// the observer hook exists only on that entry point — so
    /// `host.trace_overhead_frac` of the pooled workloads includes one
    /// world build.
    fn op_traced(&mut self, rec: &mut Recorder, phases: bool) -> Result<(OpSample, Lanes), String> {
        let w = self.name;
        let t0 = Instant::now();
        let art = self
            .compiler
            .compile(&self.req)
            .map_err(|e| e.to_string())?;
        let t_exec = Instant::now();
        let base = self.wire.clone().unwrap_or_default();
        let cfg = art.stamp(base);
        let c = art.compiled3().expect("world workloads are 3-D plans");
        let steps = art.steps();
        let (grid, elapsed, observers, _) = run3d_observed_with(Paper3D, c, &cfg, |comm| {
            SpanObserver::new(comm.rank(), steps)
        })
        .map_err(|e| e.to_string())?;
        let t1 = Instant::now();

        let op = rec.push(None, w, "op", None, t0, t1);
        let exec = rec.push(Some(op), w, "planc.execute", None, t_exec, t1);
        // The engine reports the parallel region's length, not where it
        // lies; the first rank thread's start pins it to within one
        // thread spawn.
        let run_start = observers.iter().map(|o| o.created).min().unwrap_or(t_exec);
        let run_end = (run_start + elapsed).min(t1);
        let run = rec.push(Some(exec), w, "stencil.run", None, run_start, run_end);
        let mut lanes = Lanes {
            compute_us: 0.0,
            a_us: 0.0,
            b_us: 0.0,
        };
        let per = 1e-3 / (steps * observers.len()) as f64;
        for o in &observers {
            let r = Some(o.rank);
            let rank = rec.push(Some(run), w, "rank", r, o.created, o.last_end());
            if phases {
                for (phase, s, e) in &o.phases {
                    rec.push(Some(rank), w, phase_name(phase), r, *s, *e);
                }
            }
            let (compute, a, b) = o.lane_ns();
            lanes.compute_us += compute as f64 * per;
            lanes.a_us += a as f64 * per;
            lanes.b_us += b as f64 * per;
        }
        let sample = OpSample {
            op_ns: (t1 - t0).as_nanos() as u64,
            makespan_ns: elapsed.as_nanos() as u64,
            output: Output::Grid(GridResult::Dim3(grid)),
        };
        Ok((sample, lanes))
    }

    fn counts(&self) -> Counts {
        let (cache, comp, pool) = (
            self.compiler.cache_stats(),
            self.compiler.stats(),
            self.pool.stats(),
        );
        vec![
            ("compiles", comp.compiles),
            ("cache_hits", cache.hits),
            ("worlds_created", pool.created),
            ("worlds_reused", pool.reused),
        ]
    }
}

// --------------------------------------------------------------- service

const HOT_SHAPES: usize = 8;
/// Jobs per script: 38 hot compiles + 20 executes + 6 cold compiles,
/// the 60/30/10 mix as whole numbers.
pub const SCRIPT_JOBS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Job {
    /// Compile of a hot shape: a cache hit.
    CompileHot(usize),
    /// Execute of a hot shape on the pooled world.
    Execute(usize),
    /// Compile of a key never seen before: the whole pipeline, and one
    /// more entry pushing on the LRU.
    CompileCold,
}

/// A closed-loop client of a 1-worker `PlanService`; an op is one
/// 64-job script, and the next script starts when the last reply of
/// this one has arrived.
pub struct Service {
    svc: PlanService,
    hot: Vec<PlanRequest>,
    script: Vec<Job>,
    cold_seq: u32,
    ref_sums: Vec<u64>,
}

impl Service {
    /// One fixed cycle of jobs — the three kinds spread as evenly as
    /// their shares allow, the hot shapes taken in turn — entered at a
    /// point the seed picks. Ops run back to back, so every seed runs
    /// the same cycle with the same neighbours: the same work, in a
    /// different phase.
    fn script(seed: u64) -> Vec<Job> {
        let shares = [38, 20, 6];
        let mut given = [0usize; 3];
        let mut jobs = Vec::with_capacity(SCRIPT_JOBS);
        for slot in 1..=SCRIPT_JOBS {
            // The kind furthest behind its share of the first `slot` jobs.
            let kind = (0..3)
                .max_by_key(|&k| (shares[k] * slot) as i64 - (given[k] * SCRIPT_JOBS) as i64)
                .expect("three kinds");
            jobs.push(match kind {
                0 => Job::CompileHot(given[0] % HOT_SHAPES),
                1 => Job::Execute(given[1] % HOT_SHAPES),
                _ => Job::CompileCold,
            });
            given[kind] += 1;
        }
        debug_assert_eq!(given, shares);
        jobs.rotate_left((seed % SCRIPT_JOBS as u64) as usize);
        jobs
    }

    fn setup(seed: u64) -> Result<Self, String> {
        check_ranks(2)?;
        let svc = PlanService::start(SERVICE);
        let hot: Vec<PlanRequest> = (0..HOT_SHAPES)
            .map(|i| hot_shape(i).with_boundary(boundary_of(seed)))
            .collect();
        let mut s = Service {
            svc,
            hot,
            script: Self::script(seed),
            cold_seq: 0,
            ref_sums: Vec::new(),
        };
        for i in 0..HOT_SHAPES {
            let req = JobRequest::Execute(s.hot[i].clone(), ExecOptions { verify: true });
            match s.submit(req)? {
                JobResponse::Executed(_, out) if out.verified == Some(true) => {
                    s.ref_sums.push(grid_sum(&out.grid));
                }
                _ => {
                    return Err(format!(
                        "plan-service: hot shape {i} differs from stencil::seq"
                    ))
                }
            }
        }
        Ok(s)
    }

    fn submit(&self, req: JobRequest) -> Result<JobResponse, String> {
        self.svc
            .try_submit(req)
            .and_then(|t| t.wait())
            .map_err(|e| e.to_string())
    }

    fn request_of(&mut self, job: Job) -> JobRequest {
        match job {
            Job::CompileHot(i) => JobRequest::Compile(self.hot[i].clone()),
            Job::Execute(i) => JobRequest::Execute(self.hot[i].clone(), ExecOptions::default()),
            Job::CompileCold => {
                // Same shape every time, so the same work; a boundary
                // value no earlier request carried, so a new key.
                self.cold_seq += 1;
                JobRequest::Compile(cold_shape().with_boundary(100.0 + self.cold_seq as f32))
            }
        }
    }

    /// One script, the way `planc::smoke` loads the service: submit
    /// every job, then wait for every reply, so the worker runs the
    /// whole script without going idle. (Waiting for each reply before
    /// the next submit puts 128 wake-ups of a halted vCPU into every
    /// op; that is measured once, as `planc.queue_hop_us_p50`, and
    /// made the op's run-to-run spread 20% instead of 3%.)
    ///
    /// With a recorder, one span per job, from the previous reply (the
    /// first from the first submit) to its own: the worker is serial,
    /// so that is the job's busy time, and the spans tile the op.
    fn run_script(&mut self, rec: Option<&mut Recorder>) -> Result<OpSample, String> {
        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(self.script.len());
        for k in 0..self.script.len() {
            let job = self.script[k];
            let req = self.request_of(job);
            tickets.push((job, self.svc.try_submit(req).map_err(|e| e.to_string())?));
        }
        let mut makespan_ns = 0;
        let mut grids = Vec::with_capacity(20);
        let mut replies = Vec::with_capacity(if rec.is_some() { tickets.len() } else { 0 });
        for (job, ticket) in tickets {
            let reply = ticket.wait().map_err(|e| e.to_string())?;
            if rec.is_some() {
                replies.push((job, Instant::now()));
            }
            if let (Job::Execute(i), JobResponse::Executed(_, out)) = (job, reply) {
                makespan_ns += out.elapsed.as_nanos() as u64;
                grids.push((i, out.grid));
            }
        }
        let t1 = Instant::now();
        if let Some(rec) = rec {
            let op = rec.push(None, "plan-service", "op", None, t0, t1);
            let mut from = t0;
            for (job, replied) in replies {
                let name = match job {
                    Job::CompileHot(_) => "job.compile.hit",
                    Job::Execute(_) => "job.execute",
                    Job::CompileCold => "job.compile.cold",
                };
                rec.push(Some(op), "plan-service", name, None, from, replied);
                from = replied;
            }
        }
        Ok(OpSample {
            op_ns: (t1 - t0).as_nanos() as u64,
            makespan_ns,
            output: Output::Jobs(grids),
        })
    }

    fn counts(&self) -> Counts {
        let m = self.svc.metrics();
        vec![
            ("compiles", m.compiler.compiles),
            ("coalesced", m.compiler.coalesced),
            ("cache_hits", m.cache.hits),
            ("cache_misses", m.cache.misses),
            ("worlds_created", m.worlds.created),
            ("worlds_reused", m.worlds.reused),
            ("rejected", m.rejected),
            ("completed", m.completed),
        ]
    }
}

// ----------------------------------------------------------------- sweep

/// The work shape of each of the 16 configs of a batch: `(grid, nz, V,
/// schedule, duplex, shared bus, measured curve, heterogeneous)`.
/// Everything that decides how many rank-steps and events a config
/// simulates, or which code path prices them, is pinned; the seed
/// draws what the simulated machine *costs* — preset, communication
/// scale, speed spread, tile side, boundary clip — which changes the
/// simulated times but not the simulator's work.
type SweepShape = ([i64; 2], i64, i64, Schedule, bool, bool, bool, bool);
#[rustfmt::skip] // one config per line
const SWEEP_SHAPES: [SweepShape; 16] = [
    ([1, 4],  512,   8, Schedule::Blocking, false, false, false, true),
    ([1, 4], 2048,  64, Schedule::Overlap,  true,  false, false, true),
    ([2, 2], 1024,  16, Schedule::Overlap,  false, false, true,  true),
    ([2, 2], 2048, 256, Schedule::Blocking, true,  false, false, false),
    ([2, 4],  512,  32, Schedule::Overlap,  false, false, false, true),
    ([2, 4], 1024,   8, Schedule::Blocking, true,  true,  true,  true),
    ([2, 4], 2048, 128, Schedule::Overlap,  false, false, false, false),
    ([4, 4],  512,  16, Schedule::Blocking, true,  false, true,  true),
    ([4, 4], 1024,  64, Schedule::Overlap,  false, false, false, false),
    ([4, 4], 2048,  32, Schedule::Blocking, true,  false, false, true),
    ([4, 4], 2048,  16, Schedule::Overlap,  false, false, true,  false),
    ([2, 2],  512, 128, Schedule::Overlap,  true,  false, false, false),
    ([1, 4], 1024,  32, Schedule::Blocking, false, true,  false, false),
    ([2, 4], 2048,  16, Schedule::Blocking, true,  false, false, false),
    ([4, 4], 1024, 256, Schedule::Blocking, false, false, true,  true),
    ([2, 2], 2048,   8, Schedule::Overlap,  true,  false, false, false),
];

/// `run_sweep(batch, 1)` over one fixed seeded batch: single-threaded
/// and deterministic, so host time is the only thing that can move.
pub struct SimSweep {
    batch: Vec<SweepConfig>,
    ref_sum: u64,
    /// Σ ranks × steps over the batch: the op's work units.
    pub rank_steps: u64,
    /// Σ simulated makespan over the batch (µs) — exact.
    pub sim_makespan_us_sum: f64,
}

impl SimSweep {
    /// Configs of `sweep::config`'s `random` slice, drawn the way its
    /// generator draws them but with the work shape pinned (see
    /// [`SWEEP_SHAPES`]).
    fn batch(seed: u64) -> Vec<SweepConfig> {
        let mut rng = Mix64::new(seed);
        SWEEP_SHAPES
            .iter()
            .enumerate()
            .map(
                |(id, &(grid, nz, v, schedule, duplex, shared_bus, curve, hetero))| {
                    let side = *rng.pick(&[4i64, 8]);
                    let mut extents = [grid[0] * side, grid[1] * side, nz];
                    for e in extents.iter_mut().take(2) {
                        if rng.unit() < 0.25 {
                            *e -= rng.range_i64(1, side - 1);
                        }
                    }
                    SweepConfig {
                        id,
                        slice: "random",
                        preset: *rng.pick(&[
                            MachinePreset::Paper,
                            MachinePreset::Paper,
                            MachinePreset::Gigabit,
                            MachinePreset::OsBypass,
                        ]),
                        comm_scale: *rng.pick(&[0.25, 0.5, 1.0, 1.0, 2.0, 4.0]),
                        measured_curve: curve,
                        hetero_spread: if hetero {
                            *rng.pick(&[0.1, 0.25, 0.4])
                        } else {
                            0.0
                        },
                        grid,
                        cross_sides: [side, side],
                        extents,
                        v,
                        schedule,
                        duplex,
                        shared_bus,
                        seed: rng.next_u64(),
                    }
                },
            )
            .collect()
    }

    /// Checksum of everything a row reports, bit for bit.
    fn outcome_sum(out: &SweepOutcome) -> u64 {
        fnv64(out.rows.iter().flat_map(|r| {
            let m = r.metrics.as_ref();
            [
                r.status as u64,
                m.map_or(0, |m| m.makespan_us.to_bits()),
                m.map_or(0, |m| m.mean_util.to_bits()),
                m.map_or(0, |m| m.predicted_us.to_bits()),
            ]
        }))
    }

    fn setup(seed: u64) -> Result<Self, String> {
        let batch = Self::batch(seed);
        let out = run_sweep(&batch, 1);
        if out.panics + out.errors > 0 || out.rows.iter().any(|r| r.status != RowStatus::Ok) {
            return Err("sim-sweep: a config of the batch failed".into());
        }
        // The simulator has no sequential twin to compare with; what it
        // promises is that a row depends on its config alone. Check that
        // promise where it could break: another worker count, another
        // evaluation order.
        let ref_sum = Self::outcome_sum(&out);
        if Self::outcome_sum(&run_sweep(&batch, 2)) != ref_sum {
            return Err("sim-sweep: rows depend on the worker count".into());
        }
        let metrics = out.rows.iter().filter_map(|r| r.metrics.as_ref());
        Ok(SimSweep {
            rank_steps: metrics
                .clone()
                .map(|m| m.ranks as u64 * m.steps as u64)
                .sum(),
            sim_makespan_us_sum: metrics.map(|m| m.makespan_us).sum(),
            batch,
            ref_sum,
        })
    }

    fn op(&mut self) -> OpSample {
        let t0 = Instant::now();
        let out = run_sweep(&self.batch, 1);
        let op_ns = t0.elapsed().as_nanos() as u64;
        OpSample {
            op_ns,
            makespan_ns: op_ns,
            output: Output::Sweep(out),
        }
    }

    /// One span per config: the batch goes through `run_sweep` one
    /// config at a time.
    fn op_traced(&mut self, rec: &mut Recorder) -> OpSample {
        let t0 = Instant::now();
        let mut rows = Vec::with_capacity(self.batch.len());
        let mut spans = Vec::with_capacity(self.batch.len());
        for c in &self.batch {
            let c0 = Instant::now();
            rows.extend(run_sweep(std::slice::from_ref(c), 1).rows);
            spans.push((c0, Instant::now()));
        }
        let t1 = Instant::now();
        let op = rec.push(None, "sim-sweep", "op", None, t0, t1);
        for (c0, c1) in spans {
            rec.push(Some(op), "sim-sweep", "sim.config", None, c0, c1);
        }
        let op_ns = (t1 - t0).as_nanos() as u64;
        OpSample {
            op_ns,
            makespan_ns: op_ns,
            // The per-config outcomes' own panic and error counts are
            // dropped with them; `Output::rows_failed` reads the rows.
            output: Output::Sweep(SweepOutcome {
                rows,
                panics: 0,
                errors: 0,
            }),
        }
    }
}

// ------------------------------------------------------------- front end

pub enum Workload {
    World(Box<World>),
    Service(Service),
    Sweep(SimSweep),
}

impl Workload {
    /// Cold set-up: fresh `Compiler` / `WorldPool` / `PlanService` /
    /// config batch, compile, first execution verified against the
    /// sequential reference. The caller times it.
    pub fn setup(name: &'static str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "plan-service" => Workload::Service(Service::setup(seed)?),
            "sim-sweep" => Workload::Sweep(SimSweep::setup(seed)?),
            _ => Workload::World(Box::new(World::setup(name, seed)?)),
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::World(w) => w.name,
            Workload::Service(_) => "plan-service",
            Workload::Sweep(_) => "sim-sweep",
        }
    }

    /// Ops per round, sized for ≈0.4 s on the reference box and fixed,
    /// so the counts of a round repeat exactly.
    pub fn ops_per_round(&self) -> usize {
        match self.name() {
            "compute-bound" => 60,
            "fine-grain" => 40,
            "wire-overlap" => 80,
            "wire-blocking" => 14,
            "plan-service" => 45,
            _ => 30,
        }
    }

    /// `(exact work units per op, what they are)`.
    pub fn work(&self) -> (u64, &'static str) {
        match self {
            Workload::World(w) => (w.art.cells() as u64, "cells"),
            Workload::Service(_) => (SCRIPT_JOBS as u64, "jobs"),
            Workload::Sweep(s) => (s.rank_steps, "rank-steps"),
        }
    }

    pub fn op(&mut self) -> Result<OpSample, String> {
        match self {
            Workload::World(w) => w.op(),
            Workload::Service(s) => s.run_script(None),
            Workload::Sweep(s) => Ok(s.op()),
        }
    }

    /// The traced twin of [`Workload::op`]. `phases` keeps the engine's
    /// per-phase spans too (one op per workload is enough for a trace
    /// file a viewer can still open).
    pub fn op_traced(
        &mut self,
        rec: &mut Recorder,
        phases: bool,
    ) -> Result<(OpSample, Option<Lanes>), String> {
        match self {
            Workload::World(w) => w.op_traced(rec, phases).map(|(s, l)| (s, Some(l))),
            Workload::Service(s) => s.run_script(Some(rec)).map(|s| (s, None)),
            Workload::Sweep(s) => Ok((s.op_traced(rec), None)),
        }
    }

    /// Is this output the one set-up verified?
    pub fn verify(&self, out: &Output) -> bool {
        match (self, out) {
            (Workload::World(w), Output::Grid(g)) => grid_sum(g) == w.ref_sum,
            (Workload::Service(s), Output::Jobs(grids)) => {
                grids.len() == 20 && grids.iter().all(|(i, g)| grid_sum(g) == s.ref_sums[*i])
            }
            (Workload::Sweep(s), Output::Sweep(o)) => SimSweep::outcome_sum(o) == s.ref_sum,
            _ => false,
        }
    }

    /// Cumulative counters; the caller differences them per round.
    pub fn counts(&self) -> Counts {
        match self {
            Workload::World(w) => w.counts(),
            Workload::Service(s) => s.counts(),
            Workload::Sweep(_) => Vec::new(),
        }
    }

    /// Facts of the plan that cannot change between rounds, printed
    /// once: `(steps, cells, messages per step)` of a world workload.
    pub fn plan_facts(&self) -> Option<(usize, usize, f64)> {
        match self {
            Workload::World(w) => {
                let steps = w.art.steps();
                let msgs = w.art.report().messages as f64 / steps as f64;
                Some((steps, w.art.cells(), msgs))
            }
            _ => None,
        }
    }

    /// The artifact of a world workload (prediction, mode).
    pub fn artifact(&self) -> Option<&PlanArtifact> {
        match self {
            Workload::World(w) => Some(&w.art),
            _ => None,
        }
    }
}
