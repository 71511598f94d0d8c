//! The long-running plan-compilation service.
//!
//! [`PlanService`] owns a bounded job queue drained by a pool of
//! worker threads. Jobs are [`JobRequest::Compile`] (produce an
//! `Arc<PlanArtifact>`) or [`JobRequest::Execute`] (compile-or-fetch,
//! then run the plan). All compilation goes through the shared
//! [`Compiler`] — identical concurrent requests coalesce onto one
//! flight and the LRU cache serves repeats — and execute jobs draw
//! warm worlds from a shared [`WorldPool`]. `try_submit` rejects with
//! [`ServiceError::QueueFull`] instead of blocking: the queue bound is
//! the service's backpressure.

use crate::artifact::{ExecOptions, ExecOutcome, PlanArtifact};
use crate::cache::CacheStats;
use crate::compiler::{Compiler, CompilerStats};
use crate::error::CompileError;
use crate::spec::PlanRequest;
use crate::worlds::{WorldPool, WorldPoolStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use stencil::engine::EngineError;

/// Service sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queue bound; `try_submit` rejects beyond it.
    pub queue_cap: usize,
    /// Compiled-plan cache capacity.
    pub cache_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 32,
        }
    }
}

/// What a client asks the service to do.
#[derive(Clone, Debug)]
pub enum JobRequest {
    /// Compile (or fetch) the plan.
    Compile(PlanRequest),
    /// Compile (or fetch) the plan, then execute it.
    Execute(PlanRequest, ExecOptions),
}

/// What a finished job produced.
#[derive(Clone, Debug)]
pub enum JobResponse {
    /// The compiled artifact.
    Compiled(Arc<PlanArtifact>),
    /// The compiled artifact and one execution's outcome.
    Executed(Arc<PlanArtifact>, ExecOutcome),
}

impl JobResponse {
    /// The artifact either job kind produced.
    pub fn artifact(&self) -> &Arc<PlanArtifact> {
        match self {
            JobResponse::Compiled(a) => a,
            JobResponse::Executed(a, _) => a,
        }
    }
}

/// Why a job (or submission) failed.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The bounded queue is full — retry later.
    QueueFull,
    /// The plan did not compile.
    Compile(CompileError),
    /// The plan compiled but execution failed.
    Exec(EngineError),
    /// The service shut down before the job ran.
    Shutdown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "job queue full"),
            ServiceError::Compile(e) => write!(f, "compile failed: {e}"),
            ServiceError::Exec(e) => write!(f, "execution failed: {e}"),
            ServiceError::Shutdown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A handle to a submitted job; [`JobTicket::wait`] blocks for the
/// outcome.
pub struct JobTicket {
    rx: mpsc::Receiver<Result<JobResponse, ServiceError>>,
}

impl JobTicket {
    /// Block until the job finishes.
    pub fn wait(self) -> Result<JobResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }
}

struct Job {
    request: JobRequest,
    reply: mpsc::Sender<Result<JobResponse, ServiceError>>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    queue_cap: usize,
    compiler: Compiler,
    worlds: WorldPool,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
}

/// A point-in-time snapshot of every service counter.
#[derive(Clone, Copy, Debug)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs fully processed (success or failure).
    pub completed: u64,
    /// Submissions rejected by the queue bound.
    pub rejected: u64,
    /// Compiled-plan cache counters.
    pub cache: CacheStats,
    /// Pipeline/coalescing counters.
    pub compiler: CompilerStats,
    /// World-pool counters.
    pub worlds: WorldPoolStats,
}

/// See the module docs.
pub struct PlanService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PlanService {
    /// Start the service: spawns `cfg.workers` worker threads.
    pub fn start(cfg: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_cap: cfg.queue_cap.max(1),
            compiler: Compiler::new(cfg.cache_cap),
            worlds: WorldPool::default(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        // LINT: a service without its workers could never run a job, and
        // `start` has no error to return instead.
        #[allow(clippy::expect_used)]
        let workers = (0..cfg.workers.max(1))
            .map(|w| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("planc-worker-{w}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn service worker")
            })
            .collect();
        PlanService { shared, workers }
    }

    /// Submit a job; rejects with [`ServiceError::QueueFull`] when the
    /// bounded queue is at capacity.
    pub fn try_submit(&self, request: JobRequest) -> Result<JobTicket, ServiceError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = crate::lock(&self.shared.queue);
            if q.len() >= self.shared.queue_cap {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::QueueFull);
            }
            q.push_back(Job { request, reply: tx });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.cv.notify_one();
        Ok(JobTicket { rx })
    }

    /// Compile synchronously on the caller's thread, still through the
    /// shared cache and single-flight (the library-API fast path; no
    /// queue hop).
    pub fn compile(&self, req: &PlanRequest) -> Result<Arc<PlanArtifact>, CompileError> {
        self.shared.compiler.compile(req)
    }

    /// Snapshot all counters.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            cache: self.shared.compiler.cache_stats(),
            compiler: self.shared.compiler.stats(),
            worlds: self.shared.worlds.stats(),
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Any jobs still queued never ran: tell their clients.
        let mut q = crate::lock(&self.shared.queue);
        for job in q.drain(..) {
            let _ = job.reply.send(Err(ServiceError::Shutdown));
        }
    }
}

fn worker_loop(sh: &Shared) {
    loop {
        let job = {
            let mut q = crate::lock(&sh.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if sh.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = sh.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = run_job(sh, &job.request);
        sh.completed.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(outcome);
    }
}

fn run_job(sh: &Shared, request: &JobRequest) -> Result<JobResponse, ServiceError> {
    match request {
        JobRequest::Compile(req) => {
            let a = sh.compiler.compile(req).map_err(ServiceError::Compile)?;
            Ok(JobResponse::Compiled(a))
        }
        JobRequest::Execute(req, opts) => {
            let a = sh.compiler.compile(req).map_err(ServiceError::Compile)?;
            let out = a
                .execute_pooled(&sh.worlds, *opts)
                .map_err(ServiceError::Exec)?;
            Ok(JobResponse::Executed(a, out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_and_execute_jobs_round_trip() {
        let svc = PlanService::start(ServiceConfig::default());
        let req = PlanRequest::grid3(8, 8, 64, 2, 2).with_v(16);
        let t1 = svc.try_submit(JobRequest::Compile(req.clone())).unwrap();
        let a = match t1.wait().unwrap() {
            JobResponse::Compiled(a) => a,
            r => panic!("wrong response: {r:?}"),
        };
        assert_eq!(a.ranks(), 4);
        let t2 = svc
            .try_submit(JobRequest::Execute(req, ExecOptions { verify: true }))
            .unwrap();
        match t2.wait().unwrap() {
            JobResponse::Executed(b, out) => {
                assert!(Arc::ptr_eq(&a, &b), "execute must reuse the cached plan");
                assert_eq!(out.verified, Some(true));
            }
            r => panic!("wrong response: {r:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.cache.hits, 1);
    }

    #[test]
    fn a_worker_survives_oversized_requests() {
        use crate::pipeline::tests::{unallocatable, untileable};
        use crate::pipeline::tests::{UNALLOCATABLE_BYTES, UNTILEABLE_BYTES};
        let svc = PlanService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let run = |req: PlanRequest| {
            let job = JobRequest::Execute(req, ExecOptions { verify: true });
            svc.try_submit(job).expect("queued").wait()
        };
        let oversized = [
            (unallocatable(), UNALLOCATABLE_BYTES),
            (untileable(), UNTILEABLE_BYTES),
        ];
        for (req, bytes) in oversized {
            match run(req) {
                Err(ServiceError::Exec(e)) => assert_eq!(e, EngineError::OutOfMemory { bytes }),
                other => panic!("expected an execution error, got {other:?}"),
            }
        }
        match run(PlanRequest::grid3(8, 8, 64, 2, 1).with_v(16)) {
            Ok(JobResponse::Executed(_, out)) => assert_eq!(out.verified, Some(true)),
            other => panic!("the worker did not serve the next job: {other:?}"),
        }
    }

    #[test]
    fn queue_bound_rejects() {
        // One worker, capacity 1: a burst must see QueueFull.
        let svc = PlanService::start(ServiceConfig {
            workers: 1,
            queue_cap: 1,
            cache_cap: 4,
        });
        let req = PlanRequest::grid3(8, 8, 2048, 2, 2).with_v(8);
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for _ in 0..50 {
            match svc.try_submit(JobRequest::Compile(req.clone())) {
                Ok(t) => accepted.push(t),
                Err(ServiceError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(rejected > 0, "bounded queue never pushed back");
        for t in accepted {
            t.wait().unwrap();
        }
        assert_eq!(svc.metrics().rejected, rejected);
    }

    /// Settle one smoke ticket: an execution must have verified.
    fn settle(t: JobTicket, verified: &AtomicU64) {
        match t.wait() {
            Ok(JobResponse::Executed(_, out)) => {
                assert_eq!(
                    out.verified,
                    Some(true),
                    "smoke execution failed verification"
                );
                verified.fetch_add(1, Ordering::Relaxed);
            }
            Ok(JobResponse::Compiled(_)) => {}
            Err(e) => panic!("smoke job failed: {e}"),
        }
    }

    /// A deterministic concurrent mixed compile/execute load: four
    /// client threads each submit eight jobs drawn (by a fixed LCG)
    /// from a small set of plan shapes, so repeats hit the cache and
    /// concurrent first requests exercise single-flight. Execute jobs
    /// verify against the sequential reference.
    #[test]
    fn smoke_load_hits_cache_and_verifies() {
        use stencil::engine::ExecMode;
        let service = PlanService::start(ServiceConfig::default());
        // Small shapes: the load exercises service machinery, not kernels.
        let shapes: Vec<PlanRequest> = vec![
            PlanRequest::grid3(8, 8, 256, 2, 2).with_v(64),
            PlanRequest::grid3(8, 8, 256, 2, 2)
                .with_v(64)
                .with_mode(ExecMode::Blocking),
            PlanRequest::grid3(4, 4, 512, 2, 2).with_v(128),
            PlanRequest::strip2(64, 16, 4).with_v(16),
            PlanRequest::grid3(8, 8, 256, 2, 2), // auto-V variant
            PlanRequest::strip2(64, 16, 4)
                .with_v(16)
                .with_mode(ExecMode::Blocking),
        ];
        let verified = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for c in 0..4u64 {
                let (service, shapes, verified) = (&service, &shapes, &verified);
                scope.spawn(move || {
                    // Deterministic per-client LCG job mix.
                    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ c;
                    let mut tickets = Vec::new();
                    for _ in 0..8 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let shape = shapes[(state >> 33) as usize % shapes.len()].clone();
                        let job = if state.is_multiple_of(3) {
                            JobRequest::Execute(shape, ExecOptions { verify: true })
                        } else {
                            JobRequest::Compile(shape)
                        };
                        // 32 jobs in all: the default queue holds them.
                        tickets.push(service.try_submit(job).expect("queue_cap 64"));
                    }
                    for t in tickets {
                        settle(t, verified);
                    }
                });
            }
        });
        let m = service.metrics();
        assert_eq!(m.completed, 32);
        assert!(
            m.cache.hit_ratio() > 0.0,
            "no cache hits under repeated load"
        );
        assert!(
            verified.load(Ordering::Relaxed) > 0,
            "no execute jobs verified"
        );
        assert!(
            m.compiler.compiles <= 6,
            "more compiles than distinct shapes: {}",
            m.compiler.compiles
        );
    }
}
