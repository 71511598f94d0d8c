//! planc — the compiled-plan pipeline and plan-compilation service.
//!
//! Every way of running a stencil in this workspace flows through one
//! immutable artifact: a [`PlanArtifact`] is a compiled,
//! analyzer-approved bundle of step plan, decomposition, schedule
//! metadata, logical makespan, and kernel tier, sealed under a stable
//! [`PlanKey`] derived from the loop nest, machine spec, tile
//! parameter V, transport, and tier. Compilation is staged —
//! `front → decompose → optimize → analyze` — with a typed
//! [`CompileError`] naming the stage that failed, and the analyzer
//! preflight runs exactly once, at compile time; execution never
//! re-validates.
//!
//! Layers, bottom up:
//!
//! * [`spec`] — [`PlanRequest`]: what to compile (workload, kernel,
//!   machine, V, mode, transport, tier), plus the `key=value` wire
//!   format the service speaks.
//! * [`pipeline`] — the staged compiler producing a [`PlanArtifact`].
//! * [`cache`] — [`PlanCache`]: keyed LRU over compiled plans with
//!   hit/miss/eviction counters.
//! * [`compiler`] — [`Compiler`]: cache + single-flight batching of
//!   identical in-flight compilations.
//! * [`worlds`] — [`WorldPool`]: warm thread-backend worlds reused
//!   across execute jobs.
//! * [`service`] — [`PlanService`]: bounded job queue + worker pool
//!   over all of the above.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod cache;
pub mod compiler;
pub mod error;
#[cfg(test)]
mod modelcheck;
pub mod pipeline;
pub mod service;
pub mod spec;
pub mod worlds;

pub use artifact::{ExecOptions, ExecOutcome, GridResult, PlanArtifact};
pub use cache::{CacheStats, PlanCache, PlanKey};
pub use compiler::{Compiler, CompilerStats, Provenance};
pub use error::CompileError;
pub use pipeline::compile;
pub use service::{
    JobRequest, JobResponse, JobTicket, PlanService, ServiceConfig, ServiceError, ServiceMetrics,
};
pub use spec::{KernelName, MachineSpec, PlanRequest, VChoice, WorkloadSpec};
pub use worlds::{WorldPool, WorldPoolStats};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, whether or not a thread panicked holding it: every lock in
/// this crate guards state that each critical section leaves
/// consistent (a map, a queue, a slot set once, counters), so a panic
/// elsewhere never makes it unreadable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
