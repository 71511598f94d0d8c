//! # msgpass
//!
//! An MPI-shaped message-passing runtime for the IPPS 2001 loop-tiling
//! reproduction. The paper ran on MPICH over FastEthernet; this crate
//! provides the same primitives (`Send`/`Recv`/`Isend`/`Irecv`/`Wait`)
//! over OS threads on one machine, with a configurable wire-latency
//! model so that non-blocking communication genuinely overlaps
//! computation in wall-clock time.
//!
//! * [`comm`] — the [`comm::Communicator`] trait the distributed
//!   executors are written against; every call that can meet a
//!   transport fault returns a typed [`comm::CommError`].
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`])
//!   and the reliability parameters ([`fault::ReliabilityConfig`])
//!   of a [`thread_backend::WorldConfig`]-configured world.
//! * [`thread_backend`] — the threaded implementation
//!   ([`thread_backend::run_threads`]), the trait's one implementation.
//! * [`transport`] — the per-link wire abstraction
//!   ([`transport::TransportKind`]): mpsc channels with a buffer-return
//!   pool, or zero-copy shared-memory slot rings.
//! * [`slot_transport`] — the SPSC slot-ring transport itself
//!   (cache-line-padded cursors, slot leases, FIFO overflow).
//! * `modelcheck` (test builds only) — exhaustive interleaving checks
//!   of the slot ring (every producer/consumer merge order, via
//!   `miniloom`), proving no double-claim, no ABA reuse, and no lost
//!   slot, and of the rank-thread handoff (no lost wakeup):
//!   `cargo test -p msgpass modelcheck`.
//! * [`topology`] — Cartesian process grids (the paper's 4×4 layout).
//!
//! Timing-only simulation of the paper's cluster lives in the sibling
//! `cluster-sim` crate; this crate moves *real data* and is what the
//! `stencil` executors and their verification run on. A run's
//! wall-clock trace, in the simulator's interval format, is recorded
//! by the `stencil` engine's observer against [`ThreadComm::epoch`].
//!
//! [`ThreadComm::epoch`]: thread_backend::ThreadComm::epoch

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affinity;
pub mod comm;
pub mod fault;
#[cfg(test)]
mod modelcheck;
pub mod slot_transport;
pub mod thread_backend;
pub mod topology;
pub mod transport;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::comm::{CommError, Communicator, RecvRequest, SendRequest, Tag};
    pub use crate::fault::{FaultKind, FaultPlan, FaultSite, FaultStats, ReliabilityConfig};
    pub use crate::thread_backend::{
        run_threads, run_threads_with, LatencyModel, PoolStats, ThreadComm, WorldConfig,
    };
    pub use crate::topology::CartesianGrid;
    pub use crate::transport::TransportKind;
}
